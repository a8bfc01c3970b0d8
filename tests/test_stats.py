"""Unit tests for repro.core.stats.GroupStats."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.stats import GroupStats, from_values


def test_empty_state():
    s = GroupStats()
    assert s.m == 0
    with pytest.raises(ValueError):
        _ = s.mean
    with pytest.raises(ValueError):
        _ = s.variance


def test_single_update():
    s = GroupStats()
    s.update(3.5)
    assert s.m == 1
    assert s.mean == 3.5
    assert s.variance == 0.0
    assert s.vmin == s.vmax == 3.5


@pytest.mark.parametrize("n", [2, 5, 100, 1000])
def test_matches_numpy(n):
    rng = np.random.default_rng(n)
    vals = rng.normal(10, 4, n)
    s = from_values(vals)
    assert s.m == n
    assert s.mean == pytest.approx(vals.mean())
    assert s.variance == pytest.approx(vals.var(), rel=1e-9, abs=1e-9)
    assert s.std == pytest.approx(vals.std(), rel=1e-9, abs=1e-9)
    assert s.vmin == vals.min()
    assert s.vmax == vals.max()


def test_variance_nonnegative_under_cancellation():
    # Large offset stresses the sumsq - mean^2 cancellation.
    s = from_values([1e8 + 0.1, 1e8 + 0.2, 1e8 + 0.3])
    assert s.variance >= 0.0
    assert math.isfinite(s.std)
