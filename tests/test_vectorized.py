"""The vectorized NumPy CI path must agree with the scalar references.

Plain CIs are compared with the scalar ``Bounder.ci``; range-trimmed CIs
with the paper's streaming Algorithm 6 (``RangeTrim(inner).ci``) run
over the same values.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import vectorized as V
from repro.core.bounders import EmpiricalBernsteinSerfling, HoeffdingSerfling
from repro.core.range_trim import RangeTrim
from repro.core.stats import from_values

A, B = -60.0, 700.0
SCALARS = {"hoeffding": HoeffdingSerfling(), "bernstein": EmpiricalBernsteinSerfling()}


def _case(seed, m):
    rng = np.random.default_rng(seed)
    return rng.normal(rng.uniform(0, 50), rng.uniform(1, 40), m)


def _streaming_rt_ci(kind, vals, N, delta):
    """Algorithm 6 fed ``vals`` one at a time: the RangeTrim reference."""
    rt = RangeTrim(SCALARS[kind])
    state = rt.init_state()
    for v in vals:
        state = rt.update_state(state, float(v))
    return rt.ci(state, A, B, N, delta)


@pytest.mark.parametrize("kind", ["hoeffding", "bernstein"])
@pytest.mark.parametrize("m", [2, 3, 10, 100, 5000])
@pytest.mark.parametrize("delta", [0.1, 1e-6, 1e-15])
def test_plain_matches_scalar(kind, m, delta):
    vals = _case(m, m)
    s = from_values(vals)
    N = 1_000_000
    lo_v, hi_v = V.ci(
        kind, s.m, s.total, s.total_sq, s.vmin, s.vmax, A, B, N, delta, False
    )
    lo_s, hi_s = SCALARS[kind].ci(s, A, B, N, delta)
    assert float(lo_v) == pytest.approx(lo_s, rel=1e-10, abs=1e-10)
    assert float(hi_v) == pytest.approx(hi_s, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", ["hoeffding", "bernstein"])
@pytest.mark.parametrize("m", [2, 3, 10, 100, 5000])
@pytest.mark.parametrize("delta", [0.1, 1e-6, 1e-15])
def test_rt_matches_batch_reference(kind, m, delta):
    """Batch RangeTrim equals streaming Algorithm 6 over the same values."""
    vals = _case(m + 50, m)
    s = from_values(vals)
    N = 1_000_000
    lo_v, hi_v = V.ci(
        kind, s.m, s.total, s.total_sq, s.vmin, s.vmax, A, B, N, delta, True
    )
    lo_r, hi_r = _streaming_rt_ci(kind, vals, N, delta)
    assert float(lo_v) == pytest.approx(lo_r, rel=1e-10, abs=1e-10)
    assert float(hi_v) == pytest.approx(hi_r, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", ["hoeffding", "bernstein"])
@pytest.mark.parametrize("rt", [False, True])
def test_vector_of_groups(kind, rt):
    """Array inputs: each lane equals the corresponding scalar call."""
    cases = [_case(i, m) for i, m in enumerate([5, 50, 500, 2000])]
    states = [from_values(vals) for vals in cases]
    N = np.array([1000.0, 5000.0, 50_000.0, 1_000_000.0])
    lo, hi = V.ci(
        kind,
        [s.m for s in states],
        [s.total for s in states],
        [s.total_sq for s in states],
        [s.vmin for s in states],
        [s.vmax for s in states],
        A,
        B,
        N,
        1e-9,
        rt,
    )
    for i, s in enumerate(states):
        if rt:
            lo_r, hi_r = _streaming_rt_ci(kind, cases[i], int(N[i]), 1e-9)
        else:
            lo_r, hi_r = SCALARS[kind].ci(s, A, B, int(N[i]), 1e-9)
        assert lo[i] == pytest.approx(lo_r, rel=1e-10, abs=1e-10)
        assert hi[i] == pytest.approx(hi_r, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("kind", ["hoeffding", "bernstein"])
@pytest.mark.parametrize("rt", [False, True])
def test_empty_and_single_groups(kind, rt):
    lo, hi = V.ci(
        kind,
        [0, 1],
        [0.0, 10.0],
        [0.0, 100.0],
        [np.inf, 10.0],
        [-np.inf, 10.0],
        A,
        B,
        1000,
        0.01,
        rt,
    )
    assert lo[0] == A and hi[0] == B  # empty group -> full range
    if rt:
        assert lo[1] == A and hi[1] == B  # single sample, trimmed empty
    else:
        assert A <= lo[1] <= hi[1] <= B


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        V.ci("bogus", [1], [1.0], [1.0], [1.0], [1.0], A, B, 10, 0.1, False)


def test_bounds_always_within_range():
    rng = np.random.default_rng(0)
    for kind in ("hoeffding", "bernstein"):
        for rt in (False, True):
            vals = rng.uniform(A, B, 50)
            s = from_values(vals)
            lo, hi = V.ci(
                kind, s.m, s.total, s.total_sq, s.vmin, s.vmax, A, B, 60, 0.5, rt
            )
            assert A <= float(lo) <= float(hi) <= B
