"""Tests for the Anderson/DKW bounder (Algorithm 3) and Lemma 2."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.bounders import AndersonDKW

A, B, N = 0.0, 100.0, 50_000
AD = AndersonDKW()


def _state(vals):
    s = AD.init_state()
    for v in np.sort(np.asarray(vals, dtype=float)):
        s = AD.update_state(s, float(v))
    return s


def test_state_grows_with_m():
    """Paper Table 2: Anderson/DKW needs O(m) memory."""
    s = _state(np.arange(500))
    assert isinstance(s, list) and len(s) == 500


def test_epsilon_closed_form():
    m, delta = 400, 1e-4
    assert AD.epsilon(m, delta) == pytest.approx(
        math.sqrt(math.log(1 / delta) / (2 * m))
    )


def test_epsilon_capped_at_one():
    assert AD.epsilon(1, 1e-300) == 1.0


def test_empty_state_returns_range():
    assert AD.lbound([], A, B, N, 0.05) == A
    assert AD.rbound([], A, B, N, 0.05) == B


def test_lbound_formula_small_sample():
    vals = [10.0, 20.0, 30.0, 40.0]
    delta = 0.1
    eps = AD.epsilon(4, delta)
    keep = math.floor((1 - eps) * 4)
    expected = eps * A + (1 - eps) * (sum(sorted(vals)[:keep]) / keep)
    assert AD.lbound(_state(vals), A, B, N, delta) == pytest.approx(expected)


def test_rbound_mirror_of_lbound():
    vals = np.linspace(10, 90, 200)
    delta = 0.05
    lo = AD.lbound(_state(vals), A, B, N, delta)
    hi = AD.rbound(_state(vals), A, B, N, delta)
    # Reflecting the sample about the range midpoint swaps the bounds.
    refl = (A + B) - vals
    lo_r = AD.lbound(_state(refl), A, B, N, delta)
    assert hi == pytest.approx((A + B) - lo_r, rel=1e-9)


def test_no_phos_lbound_independent_of_b():
    """Paper §2.3.3: Anderson/DKW's lower bound never consults b."""
    vals = np.linspace(10, 30, 500)
    assert AD.lbound(_state(vals), A, B, N, 0.01) == pytest.approx(
        AD.lbound(_state(vals), A, B + 1000, N, 0.01)
    )


def test_pma_eps_mass_at_a():
    """The trimmed eps mass is charged at a even when min(S) >> a."""
    vals = np.linspace(60, 80, 500)
    l0 = AD.lbound(_state(vals), A, B, N, 0.01)
    l1 = AD.lbound(_state(vals), A - 100, B, N, 0.01)
    eps = AD.epsilon(500, 0.01)
    assert l0 - l1 == pytest.approx(eps * 100, rel=1e-9)


def test_lemma2_mean_identity():
    """mu = b - integral of F over [a, b] (Lemma 2), numerically."""
    rng = np.random.default_rng(0)
    vals = np.sort(rng.uniform(A, B, 2000))
    xs = np.linspace(A, B, 20001)
    F = np.searchsorted(vals, xs, side="right") / len(vals)
    integral = np.trapz(F, xs)
    assert B - integral == pytest.approx(vals.mean(), abs=0.05)


@pytest.mark.parametrize("delta", [0.3, 0.1])
def test_coverage_without_replacement(delta):
    """Theorem 1: DKW-based bounds remain valid for WR sampling."""
    rng = np.random.default_rng(3)
    pop = np.clip(rng.normal(50, 25, 4000), A, B)
    mu = pop.mean()
    failures = 0
    trials = 200
    for _ in range(trials):
        sample = rng.choice(pop, 300, replace=False)
        lo, hi = AD.ci(_state(sample), A, B, len(pop), delta)
        if not (lo <= mu <= hi):
            failures += 1
    assert failures / trials <= delta


def test_interval_contains_sample_mean_region():
    vals = np.linspace(40, 60, 1000)
    lo, hi = AD.ci(_state(vals), A, B, N, 0.05)
    assert lo <= vals.mean() <= hi
