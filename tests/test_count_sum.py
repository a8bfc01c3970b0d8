"""Tests for the unknown-N machinery: Lemma 5, Theorem 3, COUNT/SUM CIs."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.count_sum import (
    ALPHA,
    count_ci,
    n_plus,
    selectivity_ci,
    selectivity_eps,
    sum_ci,
)


def test_alpha_matches_paper():
    assert ALPHA == 0.99


def test_selectivity_eps_formula():
    r, R, delta = 1000, 100_000, 0.01
    rho = 1 - (r - 1) / R
    expected = np.sqrt(np.log(2 / delta) / (2 * r) * rho)
    assert float(selectivity_eps(r, R, delta)) == pytest.approx(expected)


def test_selectivity_ci_clipped():
    lo, hi = selectivity_ci(0, 10, 1000, 0.5)
    assert float(lo) == 0.0
    lo, hi = selectivity_ci(10, 10, 1000, 0.5)
    assert float(hi) == 1.0


@pytest.mark.parametrize("delta", [0.3, 0.1])
def test_selectivity_coverage_hypergeometric(delta):
    """Lemma 5: the CI covers the true selectivity w.p. >= 1-delta."""
    rng = np.random.default_rng(0)
    R, n_view = 20_000, 3_000
    sigma_true = n_view / R
    membership = np.zeros(R, dtype=bool)
    membership[:n_view] = True
    failures, trials = 0, 300
    for _ in range(trials):
        perm = rng.permutation(R)[:500]  # scan prefix of a fresh scramble
        m_v = int(membership[perm].sum())
        lo, hi = selectivity_ci(m_v, 500, R, delta)
        if not (lo <= sigma_true <= hi):
            failures += 1
    assert failures / trials <= delta


def test_count_ci_scales_selectivity():
    lo, hi = count_ci(50, 1000, 100_000, 0.01)
    slo, shi = selectivity_ci(50, 1000, 100_000, 0.01)
    assert float(lo) == pytest.approx(float(slo) * 100_000)
    assert float(hi) == pytest.approx(float(shi) * 100_000)


@pytest.mark.parametrize("delta", [1e-3, 1e-10])
def test_n_plus_is_upper_bound_whp(delta):
    """Theorem 3: N+ >= N except with probability (1-alpha)*delta."""
    rng = np.random.default_rng(1)
    R, n_view = 50_000, 4_000
    membership = np.zeros(R, dtype=bool)
    membership[:n_view] = True
    for _ in range(100):
        perm = rng.permutation(R)[:2000]
        m_v = int(membership[perm].sum())
        assert float(n_plus(m_v, 2000, R, delta)) >= n_view


def test_n_plus_capped_at_R_and_floored():
    assert float(n_plus(1000, 1000, 5000, 0.1)) == 5000.0
    assert float(n_plus(0, 1, 5000, 0.9999)) >= 1.0


def test_n_plus_vectorized():
    out = n_plus(np.array([10, 100, 1000]), 5000, 100_000, 1e-6)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)  # more hits -> larger view bound


def test_sum_ci_positive_mean():
    lo, hi = sum_ci(10.0, 20.0, 100.0, 200.0)
    assert float(lo) == pytest.approx(1000.0)
    assert float(hi) == pytest.approx(4000.0)


def test_sum_ci_negative_mean():
    """Paper's c_l*g_l formula breaks for negative means; ours must not."""
    lo, hi = sum_ci(-20.0, -10.0, 100.0, 200.0)
    assert float(lo) == pytest.approx(-4000.0)
    assert float(hi) == pytest.approx(-1000.0)


def test_sum_ci_straddling_zero():
    lo, hi = sum_ci(-5.0, 10.0, 100.0, 200.0)
    assert float(lo) == pytest.approx(-1000.0)
    assert float(hi) == pytest.approx(2000.0)


def test_sum_ci_contains_truth_monte_carlo():
    rng = np.random.default_rng(2)
    R = 10_000
    vals = rng.normal(5, 10, R)
    membership = rng.random(R) < 0.3
    true_sum = vals[membership].sum()
    failures, trials = 0, 200
    delta = 0.1
    from repro.core.bounders import EmpiricalBernsteinSerfling
    from repro.core.stats import from_values

    eb = EmpiricalBernsteinSerfling()
    a, b = float(vals.min()), float(vals.max())
    for _ in range(trials):
        perm = rng.permutation(R)[:1500]
        hits = perm[membership[perm]]
        m_v = len(hits)
        c_lo, c_hi = count_ci(m_v, 1500, R, delta / 2)
        s = from_values(vals[hits])
        a_lo, a_hi = eb.ci(s, a, b, int(membership.sum()), delta / 2)
        lo, hi = sum_ci(a_lo, a_hi, c_lo, c_hi)
        if not (float(lo) <= true_sum <= float(hi)):
            failures += 1
    assert failures / trials <= delta


def _grid_digest(fn):
    """sha256 of ``fn`` over a grid of scanned rows r, view hits m_v <= r
    (m_v in {0, 1, 2}, m_v past r/2, m_v = r), scramble sizes R and
    budgets; m_v as one array and as size-1 arrays (a one-view query)."""
    h = hashlib.sha256()
    for R in (50, 240_000):
        for r in sorted({1, 2, 3, 25, R // 2, R - 1, R, 40_000 % R or 1}):
            m_v = np.array(sorted({0, 1, 2, r // 3, r // 2 + 1, r - 1, r}), float)
            m_v = m_v[m_v <= r]
            for delta in (0.9, 1e-3, 6e-18):
                for x in [m_v] + [m_v[i : i + 1] for i in range(m_v.size)]:
                    for out in fn(x, r, R, delta):
                        h.update(out.tobytes())
    return h.hexdigest()


def _sum_grid_digest():
    """sha256 of ``sum_ci`` over AVG intervals below, around and above zero
    (signed zeros included) times COUNT intervals from 0 up; all pairs in
    one call, then each pair alone as size-1 arrays."""
    avg = [(-20.0, -10.0), (-5.0, 10.0), (-0.0, 0.0), (0.0, 3.5), (-7.25, -0.0),
           (10.0, 20.0), (-1e-300, 1e-300), (-33.3, -33.3)]
    cnt = [(0.0, 0.0), (0.0, 12.0), (1.0, 240_000.0), (4.5e4, 4.9e4)]
    pairs = np.array([a + c for a in avg for c in cnt])
    h = hashlib.sha256()
    for cols in [pairs.T] + [pairs[i : i + 1].T for i in range(len(pairs))]:
        lo, hi = sum_ci(*cols)
        h.update(lo.tobytes() + hi.tobytes())
    return h.hexdigest()


#: The grids' digests, pinned: COUNT/SUM results are pinned byte for
#: byte, so a rewrite of these formulas must keep their bytes.
GRID_DIGESTS = {
    "selectivity_ci": "80193299baa2b1b68a0178baa56b7aad79603ca53682fa8028558089c97890e3",
    "count_ci": "6211e7f1b4320f8b610da84da05ee8525c96e8bfb953d0c1cfbec175e017a18e",
    "n_plus": "f312bd4c0b826e63dd7d759ef11fdd41ad8a0933993649cdc1ec233756be0428",
    "sum_ci": "ac0175667b4d38fbfb5369c71edd482c857634f2ae0e73d6e69d0dc41adb0d2d",
}


@pytest.mark.parametrize(
    "name, fn",
    [
        ("selectivity_ci", selectivity_ci),
        ("count_ci", count_ci),
        ("n_plus", lambda m, r, R, d: (n_plus(m, r, R, d),)),
    ],
)
def test_grid_bytes_pinned(name, fn):
    assert _grid_digest(fn) == GRID_DIGESTS[name]


def test_sum_ci_grid_bytes_pinned():
    assert _sum_grid_digest() == GRID_DIGESTS["sum_ci"]
