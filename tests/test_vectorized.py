"""The vectorized NumPy CI path must agree with the scalar references.

Plain CIs are compared with the scalar ``Bounder.ci``; range-trimmed CIs
with the paper's streaming Algorithm 6 (``RangeTrim(inner).ci``) run
over the same values. A scramble prefix is a without-replacement sample
of every group, so the range-trimmed CI of each group's prefix
statistics must also contain the group's true AVG.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.core import vectorized as V
from repro.core.bounders import EmpiricalBernsteinSerfling, HoeffdingSerfling
from repro.core.range_trim import RangeTrim
from repro.core.stats import from_values
from repro.experiments.ground_truth import flights_pandas

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


@pytest.fixture(scope="module")
def prefix(scramble):
    return flights_pandas(scramble).head(8000)[["Airline", "DepDelay"]]


def _prefix_ci(values: pd.Series, airline: pd.Series, kind, a, b, N, delta):
    """Range-trimmed (1-delta) CI per airline from a pandas groupby."""
    g = values.groupby(airline)
    stats = g.agg(["count", "sum", "min", "max"])
    stats["sq"] = (values**2).groupby(airline).sum()
    lo, hi = V.ci(
        kind,
        stats["count"].to_numpy(float),
        stats["sum"].to_numpy(),
        stats["sq"].to_numpy(),
        stats["min"].to_numpy(),
        stats["max"].to_numpy(),
        a,
        b,
        N,
        delta,
        True,
    )
    return pd.DataFrame({"ci_lo": lo, "ci_hi": hi}, index=stats.index)


@pytest.mark.parametrize("bounder", ["hoeffding", "bernstein"])
def test_intervals_cover_true_group_means(scramble, prefix, flights_pdf, bounder):
    """With delta=1e-9 every group CI must contain the true group AVG."""
    a, b = scramble.catalog.bounds("DepDelay")
    true_sizes = flights_pdf.groupby("Airline").DepDelay.count()
    out = _prefix_ci(
        prefix.DepDelay, prefix.Airline, bounder, a, b, int(true_sizes.max()), 1e-9
    )
    assert len(out) > 1
    for airline, mu in flights_pdf.groupby("Airline").DepDelay.mean().items():
        if airline in out.index:
            row = out.loc[airline]
            assert row.ci_lo - 1e-9 <= mu <= row.ci_hi + 1e-9


def _grid_stats():
    """Per-group statistics the engine can pass: sizes m in {0, 1, 2} and
    past N/2 (up to m = N), negative and positive means, tied samples
    (zero variance), and an empty group's +-inf extremes."""
    rng = np.random.default_rng(20_241)
    cols = {k: [] for k in ("m", "total", "total_sq", "vmin", "vmax", "N")}
    for i, m in enumerate([0, 1, 2, 3, 7, 40, 333, 999, 1000] * 4):
        vals = np.round(rng.normal(rng.uniform(-45, 45), rng.uniform(0.5, 40), m), 2)
        vals = np.clip(vals, A, B)
        if i % 5 == 3 and m:
            vals[:] = vals[0]
        # N = m, past N/2, or far above it (an N+ bound is an integer).
        N = float(max(1, np.ceil(max(m, 1) * (1.0, 1.3, 2.5, 40.0)[i % 4])))
        cols["m"].append(float(m))
        cols["total"].append(float(np.add.reduce(vals)) if m else 0.0)
        cols["total_sq"].append(float(np.add.reduce(vals * vals)) if m else 0.0)
        cols["vmin"].append(float(vals.min()) if m else np.inf)
        cols["vmax"].append(float(vals.max()) if m else -np.inf)
        cols["N"].append(N)
    return {k: np.array(v) for k, v in cols.items()}


def _grid_digest(kind, rt):
    """sha256 of the CIs of every grid group, at two budgets: all groups in
    one call, then each group alone as a size-1 array (a one-view query)."""
    s = _grid_stats()
    h = hashlib.sha256()
    for delta in (0.5, 1e-17):
        args = (s["m"], s["total"], s["total_sq"], s["vmin"], s["vmax"])
        for lo, hi in [V.ci(kind, *args, A, B, s["N"], delta, rt)] + [
            V.ci(kind, *(x[i : i + 1] for x in args), A, B, s["N"][i : i + 1], delta, rt)
            for i in range(s["m"].size)
        ]:
            h.update(lo.tobytes() + hi.tobytes())
    return h.hexdigest()


#: ``_grid_digest`` per bounder, pinned: the engine's intervals are pinned
#: byte for byte, so a rewrite of these formulas must keep their bytes.
GRID_DIGESTS = {
    ("hoeffding", False): "0a482f76438f216ecca90e8c65d067f206495dd6b3b130de297438d898db81b1",
    ("hoeffding", True): "634e391a785c6d703978fe1a6bcf1a9ff3206fe1f839a6c343f288b286dc369f",
    ("bernstein", False): "15df300f93edb73d31b3fdc17948dacc3bfa123a76faa9bbdc1c3390ff803320",
    ("bernstein", True): "ee301e1ff375076da081fef722106d17f78e352d144e4b61d8c8e8788a2aa016",
}


@pytest.mark.parametrize("kind", ["hoeffding", "bernstein"])
@pytest.mark.parametrize("rt", [False, True])
def test_grid_bytes_pinned(kind, rt):
    assert _grid_digest(kind, rt) == GRID_DIGESTS[kind, rt]
