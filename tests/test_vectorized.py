"""The vectorized NumPy CI path must agree with the scalar references.

Plain CIs are compared with the scalar ``Bounder.ci``; range-trimmed CIs
with the paper's streaming Algorithm 6 (``RangeTrim(inner).ci``) run
over the same values. A scramble prefix is a without-replacement sample
of every group, so the range-trimmed CI of each group's prefix
statistics must also contain the group's true AVG.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

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


@pytest.fixture(scope="module")
def prefix(scramble):
    return (
        scramble.df.filter(F.col("row_id") < 8000)
        .select("Airline", "DepDelay")
        .toPandas()
    )


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
