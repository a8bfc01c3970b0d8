"""Per-group CIs over a scramble prefix enclose the true group averages.

A scramble prefix is a without-replacement sample of every group, so the
range-trimmed :func:`repro.core.vectorized.ci` of each group's prefix
statistics must contain the group's true AVG. This holds for the raw
column with its catalog bounds and, end to end for Appendix B, for an
aggregate over an expression of catalog-bounded columns: its derived
range bounds ``[inf f, sup f]`` are legal inputs for any range-based
bounder.
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import vectorized as V
from repro.core.expressions import convex_bounds, monotone_bounds

DELTA = 1e-9


@pytest.fixture(scope="module")
def prefix(scramble):
    return (
        scramble.df.filter(F.col("row_id") < 8000)
        .select("row_id", "Airline", "DepDelay")
        .toPandas()
    )


def _prefix_ci(values: pd.Series, airline: pd.Series, kind, a, b, N):
    """Range-trimmed (1-DELTA) CI per airline from a pandas groupby."""
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
        DELTA,
        True,
    )
    return pd.DataFrame({"ci_lo": lo, "ci_hi": hi}, index=stats.index)


def _assert_covers(out: pd.DataFrame, truth: pd.Series):
    assert len(out) > 1
    for airline, mu in truth.items():
        if airline in out.index:
            row = out.loc[airline]
            assert row.ci_lo - 1e-9 <= mu <= row.ci_hi + 1e-9


@pytest.mark.parametrize("bounder", ["hoeffding", "bernstein"])
def test_intervals_cover_true_group_means(scramble, prefix, flights_pdf, bounder):
    """With delta=1e-9 every group CI must contain the true group AVG."""
    a, b = scramble.catalog.bounds("DepDelay")
    true_sizes = flights_pdf.groupby("Airline").DepDelay.count()
    out = _prefix_ci(
        prefix.DepDelay, prefix.Airline, bounder, a, b, int(true_sizes.max())
    )
    _assert_covers(out, flights_pdf.groupby("Airline").DepDelay.mean())


def test_monotone_expression_ci(scramble, prefix, flights_pdf):
    """AVG(DepDelay / 10 + 5): monotone in DepDelay."""
    a0, b0 = scramble.catalog.bounds("DepDelay")
    f = lambda d: d / 10 + 5  # noqa: E731
    a, b = monotone_bounds(f, [(a0, b0)], increasing=[True])
    sample = prefix[prefix.row_id < 6000]
    out = _prefix_ci(
        f(sample.DepDelay), sample.Airline, "bernstein", a, b, len(flights_pdf)
    )
    _assert_covers(out, f(flights_pdf.DepDelay).groupby(flights_pdf.Airline).mean())


def test_convex_expression_ci(scramble, prefix, flights_pdf):
    """AVG(((DepDelay - 10) / 100)^2): convex, needs derived bounds."""
    a0, b0 = scramble.catalog.bounds("DepDelay")
    f = lambda d: ((d - 10) / 100) ** 2  # noqa: E731
    a, b = convex_bounds(f, [(a0, b0)])
    assert a == pytest.approx(0.0, abs=1e-6)
    sample = prefix[prefix.row_id < 6000]
    out = _prefix_ci(
        f(sample.DepDelay), sample.Airline, "bernstein", a, b, len(flights_pdf)
    )
    _assert_covers(out, f(flights_pdf.DepDelay).groupby(flights_pdf.Airline).mean())
    assert (out.ci_lo >= a - 1e-9).all() and (out.ci_hi <= b + 1e-9).all()
