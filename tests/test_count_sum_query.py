"""Engine-level COUNT / SUM queries (paper §4.1), oracle-checked."""
from __future__ import annotations

import pytest

from repro.fastframe import queries as Q
from repro.fastframe.count_sum_query import run_count_sum

ROUND = 2_000


def _spec(pred=()):
    return Q.QuerySpec(
        name="scalar", stopping=Q.RelWidth(0.1), predicate=pred, group_cols=()
    )


def test_count_exhaustive_is_exact(scramble, flights_pdf):
    res = run_count_sum(scramble, _spec(), "COUNT", round_rows=ROUND)
    assert res.exhausted
    assert res.estimate == len(flights_pdf)
    assert res.lo == res.hi == res.estimate


def test_count_with_predicate(scramble, flights_pdf):
    spec = _spec((Q.Eq("Origin", "ORD"),))
    res = run_count_sum(scramble, spec, "COUNT", round_rows=ROUND)
    truth = int((flights_pdf.Origin == "ORD").sum())
    assert res.lo - 1e-6 <= truth <= res.hi + 1e-6
    assert res.exhausted and res.estimate == truth


def test_predicate_does_not_skip_blocks(scramble):
    """Lemma 5 needs an unskipped scan: a bitmap-indexable predicate must
    not let the COUNT/SUM scan skip blocks."""
    spec = _spec((Q.Eq("Origin", "ORD"),))
    for agg in ("COUNT", "SUM"):
        res = run_count_sum(scramble, spec, agg, round_rows=ROUND)
        assert res.exhausted
        assert res.blocks_fetched == scramble.n_blocks


def test_count_early_stop_encloses_truth(scramble, flights_pdf):
    spec = _spec((Q.Eq("Origin", "ORD"),))
    res = run_count_sum(
        scramble, spec, "COUNT", round_rows=ROUND, rel_eps=0.8, delta=1e-6
    )
    truth = int((flights_pdf.Origin == "ORD").sum())
    assert res.lo - 1e-6 <= truth <= res.hi + 1e-6


def test_sum_exhaustive_is_exact(scramble, flights_pdf):
    res = run_count_sum(scramble, _spec(), "SUM", round_rows=ROUND)
    assert res.exhausted
    assert res.estimate == pytest.approx(flights_pdf.DepDelay.sum(), rel=1e-9)


def test_sum_ci_encloses_truth_early_stop(scramble, flights_pdf):
    spec = _spec((Q.Eq("Origin", "ORD"),))
    res = run_count_sum(
        scramble, spec, "SUM", round_rows=ROUND, rel_eps=2.0, delta=1e-9
    )
    truth = flights_pdf[flights_pdf.Origin == "ORD"].DepDelay.sum()
    assert res.lo - 1e-6 <= truth <= res.hi + 1e-6


def test_sum_abs_eps_stopping(scramble):
    res_loose = run_count_sum(
        scramble, _spec(), "SUM", round_rows=ROUND, abs_eps=1e12
    )
    res_tight = run_count_sum(scramble, _spec(), "SUM", round_rows=ROUND)
    assert res_loose.blocks_fetched <= res_tight.blocks_fetched


def test_invalid_agg_rejected(scramble):
    with pytest.raises(ValueError):
        run_count_sum(scramble, _spec(), "AVG")


def test_grouped_spec_rejected(scramble):
    spec = Q.QuerySpec(
        name="g", stopping=Q.RelWidth(0.1), group_cols=("Airline",)
    )
    with pytest.raises(ValueError):
        run_count_sum(scramble, spec, "COUNT")


def test_cost_accounting(scramble):
    res = run_count_sum(scramble, _spec(), "COUNT", round_rows=ROUND)
    assert res.blocks_fetched == scramble.n_blocks
    assert res.rows_scanned == scramble.n_rows
