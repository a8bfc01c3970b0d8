"""End-to-end tests of the FastFrame scan engine.

The central invariants, per the paper's evaluation protocol (§5.3):

* every approximate run's decision matches the exact answer computed by
  DuckDB over the same data (delta=1e-15 makes failures effectively
  impossible, and any violation here is an engine bug, not bad luck);
* an exact run through the engine reproduces the Spark/DuckDB ground
  truth aggregates;
* cost accounting is sane (blocks fetched bounded, strategies consistent).
"""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.fastframe import engine
from repro.fastframe import queries as Q
from repro.fastframe.engine import EngineConfig, prepare, run_query
from repro.oracle import assert_equivalent

ROUND_ROWS = 2_000  # small rounds so tiny test data still exercises OptStop

ALL_BOUNDERS = [
    ("hoeffding", False),
    ("hoeffding", True),
    ("bernstein", False),
    ("bernstein", True),
]


def _cfg(**kw):
    kw.setdefault("round_rows", ROUND_ROWS)
    return EngineConfig(**kw)


@pytest.fixture(scope="module")
def truth(scramble):
    flights = flights_pandas(scramble)
    return {
        name: exact_decision(Q.ALL_QUERIES[name](), flights)
        for name in Q.ALL_QUERIES
    }


# --- exact engine vs ground truth -----------------------------------------

def test_exact_engine_matches_spark_groupby(scramble, flights_pdf):
    spec = Q.fq9()
    res = run_query(scramble, spec, _cfg(bounder="exact", strategy="scan"))
    import pandas as pd

    got_pdf = pd.DataFrame(
        {"Airline": [g[0] for g in res.groups], "avg": res.est}
    )
    got = scramble.df.sparkSession.createDataFrame(got_pdf)
    assert_equivalent(
        got,
        "SELECT Airline, AVG(DepDelay) AS avg FROM flights GROUP BY Airline",
        flights=flights_pdf,
    )


def test_exact_engine_fetches_every_eligible_block(scramble):
    spec = Q.fq9()
    prep = prepare(scramble, spec)
    res = run_query(scramble, spec, _cfg(bounder="exact", strategy="scan"))
    assert res.blocks_fetched == int(prep.static_mask.sum())
    assert res.exhausted_all


def test_exact_engine_respects_predicate_bitmap(scramble):
    spec = Q.fq1()  # Origin = 'ORD' is bitmap-indexable
    prep = prepare(scramble, spec)
    res = run_query(scramble, spec, _cfg(bounder="exact", strategy="scan"))
    assert res.blocks_fetched == int(prep.static_mask.sum())
    assert res.blocks_fetched < scramble.n_blocks  # some blocks skipped


# --- approximate correctness across all queries and bounders --------------

@pytest.mark.parametrize("bounder,rt", ALL_BOUNDERS)
@pytest.mark.parametrize("name", sorted(Q.ALL_QUERIES))
def test_all_queries_all_bounders_correct(scramble, truth, name, bounder, rt):
    spec = Q.ALL_QUERIES[name]()
    res = run_query(
        scramble, spec, _cfg(bounder=bounder, range_trim=rt)
    )
    assert decision_correct(spec, res, truth[name]), (
        f"{name} {bounder} rt={rt}: {res.decision!r} vs {truth[name]!r}"
    )


@pytest.mark.parametrize("strategy", ["scan", "active_sync", "active_peek"])
@pytest.mark.parametrize("name", ["F-q2", "F-q5", "F-q9"])
def test_strategies_all_correct(scramble, truth, name, strategy):
    spec = Q.ALL_QUERIES[name]()
    res = run_query(
        scramble, spec, _cfg(bounder="bernstein", range_trim=True, strategy=strategy)
    )
    assert decision_correct(spec, res, truth[name])


def test_intervals_enclose_true_group_means(scramble, flights_pdf):
    """delta=1e-15 -> every reported CI must contain the true group AVG."""
    spec = Q.fq2()
    res = run_query(scramble, spec, _cfg(bounder="bernstein", range_trim=True))
    true_means = flights_pdf.groupby("Airline").DepDelay.mean()
    for g, lo, hi in zip(res.groups, res.lo, res.hi):
        mu = true_means[g[0]]
        assert lo - 1e-9 <= mu <= hi + 1e-9


# --- sampling-strategy mechanics ------------------------------------------

def test_sync_and_peek_fetch_identical_blocks(scramble):
    spec = Q.fq5()
    r_sync = run_query(
        scramble, spec, _cfg(bounder="bernstein", strategy="active_sync")
    )
    r_peek = run_query(
        scramble, spec, _cfg(bounder="bernstein", strategy="active_peek")
    )
    assert r_sync.blocks_fetched == r_peek.blocks_fetched
    assert r_sync.rows_scanned == r_peek.rows_scanned
    assert r_sync.rounds == r_peek.rounds
    np.testing.assert_array_equal(r_sync.lo, r_peek.lo)
    np.testing.assert_array_equal(r_sync.hi, r_peek.hi)


def test_active_fetches_at_most_scan(scramble):
    for name in ("F-q2", "F-q5", "F-q9"):
        spec = Q.ALL_QUERIES[name]()
        r_scan = run_query(scramble, spec, _cfg(bounder="bernstein", strategy="scan"))
        r_peek = run_query(
            scramble, spec, _cfg(bounder="bernstein", strategy="active_peek")
        )
        assert r_peek.blocks_fetched <= r_scan.blocks_fetched


def test_rows_scanned_bounded_by_dataset(scramble):
    spec = Q.fq5()
    res = run_query(scramble, spec, _cfg(bounder="hoeffding"))
    assert res.rows_scanned <= scramble.n_rows
    assert res.blocks_fetched <= scramble.n_blocks


def test_start_block_wraps_and_stays_correct(scramble, truth):
    spec = Q.fq9()
    for start in (0, scramble.n_blocks // 2, scramble.n_blocks - 1):
        res = run_query(
            scramble,
            spec,
            _cfg(bounder="bernstein", range_trim=True, start_block=start),
        )
        assert decision_correct(spec, res, truth["F-q9"])


def test_index_probes_counted_for_active_strategies(scramble):
    spec = Q.fq5()
    r_scan = run_query(scramble, spec, _cfg(bounder="bernstein", strategy="scan"))
    r_peek = run_query(
        scramble, spec, _cfg(bounder="bernstein", strategy="active_peek")
    )
    assert r_scan.index_probes == 0
    assert r_peek.index_probes > 0


# --- bounder cost sanity ---------------------------------------------------
# NOTE: strict per-query orderings (Bernstein <= Hoeffding, RT <= plain)
# are *typical*, not guaranteed: at small m Bernstein's worse constants
# (kappa = 4.45, log(5/delta) vs log(1/delta)) can make it looser, which
# the paper's large-m regime hides. The benchmark harness reports the
# orderings; here we assert only invariants that always hold.

def test_approximate_never_exceeds_exact_blocks(scramble):
    for name in ("F-q1", "F-q2", "F-q4", "F-q9"):
        spec = Q.ALL_QUERIES[name]()
        exact = run_query(scramble, spec, _cfg(bounder="exact", strategy="scan"))
        for bounder, rt in ALL_BOUNDERS:
            res = run_query(scramble, spec, _cfg(bounder=bounder, range_trim=rt))
            assert res.blocks_fetched <= exact.blocks_fetched


def test_rt_fetches_no_more_than_plain_on_easy_query(scramble):
    """F-q4's threshold gap is huge, so RT's tighter lower bound can only
    help (both variants stop long before the small-m crossover bites)."""
    spec = Q.fq4()
    plain = run_query(scramble, spec, _cfg(bounder="bernstein", range_trim=False))
    rt = run_query(scramble, spec, _cfg(bounder="bernstein", range_trim=True))
    assert rt.blocks_fetched <= plain.blocks_fetched + ROUND_ROWS // 25


# --- result bookkeeping ----------------------------------------------------

def test_result_per_group_frame(scramble):
    res = run_query(scramble, Q.fq2(), _cfg(bounder="bernstein"))
    pg = res.per_group()
    assert set(pg.columns) == {"group", "m", "est", "lo", "hi"}
    assert (pg.lo <= pg.est).all() and (pg.est <= pg.hi).all()


def test_prep_cached_across_bounders(scramble):
    spec = Q.fq9()
    p1 = prepare(scramble, spec)
    p2 = prepare(scramble, Q.fq9())
    assert p1 is p2


def test_empty_view_groups_dropped(scramble):
    """F-q6 pair groups absent after the filter must not appear."""
    spec = Q.fq6()
    res = run_query(scramble, spec, _cfg(bounder="bernstein"))
    assert all(m > 0 for m in res.m)


def test_unknown_strategy_raises(scramble, monkeypatch):
    def no_prep(*_):
        raise AssertionError("config must be checked before the Spark prep")

    monkeypatch.setattr(engine, "prepare", no_prep)
    for bounder, strategy in [
        ("bernstein", "bogus"),
        ("exact", "bogus"),
        ("bogus", "active_peek"),
    ]:
        with pytest.raises(ValueError):
            run_query(scramble, Q.fq9(), _cfg(bounder=bounder, strategy=strategy))


def test_fq4_decision_value(scramble, flights_pdf):
    spec = Q.fq4()
    res = run_query(scramble, spec, _cfg(bounder="bernstein", range_trim=True))
    exact = int(flights_pdf[flights_pdf.Origin == "ORD"].DepDelay.mean() > 10)
    assert res.decision == exact
