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

import dataclasses

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.stopping import WidthTarget
from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.fastframe import engine
from repro.fastframe import queries as Q
from repro.fastframe.bitmap import build_column_bitmap, get_column_bitmap
from repro.fastframe.count_sum_query import run_count_sum
from repro.fastframe.engine import EngineConfig, prepare, run_query
from repro.fastframe.scramble import build_store, scramble_from_store, shuffle
from repro.oracle import assert_equivalent
from repro.synth_data import flights_table
from tests.conftest import frame_scramble

ROUND_ROWS = 2_000  # small rounds so tiny test data still exercises OptStop
STRATEGIES = ("scan", "active_sync", "active_peek")
BITMAP_COLUMNS = ("Origin", "Airline", "DayOfWeek")

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


def test_exact_mode_runs_no_round_loop(scramble, truth, monkeypatch):
    """Exact answers come from one bincount over the eligible blocks' rows,
    not from the block walk, so they cannot depend on the start block."""

    def no_walk(*_, **__):
        raise AssertionError("an exact query walked the blocks")

    monkeypatch.setattr(engine._BlockPicker, "pick", no_walk)
    for name, make in Q.ALL_QUERIES.items():
        spec = make()
        eligible = int(prepare(scramble, spec).static_mask.sum())
        results = [
            run_query(scramble, spec, _cfg(bounder="exact", start_block=start))
            for start in (0, scramble.n_blocks // 3)
        ]
        for res in results:
            assert decision_correct(spec, res, truth[name]), name
            assert res.blocks_fetched == eligible
            assert (res.rounds, res.index_probes, res.exhausted_all) == (1, 0, True)
        np.testing.assert_array_equal(results[0].est, results[1].est)


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


def test_view_size_bound_holds_under_active_scanning(monkeypatch):
    """Every ``N`` the engine gives ``vectorized.ci`` is at least the
    view's size, also when active scanning skips an inactive group's
    blocks. F-q5 under ActivePeek at delta = 0.5, from 40 start blocks
    of a scramble built without Spark: here Theorem 3's ``N+`` from the
    biased sample falls below a view's size in about one run in five."""
    sc = scramble_from_store(build_store(shuffle(flights_table(sf=0.05, seed=11), 12)))
    spec = Q.fq5()
    prep = prepare(sc, spec)
    view_size = np.bincount(prep.gid[prep.rows], minlength=len(prep.groups))
    ci = engine.vectorized.ci
    too_small = []

    def checked_ci(kind, m, total, total_sq, vmin, vmax, a, b, N, *rest):
        too_small.append(bool((N < view_size).any()))
        return ci(kind, m, total, total_sq, vmin, vmax, a, b, N, *rest)

    monkeypatch.setattr(engine.vectorized, "ci", checked_ci)
    for bounder in ("hoeffding", "bernstein"):
        for start in range(0, sc.n_blocks, sc.n_blocks // 40):
            config = EngineConfig(
                bounder=bounder,
                strategy="active_peek",
                delta=0.5,
                round_rows=4_000,
                start_block=start,
            )
            run_query(sc, spec, config)
    assert too_small and not any(too_small)


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


def test_empty_view_groups_dropped(scramble):
    """F-q6 pair groups absent after the filter must not appear."""
    spec = Q.fq6()
    res = run_query(scramble, spec, _cfg(bounder="bernstein"))
    assert all(m > 0 for m in res.m)


def test_unknown_strategy_raises(scramble, monkeypatch):
    def no_prep(*_):
        raise AssertionError("config must be checked before the prep")

    monkeypatch.setattr(engine, "prepare", no_prep)
    for bounder, strategy, delta in [
        ("bernstein", "bogus", 1e-15),
        ("exact", "bogus", 1e-15),
        ("bogus", "active_peek", 1e-15),
        # delta must be a probability in (0, 1).
        ("bernstein", "active_peek", 3.0),
        ("bernstein", "active_peek", 10.0),
        ("bernstein", "active_peek", 0.0),
        ("bernstein", "active_peek", -1.0),
        ("exact", "scan", 1.0),
    ]:
        cfg = _cfg(bounder=bounder, strategy=strategy, delta=delta)
        with pytest.raises(ValueError):
            run_query(scramble, Q.fq9(), cfg)
    # A round reads at least one row.
    for round_rows in (0, -40_000):
        with pytest.raises(ValueError):
            run_query(scramble, Q.fq9(), _cfg(round_rows=round_rows))
    with pytest.raises(ValueError):
        run_count_sum(scramble, Q.fq1(), "SUM", _cfg(delta=10.0))


def test_fq4_decision_value(scramble, flights_pdf):
    spec = Q.fq4()
    res = run_query(scramble, spec, _cfg(bounder="bernstein", range_trim=True))
    exact = int(flights_pdf[flights_pdf.Origin == "ORD"].DepDelay.mean() > 10)
    assert res.decision == exact
    assert res.crossings == 0  # a < delta event


# --- the column store ------------------------------------------------------

SHORT_TAIL_ROWS = 1_013  # 40 full blocks and one of 13 rows


def test_short_last_block_matches_duckdb(flights_rows, spark):
    # The first tier-1 rows, shuffled, scrambled without Spark; DuckDB's
    # truth comes from the same rows.
    rows = shuffle(flights_rows.slice(0, SHORT_TAIL_ROWS), 3)
    sc = frame_scramble(rows, seed=3)
    flights = rows.to_pandas()
    assert sc.n_rows == SHORT_TAIL_ROWS and sc.rows_per_block[-1] == 13

    spec = Q.fq9()
    res = run_query(sc, spec, _cfg(bounder="exact", strategy="scan", round_rows=250))
    assert res.rows_scanned == sc.n_rows
    assert decision_correct(spec, res, exact_decision(spec, flights))
    got = pd.DataFrame({"Airline": [g[0] for g in res.groups], "avg": res.est})
    assert_equivalent(
        spark.createDataFrame(got),
        "SELECT Airline, AVG(DepDelay) AS avg FROM flights GROUP BY Airline",
        flights=flights,
    )

    view = Q.fq1()  # Origin = 'ORD'
    con = duckdb.connect()
    con.register("flights", flights)
    count, total = con.execute(
        f"SELECT COUNT(DepDelay), SUM(DepDelay) FROM flights{view.predicate_sql()}"
    ).fetchone()
    con.close()
    for agg, truth in (("COUNT", count), ("SUM", total)):
        r = run_count_sum(sc, view, agg, _cfg(round_rows=250))
        assert r.exhausted_all and r.rows_scanned == sc.n_rows
        assert r.est[0] == pytest.approx(truth, rel=1e-9)


@pytest.fixture(scope="module")
def block7_scramble(scramble):
    """The tier-1 scramble's rows in blocks of 7 rows: the last block holds 5."""
    return scramble_from_store(scramble.store, block_size=7, seed=scramble.seed)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_block7_queries_match_duckdb(block7_scramble, truth, strategy):
    sc = block7_scramble
    assert (sc.n_rows, sc.n_blocks, sc.rows_per_block[-1]) == (30_000, 4_286, 5)
    for name, make in Q.ALL_QUERIES.items():
        spec = make()
        res = run_query(sc, spec, _cfg(strategy=strategy, delta=1e-15))
        assert decision_correct(spec, res, truth[name]), name


def test_block7_count_sum_exhaustive_equal_duckdb(block7_scramble, scramble):
    sc = block7_scramble
    con = duckdb.connect()
    con.register("flights", flights_pandas(scramble))
    for view in _views():
        count, total = con.execute(
            f"SELECT COUNT({view.agg_col}), SUM({view.agg_col}) "
            f"FROM flights{view.predicate_sql()}"
        ).fetchone()
        for agg, truth in (("COUNT", count), ("SUM", total)):
            r = run_count_sum(sc, view, agg, _cfg())
            assert r.exhausted_all and r.rows_scanned == sc.n_rows
            # A float SUM depends on the order it adds in, which differs
            # from DuckDB's; a COUNT is exact.
            rel = 1e-12 if agg == "SUM" else 0
            assert r.est[0] == pytest.approx(truth, rel=rel, abs=0), (view.name, agg)
    con.close()


class _NoSpark:
    """Stands in for the scramble's DataFrame: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a query touched the Spark DataFrame (.{name})")


def test_queries_run_without_spark(scramble, monkeypatch):
    for col in BITMAP_COLUMNS:
        get_column_bitmap(scramble, col)
    cfg = _cfg(bounder="bernstein", range_trim=True)
    views = [Q.fq1(), Q.QuerySpec(name="all", stopping=Q.RelWidth(0.1))]

    def run_all():
        return [
            run_query(scramble, make(), cfg) for make in Q.ALL_QUERIES.values()
        ] + [
            run_count_sum(scramble, v, agg, _cfg(), rel_eps=0.05)
            for v in views
            for agg in ("COUNT", "SUM")
        ]

    before = run_all()
    monkeypatch.setattr(scramble, "df", _NoSpark())
    after = run_all()
    for want, got in zip(before, after):
        for f in dataclasses.fields(want):
            if f.name != "wall_seconds":
                a, b = getattr(want, f.name), getattr(got, f.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


# --- prep from the column bitmap index ------------------------------------

def _views():
    """Each F-query's view without its GROUP BY, once per distinct view."""
    views = []
    for make in Q.ALL_QUERIES.values():
        spec = dataclasses.replace(make(), group_cols=())
        if all(v.signature() != spec.signature() for v in views):
            views.append(spec)
    assert len(views) == 5
    return views


def test_prep_does_not_sort(scramble, monkeypatch):
    """Group keys come from the column bitmaps: a query's prep never sorts."""
    for col in BITMAP_COLUMNS:
        get_column_bitmap(scramble, col)

    def no_sort(*_, **__):
        raise AssertionError("a query's prep sorted")

    for name in ("unique", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, no_sort)
    for spec in [make() for make in Q.ALL_QUERIES.values()] + _views():
        prepare(scramble, spec)


def test_queries_leave_shared_index_unchanged(scramble):
    """Prep hands out the bitmaps' arrays; no query may write to them."""
    columns = {c: a.copy() for c, a in scramble.store.columns.items()}
    for make in Q.ALL_QUERIES.values():
        for strategy in STRATEGIES:
            run_query(scramble, make(), _cfg(strategy=strategy))
    for view in _views():
        for agg in ("COUNT", "SUM"):
            run_count_sum(scramble, view, agg, _cfg(), rel_eps=0.05)

    assert set(scramble.bitmaps) == set(BITMAP_COLUMNS)
    for bm in scramble.bitmaps.values():
        fresh = build_column_bitmap(scramble, bm.column)
        assert bm.values == fresh.values
        assert np.array_equal(bm.codes, fresh.codes)
        assert np.array_equal(bm.matrix, fresh.matrix)
    assert scramble.store.columns.keys() == columns.keys()
    for c, a in columns.items():
        assert np.array_equal(scramble.store.columns[c], a)


def _absent_views():
    """F-q1 and F-q7 filtered on values their columns do not hold."""
    return (
        Q.fq1(airport="ZZZ"),
        dataclasses.replace(Q.fq7(), predicate=(Q.Eq("Airline", "ZZ"),)),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_eq_on_absent_value_is_empty_view(scramble, strategy):
    """As in SQL, an Eq on a value the column lacks selects no row."""
    flights = flights_pandas(scramble)
    f1, f7 = _absent_views()
    con = duckdb.connect()
    con.register("flights", flights)
    avg = con.execute(f"SELECT AVG(DepDelay) FROM flights{f1.predicate_sql()}")
    assert avg.fetchone() == (None,)
    con.close()
    assert exact_decision(f7, flights) == []
    for bounder in ("bernstein", "exact"):
        cfg = _cfg(bounder=bounder, strategy=strategy)
        r1 = run_query(scramble, f1, cfg)
        assert r1.decision is None and r1.blocks_fetched == 0
        r7 = run_query(scramble, f7, cfg)
        assert r7.decision == [] and r7.blocks_fetched == 0


def test_count_sum_on_absent_value_is_zero(scramble):
    flights = flights_pandas(scramble)
    con = duckdb.connect()
    con.register("flights", flights)
    for view in _absent_views():
        spec = dataclasses.replace(view, group_cols=())
        count, total = con.execute(
            f"SELECT COUNT(DepDelay), SUM(DepDelay) FROM flights{spec.predicate_sql()}"
        ).fetchone()
        assert (count, total) == (0, None)  # SQL's SUM over no rows is NULL
        for agg in ("COUNT", "SUM"):
            r = run_count_sum(scramble, spec, agg, _cfg(), rel_eps=0.05)
            assert r.exhausted_all and r.m[0] == 0
            assert r.est[0] == r.lo[0] == r.hi[0] == 0.0
    con.close()


@pytest.mark.parametrize("agg", ["COUNT", "SUM"])
def test_count_sum_are_run_query_result_kinds(scramble, agg):
    """COUNT/SUM run in run_query's loop: an unskipped scan even under an
    indexable predicate and an active strategy; early-stopped intervals
    enclose DuckDB's value; run_count_sum returns the same run."""
    flights = flights_pandas(scramble)
    view = dataclasses.replace(Q.fq1(), group_cols=(), stopping=Q.RelWidth(0.5))
    spec = dataclasses.replace(view, result_kind=agg.lower())
    truth = exact_decision(spec, flights)
    assert truth > 0
    for delta in (0.5, 1e-6):
        res = run_query(scramble, spec, _cfg(strategy="active_peek", delta=delta))
        assert res.strategy == "scan" and res.index_probes == 0
        assert not res.exhausted_all and res.lo[0] < res.hi[0]
        assert decision_correct(spec, res, truth)

    spec = dataclasses.replace(spec, stopping=WidthTarget())
    res = run_query(scramble, spec, _cfg())
    assert res.blocks_fetched == scramble.n_blocks
    assert res.exhausted_all and res.est[0] == res.lo[0] == res.hi[0]
    assert res.est[0] == pytest.approx(truth, rel=1e-9)
    cs = run_count_sum(scramble, view, agg, _cfg())
    for f in dataclasses.fields(res):
        if f.name != "wall_seconds":
            a, b = getattr(res, f.name), getattr(cs, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
