"""Smoke tests for the Table 5 / Table 6 experiment harness.

At the tiny test scale (SF=0.005) absolute speedups are meaningless;
what must hold: every run is correct, the tables are well-formed and
share one schema, and cost accounting is internally consistent.
"""
from __future__ import annotations

import csv
import dataclasses
import pathlib

import numpy as np
import pytest

from repro.experiments import ablation
from repro.experiments.ablation import COLUMNS, format_ablation, timed_runs
from repro.experiments.table5 import (
    BOUNDER_CONFIGS,
    PAPER_TABLE5,
    TITLE as TABLE5_TITLE,
    run_table5,
)
from repro.experiments.table6 import (
    PAPER_TABLE6,
    TABLE6_QUERIES,
    TITLE as TABLE6_TITLE,
    run_table6,
)
from repro.fastframe import queries as Q
from repro.fastframe.engine import EngineConfig, run_query

T5_QUERIES = ["F-q1", "F-q2", "F-q4", "F-q9"]  # keep the test run fast
RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def t5(scramble):
    return run_table5(scramble, queries=T5_QUERIES, round_rows=2000)


@pytest.fixture(scope="module")
def t6(scramble):
    return run_table6(scramble, queries=["F-q5", "F-q3"], round_rows=2000)


def test_table5_shape(t5):
    # one Exact row + one row per bounder, per query
    assert len(t5) == len(T5_QUERIES) * (1 + len(BOUNDER_CONFIGS))
    assert set(t5["query"]) == set(T5_QUERIES)


def test_table5_all_correct(t5):
    assert t5.correct.all()


def test_table5_speedup_consistency(t5):
    exact = t5[t5.approach == "Exact"].set_index("query")
    approx = t5[t5.approach != "Exact"]
    assert (approx.base_blocks == exact.blocks[approx["query"]].to_numpy()).all()
    expected = approx.base_blocks / approx.blocks
    assert (abs(approx.speedup_blocks - expected) < 1e-9).all()
    # End to end is measured against the Spark exact query.
    assert (t5.spark_exact_s > 0).all()
    assert (abs(t5.speedup_e2e - t5.spark_exact_s / t5.e2e_s) < 1e-9).all()
    # The harness's timing contains the engine's own.
    assert (t5.e2e_s >= t5.wall_s).all()


def test_table5_exact_rows_are_baseline(t5):
    exact = t5[t5.approach == "Exact"]
    assert (exact.speedup_wall == 1.0).all()
    assert (exact.speedup_blocks == 1.0).all()
    assert exact.paper_speedup.isna().all()


def test_table5_format(t5):
    text = format_ablation(t5, TABLE5_TITLE)
    assert "Bernstein+RT" in text and "F-q1" in text
    assert "WRONG" not in text


def test_paper_table5_transcription_complete():
    assert set(PAPER_TABLE5) == {f"F-q{i}" for i in range(1, 10)}
    for row in PAPER_TABLE5.values():
        assert {"exact_s", "Hoeffding", "Hoeffding+RT", "Bernstein", "Bernstein+RT"} <= set(row)


def test_table6_shape(t6):
    assert len(t6) == 2 * 3  # 2 queries x 3 strategies
    assert set(t6.approach) == {"Scan", "ActiveSync", "ActivePeek"}


def test_table6_all_correct(t6):
    assert t6.correct.all()


def test_table6_sync_peek_same_blocks(t6):
    for _, sub in t6.groupby("query"):
        sync = sub[sub.approach == "ActiveSync"].blocks.iloc[0]
        peek = sub[sub.approach == "ActivePeek"].blocks.iloc[0]
        assert sync == peek


def test_table6_queries_match_paper():
    assert TABLE6_QUERIES == list(PAPER_TABLE6)


def test_table6_format(t6):
    text = format_ablation(t6, TABLE6_TITLE)
    assert "ActivePeek" in text and "WRONG" not in text


def test_tables_share_one_schema(t5, t6):
    assert list(t5.columns) == COLUMNS
    assert list(t6.columns) == COLUMNS
    # Table 6 has no Spark reference: end to end is over Scan's run_query.
    assert t6.spark_exact_s.isna().all()
    scan = t6[t6.approach == "Scan"].set_index("query").e2e_s[t6["query"]]
    assert (abs(t6.speedup_e2e - scan.to_numpy() / t6.e2e_s) < 1e-9).all()


def test_committed_results_have_the_one_schema():
    paths = sorted(RESULTS.glob("**/table[56]*.csv"))
    assert paths
    for path in paths:
        assert path.name in ("table5.csv", "table6.csv"), path
        with path.open(newline="") as f:
            assert next(csv.reader(f)) == COLUMNS, path


def test_format_flags_wrong_run_and_shows_paper_speedup(t6):
    wrong = t6.copy()
    wrong.loc[wrong.index[-1], "correct"] = False
    text = format_ablation(wrong, TABLE6_TITLE)
    assert "paper_speedup" in text
    row = wrong.iloc[-1]
    assert f"{row.paper_speedup:.2f}x" in text
    lines = [ln for ln in text.splitlines() if "WRONG" in ln]
    assert len(lines) == 1 and row.approach in lines[0]
    assert f"correctness: {len(t6) - 1}/{len(t6)}" in text


def test_timed_runs_report_medians_and_check_repeats(scramble, monkeypatch):
    spec, config = Q.fq9(), EngineConfig(round_rows=2000)
    res = run_query(scramble, spec, config)
    walls = iter([5.0, 1.0, 4.0, 2.0, 3.0])
    monkeypatch.setattr(
        ablation,
        "run_query",
        lambda *_: dataclasses.replace(res, wall_seconds=next(walls)),
    )
    (got, e2e), = timed_runs(scramble, spec, {"B+RT": config}).values()
    assert got.wall_seconds == 3.0 and e2e > 0
    assert got.blocks_fetched == res.blocks_fetched

    # A repeat that differs in any other field is an error.
    bumped = dataclasses.replace(res, lo=np.nextafter(res.lo, np.inf))
    runs = iter([res] * (ablation.TIMING_RUNS - 1) + [bumped])
    monkeypatch.setattr(ablation, "run_query", lambda *_: next(runs))
    with pytest.raises(RuntimeError, match="B\\+RT: repeated runs differ in lo"):
        timed_runs(scramble, spec, {"B+RT": config})


def test_timed_runs_interleave_configs(scramble, monkeypatch):
    calls = []
    res = run_query(scramble, Q.fq9(), EngineConfig(round_rows=2000))

    def record(_, __, config):
        calls.append(config.strategy)
        return res

    monkeypatch.setattr(ablation, "run_query", record)
    configs = {s: EngineConfig(strategy=s) for s in ("scan", "active_peek")}
    timed_runs(scramble, Q.fq9(), configs)
    assert calls == ["scan", "active_peek"] * ablation.TIMING_RUNS
