"""Benchmarks regenerating paper Table 5 (bounder ablation, F-q1..F-q9).

One benchmark per (query, approach) cell; pytest-benchmark groups them
per query so each group's table is a Table-5 row. The measured callable
is one ``run_query``: the query's NumPy prep from the scramble's column
store plus the scan loop. The scramble, its column store and the column
bitmaps are built once beforehand, mirroring the paper's offline
scramble/index construction; the recorded ``wall_s`` is the scan loop.

Every run's decision is asserted against DuckDB ground truth, so the
benchmark doubles as the paper's correctness experiment.
"""
from __future__ import annotations

import pytest

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.experiments.table5 import BOUNDER_CONFIGS
from repro.fastframe.engine import EngineConfig, run_query
from repro.fastframe.queries import ALL_QUERIES

QUERIES = [f"F-q{i}" for i in range(1, 10)]
APPROACHES = [("Exact", "exact", False)] + BOUNDER_CONFIGS


def _config(label, bounder, rt):
    if bounder == "exact":
        return EngineConfig(bounder="exact", strategy="scan")
    return EngineConfig(bounder=bounder, range_trim=rt, strategy="active_peek")


@pytest.mark.parametrize("approach", APPROACHES, ids=[a[0] for a in APPROACHES])
@pytest.mark.parametrize("query", QUERIES)
def test_table5_cell(benchmark, bench_scramble, collector, query, approach):
    label, bounder, rt = approach
    spec = ALL_QUERIES[query]()
    truth = exact_decision(spec, flights_pandas(bench_scramble))
    cfg = _config(label, bounder, rt)

    res = benchmark.pedantic(
        run_query, args=(bench_scramble, spec, cfg), rounds=1, iterations=1
    )
    benchmark.group = f"table5:{query}"
    benchmark.extra_info.update(
        {"blocks": res.blocks_fetched, "rows": res.rows_scanned}
    )
    ok = decision_correct(spec, res, truth)
    collector.table5.append(
        {
            "query": query,
            "approach": label,
            "wall_s": res.wall_seconds,
            "blocks": res.blocks_fetched,
            "rows_scanned": res.rows_scanned,
            "rounds": res.rounds,
            "correct": ok,
        }
    )
    assert ok, f"{query} {label}: wrong decision {res.decision!r}"
