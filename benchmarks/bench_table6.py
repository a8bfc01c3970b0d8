"""Benchmarks regenerating paper Table 6 (sampling-strategy ablation).

GROUP BY queries F-q3, F-q5, F-q6, F-q7, F-q8 under Scan / ActiveSync /
ActivePeek, all with the Bernstein+RT bounder — exactly the paper's
setup. All three are one cyclic block walk; Sync and Peek differ only in
its batch size: ActiveSync probes the bitmaps one block at a time,
ActivePeek once per 1024-block lookahead window, so both fetch identical
blocks.
"""
from __future__ import annotations

import pytest

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.experiments.table6 import STRATEGY_LABELS, TABLE6_QUERIES
from repro.fastframe.engine import EngineConfig, prepare, run_query
from repro.fastframe.queries import ALL_QUERIES


@pytest.mark.parametrize(
    "strategy", ["scan", "active_sync", "active_peek"], ids=lambda s: STRATEGY_LABELS[s]
)
@pytest.mark.parametrize("query", TABLE6_QUERIES)
def test_table6_cell(benchmark, bench_scramble, collector, query, strategy):
    spec = ALL_QUERIES[query]()
    prepare(bench_scramble, spec)
    truth = exact_decision(spec, flights_pandas(bench_scramble))
    cfg = EngineConfig(bounder="bernstein", range_trim=True, strategy=strategy)

    res = benchmark.pedantic(
        run_query, args=(bench_scramble, spec, cfg), rounds=1, iterations=1
    )
    benchmark.group = f"table6:{query}"
    benchmark.extra_info.update(
        {"blocks": res.blocks_fetched, "probes": res.index_probes}
    )
    ok = decision_correct(spec, res, truth)
    collector.table6.append(
        {
            "query": query,
            "strategy": STRATEGY_LABELS[strategy],
            "wall_s": res.wall_seconds,
            "blocks": res.blocks_fetched,
            "index_probes": res.index_probes,
            "correct": ok,
        }
    )
    assert ok, f"{query} {STRATEGY_LABELS[strategy]}: wrong decision"
