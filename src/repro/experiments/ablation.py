"""The harness behind paper Tables 5 and 6: one ablation grid, one schema.

An ablation runs each query under a list of engine configurations, the
first of which is the baseline (Exact in Table 5, Scan in Table 6), and
reports every run as one row with the same columns (:data:`COLUMNS`):

* ``wall_s`` — the engine's own timing: the round loop, or for Exact its
  one masked ``bincount``. ``speedup_wall`` is the baseline's ``wall_s``
  over this one: a *loop-only* speedup.
* ``e2e_s`` — the whole ``run_query`` call timed by the harness, the
  query's prep from the column store included. The bitmap indexes,
  each column's and each GROUP BY's with its counts, are built once per
  scramble before the grid, as offline artifacts. ``speedup_e2e`` is an
  *end-to-end* speedup: the reference end-to-end time over ``e2e_s``.
  The reference is ``spark_exact_s`` where it is measured (Table 5),
  else the baseline run's ``e2e_s``.

  Each engine run is repeated :data:`TIMING_RUNS` times, and ``wall_s``
  and ``e2e_s`` are the medians. A query's configs run in turn, round
  after round, so that a speedup compares runs made seconds apart: the
  host's speed drifts over minutes. The repeats must agree in every
  other result field.
* ``spark_exact_s`` — the query's exact SQL on Spark over a cached
  one-partition copy of the scramble's rows, so that Spark, like the
  engine, runs on one core whatever the host's core count: after one
  untimed warm-up, it runs once in each of the engine runs' rounds,
  before the configs, and this is the median. NaN where not measured.
* ``blocks``, ``rows_scanned``, ``rounds``, ``index_probes`` — cost
  accounting; ``speedup_blocks`` is the baseline's blocks over this
  run's, the scale-insensitive speedup.
* ``paper_speedup`` — the paper's speedup for the same cell, NaN for the
  baseline row.
* ``correct`` — the decision equals the DuckDB ground truth (the paper's
  correctness metric).
"""
from __future__ import annotations

import dataclasses
import statistics
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np
import pandas as pd

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.fastframe.engine import EngineConfig, QueryResult, prepare, run_query
from repro.fastframe.queries import ALL_QUERIES, QuerySpec
from repro.fastframe.scramble import Scramble

if TYPE_CHECKING:
    from pyspark.sql import DataFrame

COLUMNS = [
    "query",
    "approach",
    "wall_s",
    "e2e_s",
    "spark_exact_s",
    "blocks",
    "rows_scanned",
    "rounds",
    "index_probes",
    "base_wall_s",
    "base_blocks",
    "speedup_wall",
    "speedup_e2e",
    "speedup_blocks",
    "paper_speedup",
    "correct",
]
TIMING_RUNS = 5
#: Partitions of the rows Spark's exact SQL reads: one core, as the engine.
EXACT_PARTITIONS = 1


def spark_exact_rows(scramble: Scramble) -> DataFrame:
    """The scramble's rows in :data:`EXACT_PARTITIONS` cached partitions."""
    rows = scramble.df.repartition(EXACT_PARTITIONS).persist()
    rows.count()
    return rows


def spark_exact_run(rows: DataFrame, spec: QuerySpec) -> Callable[[], object]:
    """The query's exact SQL on Spark over ``rows`` as a call to time,
    warmed up once."""
    rows.createOrReplaceTempView("flights")
    run = rows.sparkSession.sql(spec.exact_sql()).collect
    run()
    return run


def timed_runs(
    scramble: Scramble,
    spec: QuerySpec,
    configs: Mapping[str, EngineConfig],
    reference: Optional[Callable[[], object]] = None,
):
    """``({label: (result, e2e_s)}, reference_s)`` over :data:`TIMING_RUNS`
    rounds. Each round times ``reference`` (if given), then every config
    in turn, so a speedup compares runs made seconds apart. Each result
    carries its median ``wall_seconds``; ``e2e_s`` and ``reference_s``
    (NaN without a reference) are median call times."""
    reps: Dict[str, List] = {label: [] for label in configs}
    ref_times = []
    for _ in range(TIMING_RUNS):
        if reference is not None:
            t0 = time.perf_counter()
            reference()
            ref_times.append(time.perf_counter() - t0)
        for label, config in configs.items():
            t0 = time.perf_counter()
            res = run_query(scramble, spec, config)
            reps[label].append((res, time.perf_counter() - t0))
    out = {}
    for label, runs in reps.items():
        first = runs[0][0]
        for res, _ in runs[1:]:
            for field in dataclasses.fields(QueryResult):
                if field.name == "wall_seconds":
                    continue
                a, b = getattr(first, field.name), getattr(res, field.name)
                if isinstance(a, np.ndarray):
                    a, b = a.tobytes(), b.tobytes()
                if a != b:
                    raise RuntimeError(
                        f"{spec.name} {label}: repeated runs differ in {field.name}"
                    )
        wall = statistics.median(res.wall_seconds for res, _ in runs)
        e2e = statistics.median(e2e for _, e2e in runs)
        out[label] = (dataclasses.replace(first, wall_seconds=wall), e2e)
    return out, statistics.median(ref_times) if ref_times else np.nan


def run_ablation(
    scramble: Scramble,
    queries: Sequence[str],
    configs: Mapping[str, EngineConfig],
    *,
    paper: Mapping[str, Mapping[str, float]],
    spark_exact: bool = False,
) -> pd.DataFrame:
    """One row per (query, approach); the first of ``configs`` is the baseline.

    ``paper`` maps query -> approach label -> the paper's speedup; the
    baseline has none.
    ``spark_exact`` times each query's exact SQL on Spark as the
    end-to-end reference, in the same rounds as the engine runs.
    """
    specs = [ALL_QUERIES[name]() for name in queries]
    # One untimed prep per query builds the bitmap indexes it reads (its
    # columns' and its GROUP BY's): they are per-scramble artifacts, like
    # the scramble, so no e2e_s includes one.
    for spec in specs:
        prepare(scramble, spec)
    flights = flights_pandas(scramble)
    exact_rows = spark_exact_rows(scramble) if spark_exact else None
    rows: List[Dict] = []
    for name, spec in zip(queries, specs):
        truth = exact_decision(spec, flights)
        reference = spark_exact_run(exact_rows, spec) if spark_exact else None
        runs, spark_s = timed_runs(scramble, spec, configs, reference)
        base, base_e2e = next(iter(runs.values()))
        ref_e2e = spark_s if spark_exact else base_e2e
        for label, (res, e2e) in runs.items():
            rows.append(
                {
                    "query": name,
                    "approach": label,
                    "wall_s": res.wall_seconds,
                    "e2e_s": e2e,
                    "spark_exact_s": spark_s,
                    "blocks": res.blocks_fetched,
                    "rows_scanned": res.rows_scanned,
                    "rounds": res.rounds,
                    "index_probes": res.index_probes,
                    "base_wall_s": base.wall_seconds,
                    "base_blocks": base.blocks_fetched,
                    "speedup_wall": base.wall_seconds / max(res.wall_seconds, 1e-9),
                    "speedup_e2e": ref_e2e / max(e2e, 1e-9),
                    "speedup_blocks": base.blocks_fetched / max(res.blocks_fetched, 1),
                    "paper_speedup": paper[name].get(label, np.nan),
                    "correct": decision_correct(spec, res, truth),
                }
            )
    if exact_rows is not None:
        exact_rows.unpersist()
    return pd.DataFrame(rows, columns=COLUMNS)


_PRINTED = {
    "query": None,
    "approach": None,
    "wall_s": "{:.4f}".format,
    "e2e_s": "{:.4f}".format,
    "spark_exact_s": "{:.4f}".format,
    "blocks": None,
    "speedup_wall": "{:.2f}x".format,
    "speedup_e2e": "{:.2f}x".format,
    "speedup_blocks": "{:.2f}x".format,
    "paper_speedup": "{:.2f}x".format,
    "ok": None,
}


def format_ablation(df: pd.DataFrame, title: str) -> str:
    """The table as text: our speedups beside the paper's, wrong runs flagged."""
    shown = df.assign(ok=np.where(df["correct"], "", "WRONG"))[list(_PRINTED)]
    body = shown.to_string(
        index=False,
        formatters={k: f for k, f in _PRINTED.items() if f},
        na_rep="-",
    )
    n_wrong = int((~df["correct"]).sum())
    return (
        f"{title}\n{body}\n"
        f"correctness: {len(df) - n_wrong}/{len(df)} runs matched ground truth"
    )
