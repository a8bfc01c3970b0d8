"""Golden engine results: every result field but the wall time, pinned.

``tests/data/engine_golden.json`` holds the results of these runs on the
tier-1 data (SF 0.005, data seed 7, scramble seed 8), round_rows 2 000:

* each F-query × {Exact, H, H+RT, B, B+RT} × {scan, active_sync,
  active_peek} × start block {0, 333} through ``run_query``;
* COUNT and SUM on the five distinct F-query views without GROUP BY ×
  ``rel_eps`` {0.05, None} through ``run_count_sum``.

The scramble is built from the data in one partition. ``F.rand`` is
seeded per partition and ``createDataFrame`` splits the data by the
number of local cores, so the tier-1 fixture's own scramble differs
between ``local[1]``, ``local[2]`` and ``local[4]``; this one does not.

A run stores every ``QueryResult`` (or ``ScalarResult``) field except
``wall_seconds``; its float arrays are stored as the sha256 of their
bytes, so they must stay byte-identical. A change that alters results
on purpose regenerates the file, from the repository root, with

    PYTHONPATH=src python -m tests.test_engine_golden

and says why in CHANGES.md.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fastframe.count_sum_query import run_count_sum
from repro.fastframe.engine import EngineConfig, run_query
from repro.fastframe.queries import ALL_QUERIES
from repro.fastframe.scramble import build_scramble
from tests.conftest import TEST_SEED

GOLDEN = Path(__file__).parent / "data" / "engine_golden.json"
ROUND_ROWS = 2_000
START_BLOCKS = (0, 333)
CONFIGS = [
    ("exact", False),
    ("hoeffding", False),
    ("hoeffding", True),
    ("bernstein", False),
    ("bernstein", True),
]
STRATEGIES = ("scan", "active_sync", "active_peek")
REL_EPS = (0.05, None)
#: QueryResult fields stored as they are (``wall_seconds`` is left out).
FIELDS = (
    "strategy",
    "groups",
    "decision",
    "blocks_fetched",
    "rows_scanned",
    "rounds",
    "index_probes",
    "exhausted_all",
)
ARRAYS = ("lo", "hi", "est", "m")


def _plain(x):
    """``x`` with tuples as lists and NumPy scalars as Python ones (JSON's types)."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


def one_partition_scramble(df):
    """The scramble of ``df``, whatever the number of local cores."""
    return build_scramble(df.coalesce(1), seed=TEST_SEED + 1)


def _views():
    """Each F-query's view without its GROUP BY, once per distinct view."""
    views = {}
    for name, make in ALL_QUERIES.items():
        spec = dataclasses.replace(make(), group_cols=())
        if all(v.signature() != spec.signature() for v in views.values()):
            views[name] = spec
    return views


def golden_runs(scramble):
    """(run id, stored fields) of every golden run, in a fixed order."""
    for name, make in ALL_QUERIES.items():
        spec = make()
        for bounder, rt in CONFIGS:
            for strategy in STRATEGIES:
                for start in START_BLOCKS:
                    config = EngineConfig(
                        bounder=bounder,
                        range_trim=rt,
                        strategy=strategy,
                        round_rows=ROUND_ROWS,
                        start_block=start,
                    )
                    res = run_query(scramble, spec, config)
                    out = {f: _plain(getattr(res, f)) for f in FIELDS}
                    for f in ARRAYS:
                        arr = np.ascontiguousarray(getattr(res, f))
                        out[f] = hashlib.sha256(arr.tobytes()).hexdigest()
                    yield f"{name} {config.label()} {strategy} start={start}", out
    for name, spec in _views().items():
        for agg in ("COUNT", "SUM"):
            for rel_eps in REL_EPS:
                res = run_count_sum(
                    scramble, spec, agg, rel_eps=rel_eps, round_rows=ROUND_ROWS
                )
                out = dataclasses.asdict(res)
                del out["wall_seconds"]
                yield f"{name} {agg} rel_eps={rel_eps}", _plain(out)


@pytest.fixture(scope="module")
def golden_scramble(flights_df):
    sc = one_partition_scramble(flights_df)
    yield sc
    sc.df.unpersist()


def test_engine_matches_golden(golden_scramble):
    golden = json.loads(GOLDEN.read_text())
    runs = list(golden_runs(golden_scramble))
    assert [run for run, _ in runs] == list(golden), "the set of runs changed"
    for run, got in runs:
        want = golden[run]
        for field in want:
            assert got[field] == want[field], (
                f"{run}: {field} is {got[field]!r}, golden {want[field]!r}"
            )


def _main():
    from pyspark.sql import SparkSession

    from repro.synth_data import flights
    from tests.conftest import TEST_SF

    spark = (
        SparkSession.builder.master("local[2]")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    scramble = one_partition_scramble(flights(spark, sf=TEST_SF, seed=TEST_SEED))
    golden = dict(golden_runs(scramble))
    spark.stop()
    GOLDEN.parent.mkdir(exist_ok=True)
    # One run per line, so a regenerated file diffs run by run.
    lines = [f"{json.dumps(run)}: {json.dumps(out)}" for run, out in golden.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} runs to {GOLDEN}")


if __name__ == "__main__":
    _main()
