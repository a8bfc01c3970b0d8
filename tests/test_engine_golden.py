"""Golden engine results: every result field but the wall time, pinned.

``tests/data/engine_golden.json`` holds the results of these runs on the
tier-1 data (SF 0.005, data seed 7, scramble seed 8), round_rows 2 000:

* each F-query × {Exact, H, H+RT, B, B+RT} × {scan, active_sync,
  active_peek} × start block {0, 333} through ``run_query``;
* COUNT and SUM on the five distinct F-query views without GROUP BY ×
  ``rel_eps`` {0.05, None} through ``run_count_sum``.

The runs use the shared tier-1 ``scramble`` fixture; regenerating the
file builds the same scramble without Spark.

An engine run stores every ``QueryResult`` field except
``wall_seconds``; its float arrays are stored as the sha256 of their
bytes, so they must stay byte-identical. A COUNT/SUM run stores its
one view's estimate, interval and sample size as floats and its cost
fields (``_scalar_fields``). A change that alters results
on purpose regenerates the file, from the repository root, with

    PYTHONPATH=src python -m tests.test_engine_golden

and says why in CHANGES.md. To see first what such a change moves, run

    PYTHONPATH=src python -m tests.test_engine_golden --diff

which prints, per stored field, how many runs differ from the file, and
writes nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.fastframe.count_sum_query import run_count_sum
from repro.fastframe.engine import EngineConfig, run_query
from repro.fastframe.queries import ALL_QUERIES

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
    config = EngineConfig(round_rows=ROUND_ROWS)
    for name, spec in _views().items():
        for agg in ("COUNT", "SUM"):
            for rel_eps in REL_EPS:
                res = run_count_sum(scramble, spec, agg, config, rel_eps=rel_eps)
                yield f"{name} {agg} rel_eps={rel_eps}", _scalar_fields(agg, res)


def _scalar_fields(agg, res):
    """The stored fields of a COUNT/SUM run: its view's values (index 0)."""
    return {
        "agg": agg,
        "estimate": float(res.est[0]),
        "lo": float(res.lo[0]),
        "hi": float(res.hi[0]),
        "m": int(res.m[0]),
        "rows_scanned": res.rows_scanned,
        "blocks_fetched": res.blocks_fetched,
        "rounds": res.rounds,
        "exhausted": res.exhausted_all,
    }


def test_engine_matches_golden(scramble):
    golden = json.loads(GOLDEN.read_text())
    runs = list(golden_runs(scramble))
    assert [run for run, _ in runs] == list(golden), "the set of runs changed"
    for run, got in runs:
        want = golden[run]
        for field in want:
            assert got[field] == want[field], (
                f"{run}: {field} is {got[field]!r}, golden {want[field]!r}"
            )


def diff_counts(old, new):
    """Per stored field, ``(runs whose value differs, of those the runs
    that differ beyond their floats)``, over the runs in both ``old`` and
    ``new``; and the runs only in ``old`` or only in ``new``. The hashes of
    ``lo``, ``hi`` and ``est`` count as floats; the hash of ``m``, a count,
    does not."""
    counts = {}
    for run in (r for r in old if r in new):
        for field in dict.fromkeys([*old[run], *new[run]]):
            a, b = old[run].get(field), new[run].get(field)
            n, beyond = counts.get(field, (0, 0))
            if field not in ("lo", "hi", "est"):
                beyond += _no_floats(a) != _no_floats(b)
            counts[field] = (n + (a != b), beyond)
    return counts, [r for r in old if r not in new], [r for r in new if r not in old]


def _no_floats(x):
    """``x`` with every float as None: what is left of a decision but its
    numbers."""
    if isinstance(x, dict):
        return {k: _no_floats(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_no_floats(v) for v in x]
    return None if isinstance(x, float) else x


def test_diff_counts():
    old = {
        "r1": {"lo": "h1", "m": "c1", "decision": {"avg": 1.0}, "rounds": 2},
        "r2": {"lo": "h2", "m": "c2", "decision": ["a", "b"], "rounds": 3},
        "r3": {"lo": "h3", "m": "c3", "decision": None, "rounds": 1},
    }
    new = {
        "r1": {"lo": "h9", "m": "c1", "decision": {"avg": 1.5}, "rounds": 2},
        "r2": {"lo": "h2", "m": "c9", "decision": ["a"], "rounds": 3},
        "r4": {"lo": "h4", "m": "c4", "decision": None, "rounds": 1},
    }
    counts, gone, added = diff_counts(old, new)
    assert counts == {
        "lo": (1, 0),
        "m": (1, 1),
        "decision": (2, 1),
        "rounds": (0, 0),
    }
    assert (gone, added) == (["r3"], ["r4"])


def _main():
    ap = argparse.ArgumentParser(description="Regenerate the golden engine results.")
    ap.add_argument(
        "--diff",
        action="store_true",
        help="print, per stored field, how many runs differ from the file; write nothing",
    )
    opts = ap.parse_args()
    from repro.fastframe.scramble import build_store, scramble_from_store, shuffle
    from repro.synth_data import flights_table
    from tests.conftest import TEST_SEED, TEST_SF

    # The tier-1 scramble, built without Spark: the same store as the
    # ``scramble`` fixture's (test_scramble's Spark-build check).
    rows = flights_table(sf=TEST_SF, seed=TEST_SEED)
    scramble = scramble_from_store(
        build_store(shuffle(rows, TEST_SEED + 1)), seed=TEST_SEED + 1
    )
    golden = dict(golden_runs(scramble))
    if opts.diff:
        counts, gone, added = diff_counts(json.loads(GOLDEN.read_text()), golden)
        both = len(golden) - len(added)
        for field, (n, beyond) in counts.items():
            print(f"{field}: {n} of {both} runs differ, {beyond} beyond their floats")
        print(f"runs only in the file: {len(gone)}, only in this code: {len(added)}")
        return
    GOLDEN.parent.mkdir(exist_ok=True)
    # One run per line, so a regenerated file diffs run by run.
    lines = [f"{json.dumps(run)}: {json.dumps(out)}" for run, out in golden.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} runs to {GOLDEN}")


if __name__ == "__main__":
    _main()
