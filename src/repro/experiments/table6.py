"""Paper Table 6: sampling-strategy ablation (Scan / ActiveSync /
ActivePeek) with the Bernstein+RT bounder, restricted — as in the
paper — to the GROUP BY queries (F-q3, F-q5, F-q6, F-q7, F-q8).

All three strategies are one cyclic walk of the scramble. Scan does not
filter by group and fetches every (predicate-eligible) block. ActiveSync
and ActivePeek skip blocks holding no active group, and their only
difference is the walk's batch size: ActiveSync probes the bitmaps one
block at a time (the cache-miss analog), ActivePeek one vectorized
gather per 1024-block lookahead batch. So they fetch the same blocks,
and the difference is pure index-probe overhead.
"""
from __future__ import annotations

from typing import Dict, List, Optional

import pandas as pd

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.fastframe.engine import EngineConfig, run_query
from repro.fastframe.queries import ALL_QUERIES
from repro.fastframe.scramble import Scramble

#: Paper Table 6, transcribed: Scan seconds and speedup over Scan.
PAPER_TABLE6 = {
    "F-q3": {"scan_s": 2.04, "ActiveSync": 1.15, "ActivePeek": 1.20},
    "F-q5": {"scan_s": 45.18, "ActiveSync": 1.11, "ActivePeek": 3.43},
    "F-q6": {"scan_s": 4.10, "ActiveSync": 1.24, "ActivePeek": 1.36},
    "F-q7": {"scan_s": 11.05, "ActiveSync": 1.14, "ActivePeek": 1.13},
    "F-q8": {"scan_s": 47.12, "ActiveSync": 1.40, "ActivePeek": 5.35},
}

TABLE6_QUERIES = ["F-q3", "F-q5", "F-q6", "F-q7", "F-q8"]
STRATEGIES = ["scan", "active_sync", "active_peek"]
STRATEGY_LABELS = {"scan": "Scan", "active_sync": "ActiveSync", "active_peek": "ActivePeek"}


def run_table6(
    scramble: Scramble,
    *,
    queries: Optional[List[str]] = None,
    delta: float = 1e-15,
    round_rows: int = 40_000,
    start_block: int = 0,
) -> pd.DataFrame:
    """One tidy row per (query, strategy), Bernstein+RT throughout."""
    names = queries or TABLE6_QUERIES
    flights = flights_pandas(scramble)
    rows: List[Dict] = []
    for name in names:
        spec = ALL_QUERIES[name]()
        truth = exact_decision(spec, flights)
        per_strategy = {}
        for strategy in STRATEGIES:
            res = run_query(
                scramble,
                spec,
                EngineConfig(
                    bounder="bernstein",
                    range_trim=True,
                    strategy=strategy,
                    delta=delta,
                    round_rows=round_rows,
                    start_block=start_block,
                ),
            )
            per_strategy[strategy] = res
        scan_res = per_strategy["scan"]
        for strategy in STRATEGIES:
            res = per_strategy[strategy]
            rows.append(
                {
                    "query": name,
                    "strategy": STRATEGY_LABELS[strategy],
                    "wall_s": res.wall_seconds,
                    "blocks": res.blocks_fetched,
                    "index_probes": res.index_probes,
                    "scan_wall_s": scan_res.wall_seconds,
                    "scan_blocks": scan_res.blocks_fetched,
                    "speedup_wall": scan_res.wall_seconds / max(res.wall_seconds, 1e-9),
                    "speedup_blocks": scan_res.blocks_fetched / max(res.blocks_fetched, 1),
                    "correct": decision_correct(spec, res, truth),
                }
            )
    return pd.DataFrame(rows)


def format_table6(df: pd.DataFrame) -> str:
    out = [
        "Table 6 — speedup over Scan per sampling strategy (Bernstein+RT)"
    ]
    out.append(
        f"{'Query':<7} {'Scan (s)':>9} "
        f"{'ActiveSync x (s)':>20} {'ActivePeek x (s)':>20} {'blocks Scan/Active':>19}"
    )
    for q, sub in df.groupby("query", sort=False):
        scan = sub[sub["strategy"] == "Scan"].iloc[0]
        cells = []
        for lbl in ("ActiveSync", "ActivePeek"):
            r = sub[sub["strategy"] == lbl].iloc[0]
            flag = "" if r["correct"] else " WRONG"
            cells.append(f"{r['speedup_wall']:>7.2f}x ({r['wall_s']:.3f}){flag}")
        blocks_ratio = scan["blocks"] / max(
            sub[sub["strategy"] == "ActivePeek"]["blocks"].iloc[0], 1
        )
        out.append(
            f"{q:<7} {scan['wall_s']:>9.3f} "
            + " ".join(f"{c:>20}" for c in cells)
            + f" {blocks_ratio:>18.2f}x"
        )
    n_wrong = int((~df["correct"]).sum())
    out.append(f"correctness: {len(df) - n_wrong}/{len(df)} runs matched ground truth")
    return "\n".join(out)
