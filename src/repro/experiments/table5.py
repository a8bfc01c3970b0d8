"""Paper Table 5: bounder ablation over F-q1..F-q9.

Runs every query with the Exact baseline and with Hoeffding,
Hoeffding+RT, Bernstein, Bernstein+RT (all ``active_peek``) through the
shared ablation harness (:mod:`repro.experiments.ablation`), with each
query's exact SQL on Spark timed as the end-to-end reference.

The paper's wall-clock numbers come from a native single-node engine
over 606 M rows; our simulator reports the same cost structure at
3.6 M rows (SF 0.6), so the comparison in EXPERIMENTS.md is about
*shape* (which bounder wins, where Hoeffding degenerates to a full scan,
how much RangeTrim buys on sparse-group queries), with the
blocks-fetched ratio as the scale-insensitive speedup measure.
"""
from __future__ import annotations

from typing import List, Optional

import pandas as pd

from repro.experiments.ablation import run_ablation
from repro.fastframe.engine import EngineConfig
from repro.fastframe.queries import ALL_QUERIES
from repro.fastframe.scramble import Scramble

#: Paper Table 5, transcribed: per query, Exact seconds and speedup over
#: Exact per bounder (the paper's testbed numbers, for EXPERIMENTS.md).
PAPER_TABLE5 = {
    "F-q1": {"exact_s": 21.40, "Hoeffding": 61.58, "Hoeffding+RT": 60.17, "Bernstein": 1721.06, "Bernstein+RT": 3093.02},
    "F-q2": {"exact_s": 46.10, "Hoeffding": 267.75, "Hoeffding+RT": 374.92, "Bernstein": 2440.25, "Bernstein+RT": 5135.43},
    "F-q3": {"exact_s": 28.14, "Hoeffding": 1.19, "Hoeffding+RT": 1.74, "Bernstein": 9.57, "Bernstein+RT": 18.58},
    "F-q4": {"exact_s": 21.03, "Hoeffding": 13.38, "Hoeffding+RT": 13.64, "Bernstein": 991.50, "Bernstein+RT": 956.72},
    "F-q5": {"exact_s": 49.15, "Hoeffding": 0.48, "Hoeffding+RT": 0.90, "Bernstein": 1.86, "Bernstein+RT": 3.77},
    "F-q6": {"exact_s": 65.74, "Hoeffding": 1.19, "Hoeffding+RT": 1.26, "Bernstein": 12.48, "Bernstein+RT": 21.63},
    "F-q7": {"exact_s": 29.62, "Hoeffding": 0.99, "Hoeffding+RT": 1.00, "Bernstein": 2.21, "Bernstein+RT": 2.51},
    "F-q8": {"exact_s": 49.31, "Hoeffding": 1.08, "Hoeffding+RT": 1.08, "Bernstein": 5.60, "Bernstein+RT": 5.83},
    "F-q9": {"exact_s": 46.69, "Hoeffding": 1.16, "Hoeffding+RT": 1.34, "Bernstein": 143.84, "Bernstein+RT": 157.94},
}

BOUNDER_CONFIGS = [
    ("Hoeffding", "hoeffding", False),
    ("Hoeffding+RT", "hoeffding", True),
    ("Bernstein", "bernstein", False),
    ("Bernstein+RT", "bernstein", True),
]

TITLE = (
    "Table 5 — speedup over Exact per error bounder "
    "(loop: round loop vs Exact's bincount; e2e: run_query vs Spark exact SQL)"
)


def run_table5(
    scramble: Scramble,
    *,
    queries: Optional[List[str]] = None,
    round_rows: int = 40_000,
) -> pd.DataFrame:
    """One row per (query, approach); Exact is the baseline approach."""
    configs = {"Exact": EngineConfig(bounder="exact", strategy="scan")}
    for label, bounder, rt in BOUNDER_CONFIGS:
        configs[label] = EngineConfig(
            bounder=bounder, range_trim=rt, round_rows=round_rows
        )
    return run_ablation(
        scramble,
        queries or list(ALL_QUERIES),
        configs,
        paper=PAPER_TABLE5,
        spark_exact=True,
    )
