"""Paper Table 6: sampling-strategy ablation (Scan / ActiveSync /
ActivePeek) with the Bernstein+RT bounder, restricted — as in the
paper — to the GROUP BY queries (F-q3, F-q5, F-q6, F-q7, F-q8).

All three strategies run the engine's one vectorised walk of the
scramble. Scan does not filter by group and fetches every
(predicate-eligible) block. ActiveSync and ActivePeek skip blocks
holding no active group. They differ only in the modelled index-probe
batch: one block for ActiveSync (the cache-miss analog), the 1024-block
lookahead for ActivePeek. The batch sets the ``index_probes`` count, not
the code that runs, so the two fetch the same blocks in about the same
time. ``index_probes`` counts (active group x candidate block) cells,
so it ranks ActivePeek above ActiveSync; the paper's gap between them
is the latency of synchronous probe calls, which is not modelled. The
runs go through the shared ablation harness
(:mod:`repro.experiments.ablation`) with Scan as the baseline.
"""
from __future__ import annotations

from typing import List, Optional

import pandas as pd

from repro.experiments.ablation import run_ablation
from repro.fastframe.engine import EngineConfig
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
STRATEGY_LABELS = {"scan": "Scan", "active_sync": "ActiveSync", "active_peek": "ActivePeek"}

TITLE = (
    "Table 6 — speedup over Scan per sampling strategy, Bernstein+RT "
    "(loop: round loop; e2e: run_query)"
)


def run_table6(
    scramble: Scramble,
    *,
    queries: Optional[List[str]] = None,
    round_rows: int = 40_000,
) -> pd.DataFrame:
    """One row per (query, strategy); Scan is the baseline approach."""
    configs = {
        label: EngineConfig(
            bounder="bernstein",
            range_trim=True,
            strategy=strategy,
            round_rows=round_rows,
        )
        for strategy, label in STRATEGY_LABELS.items()
    }
    return run_ablation(
        scramble, queries or TABLE6_QUERIES, configs, paper=PAPER_TABLE6
    )
