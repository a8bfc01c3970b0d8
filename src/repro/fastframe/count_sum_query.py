"""Engine-level COUNT and SUM queries (paper §4.1).

A COUNT or SUM over one aggregate view runs as the ``count`` or ``sum``
result kind of :func:`repro.fastframe.engine.run_query`: an unskipped
scan (Lemma 5, see :mod:`repro.core.count_sum`) whose per-round COUNT or
SUM interval feeds the OptStop running intersection. This module turns
the relative width target into a stopping condition and the
result into a :class:`ScalarResult`.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.stopping import WidthTarget
from repro.fastframe import engine
from repro.fastframe.engine import EngineConfig

# Not called here: perfbench's tracer wraps this module's ``prepare`` and
# ``n_plus`` by name, so the names stay bound.
from repro.core.count_sum import n_plus  # noqa: F401
from repro.fastframe.engine import prepare  # noqa: F401
from repro.fastframe.queries import QuerySpec
from repro.fastframe.scramble import Scramble


@dataclass
class ScalarResult:
    """Outcome of a COUNT or SUM query over one aggregate view."""

    agg: str
    estimate: float
    lo: float
    hi: float
    m: int
    rows_scanned: int
    blocks_fetched: int
    rounds: int
    wall_seconds: float
    exhausted: bool


def run_count_sum(
    scramble: Scramble,
    spec: QuerySpec,
    agg: str,
    *,
    bounder: str = "bernstein",
    range_trim: bool = True,
    delta: float = 1e-15,
    round_rows: int = 40_000,
    rel_eps: Optional[float] = None,
) -> ScalarResult:
    """Scan until the COUNT/SUM CI is tight enough (or data exhausted).

    ``spec`` supplies the predicate and measure column; its group columns
    must be empty (one aggregate view). Stop once the interval is
    narrower than ``rel_eps`` times the estimate's magnitude; with
    ``rel_eps`` None, scans to exhaustion and returns the exact value.
    """
    if agg not in ("COUNT", "SUM"):
        raise ValueError(f"agg must be COUNT or SUM, got {agg!r}")
    if rel_eps is not None and not rel_eps > 0:
        raise ValueError(f"rel_eps must be > 0, got {rel_eps!r}")
    spec = dataclasses.replace(
        spec,
        stopping=WidthTarget(rel_eps),
        result_kind=agg.lower(),
    )
    config = EngineConfig(
        bounder=bounder, range_trim=range_trim, delta=delta, round_rows=round_rows
    )
    res = engine.run_query(scramble, spec, config)
    return ScalarResult(
        agg=agg,
        estimate=float(res.est[0]),
        lo=float(res.lo[0]),
        hi=float(res.hi[0]),
        m=int(res.m[0]),
        rows_scanned=res.rows_scanned,
        blocks_fetched=res.blocks_fetched,
        rounds=res.rounds,
        wall_seconds=res.wall_seconds,
        exhausted=res.exhausted_all,
    )
