"""Engine-level COUNT and SUM queries (paper §4.1).

A COUNT or SUM over one aggregate view runs as the ``count`` or ``sum``
result kind of :func:`repro.fastframe.engine.run_query`: an unskipped
scan (Lemma 5, see :mod:`repro.core.count_sum`) whose per-round COUNT or
SUM interval feeds the OptStop running intersection. This module only
turns the relative width target into a stopping condition; the run's
``EngineConfig`` and ``QueryResult`` are the engine's own, with the
view's one interval at index 0 of ``est``, ``lo``, ``hi`` and ``m``.
"""
from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.stopping import WidthTarget
from repro.fastframe import engine
from repro.fastframe.engine import EngineConfig, QueryResult

# Not called here: perfbench's tracer wraps this module's ``prepare`` and
# ``n_plus`` by name, so the names stay bound.
from repro.core.count_sum import n_plus  # noqa: F401
from repro.fastframe.engine import prepare  # noqa: F401
from repro.fastframe.queries import QuerySpec
from repro.fastframe.scramble import Scramble


def run_count_sum(
    scramble: Scramble,
    spec: QuerySpec,
    agg: str,
    config: Optional[EngineConfig] = None,
    *,
    rel_eps: Optional[float] = None,
) -> QueryResult:
    """Scan until the COUNT/SUM CI is tight enough (or data exhausted).

    ``spec`` supplies the predicate and measure column; its group columns
    must be empty (one aggregate view). Stop once the interval is
    narrower than ``rel_eps`` times the estimate's magnitude; with
    ``rel_eps`` None, scans to exhaustion and returns the exact value.
    ``config``'s strategy is not used: COUNT/SUM always scan every block.
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
    return engine.run_query(scramble, spec, config)
