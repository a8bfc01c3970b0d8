"""Exact decisions for each query, and decision-equality checks.

Ground truth is computed by DuckDB over the scramble's row data (the
same engine the repo-wide oracle uses), so every approximate run can be
verified the way the paper verifies correctness ("results either
matched the ground truth ... or were within error tolerance in the
case of F-q1 and F-q7").
"""
from __future__ import annotations

from typing import Any

import duckdb
import pandas as pd

from repro.fastframe.engine import QueryResult
from repro.fastframe.queries import QuerySpec
from repro.fastframe.scramble import Scramble


def flights_pandas(scramble: Scramble) -> pd.DataFrame:
    """The scramble's logical rows as pandas (cached; oracle input)."""
    key = ("flights_pdf",)
    if key not in scramble.prep_cache:
        scramble.prep_cache[key] = (
            scramble.df.drop("row_id", "block_id").toPandas()
        )
    return scramble.prep_cache[key]


def exact_decision(spec: QuerySpec, flights: pd.DataFrame) -> Any:
    """Run the query's decision SQL exactly in DuckDB."""
    con = duckdb.connect()
    try:
        con.register("flights", flights)
        out = con.execute(spec.exact_sql()).fetchdf()
    finally:
        con.close()
    kind = spec.result_kind
    if kind in ("avg_ci", "count", "sum"):
        return float(out.iloc[0, 0])
    if kind in ("having_above", "having_below"):
        return sorted(out.iloc[:, 0].tolist())
    if kind == "case_gt":
        return int(out.iloc[0, 0])
    if kind == "topk":
        rows = [tuple(r) for r in out.itertuples(index=False, name=None)]
        return [r if len(r) != 1 else r[0] for r in rows]
    if kind == "ordered":
        rows = [tuple(r) for r in out.itertuples(index=False, name=None)]
        return [r if len(r) != 1 else r[0] for r in rows]
    raise ValueError(f"unknown result kind {kind!r}")


def decision_correct(spec: QuerySpec, result: QueryResult, exact: Any) -> bool:
    """Does the approximate decision match ground truth?

    Semantics per query kind (paper §5.3): HAVING queries must return
    the exact group set; CASE the exact value; top-K the exact member
    set (LIMIT-K semantics — internal order is not guaranteed by
    condition 5); ordered queries the exact ordering; F-q1 must satisfy
    the requested relative error and its CI must enclose the truth, and a
    COUNT or SUM interval must enclose the exact value.
    """
    d = result.decision
    kind = spec.result_kind
    if kind == "avg_ci":
        if d is None:
            return False
        encloses = d["lo"] - 1e-9 <= exact <= d["hi"] + 1e-9
        eps = spec.params.get("eps")
        if eps is None:
            return encloses
        denom = max(abs(exact), 1e-12)
        return encloses and abs(d["avg"] - exact) / denom <= eps + 1e-9
    if kind in ("count", "sum"):
        tol = 1e-9 * max(1.0, abs(exact))
        return d["lo"] - tol <= exact <= d["hi"] + tol
    if kind in ("having_above", "having_below"):
        return sorted(d) == sorted(exact)
    if kind == "case_gt":
        return int(d) == int(exact)
    if kind == "topk":
        return sorted(map(str, d)) == sorted(map(str, exact))
    if kind == "ordered":
        return [g for g, *_ in d] == list(exact)
    raise ValueError(f"unknown result kind {kind!r}")
