"""Query specifications: the paper's F-q1..F-q9 (Figure 5 / Table 4).

Each query is a :class:`QuerySpec` naming the measure column, an
optional conjunctive predicate, GROUP BY columns, the stopping
condition (paper §4.2, conditions 1-6), and how the final decision is
read off the per-group intervals. ``exact_sql`` renders the query's
*decision* as SQL over a ``flights`` table so the DuckDB oracle can
verify every approximate run against ground truth.

F-q6's "1:50pm" and F-q3's "10:50pm" become 830 and 1370 minutes after
midnight in our integer DepTime encoding.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.core.stopping import (
    Ordered,
    RelWidth,
    StoppingCondition,
    Threshold,
    TopK,
)

if TYPE_CHECKING:
    from pyspark.sql import Column


@dataclass(frozen=True)
class Eq:
    """Equality predicate on a categorical column — bitmap-indexable."""

    col: str
    value: Union[str, int]

    def to_spark(self) -> Column:
        from pyspark.sql import functions as F

        return F.col(self.col) == F.lit(self.value)

    def to_sql(self) -> str:
        v = f"'{self.value}'" if isinstance(self.value, str) else str(self.value)
        return f"{self.col} = {v}"


@dataclass(frozen=True)
class Gt:
    """Strict greater-than on a continuous column — not indexable."""

    col: str
    value: float

    def to_spark(self) -> Column:
        from pyspark.sql import functions as F

        return F.col(self.col) > F.lit(self.value)

    def to_sql(self) -> str:
        return f"{self.col} > {self.value}"


Predicate = Union[Eq, Gt]


@dataclass
class QuerySpec:
    """One approximate aggregation query over the flights scramble."""

    name: str
    stopping: StoppingCondition
    predicate: Tuple[Predicate, ...] = ()
    group_cols: Tuple[str, ...] = ()
    agg_col: str = "DepDelay"
    #: how the decision is read off the intervals:
    #: avg_ci | having_above | having_below | case_gt | topk | ordered,
    #: or count | sum over one view (no GROUP BY)
    result_kind: str = "avg_ci"
    #: description from paper Table 4 for human-readable reports
    description: str = ""
    params: dict = field(default_factory=dict)

    def signature(self):
        """The query's view: predicate, grouping and measure."""
        return (self.predicate, self.group_cols, self.agg_col)

    def predicate_spark(self) -> Optional[Column]:
        if not self.predicate:
            return None
        c = self.predicate[0].to_spark()
        for p in self.predicate[1:]:
            c = c & p.to_spark()
        return c

    def predicate_sql(self) -> str:
        if not self.predicate:
            return ""
        return " WHERE " + " AND ".join(p.to_sql() for p in self.predicate)

    def exact_sql(self) -> str:
        """SQL producing the exact decision, for the DuckDB oracle."""
        w = self.predicate_sql()
        g = ", ".join(self.group_cols)
        if self.result_kind == "avg_ci":
            return f"SELECT AVG({self.agg_col}) AS avg FROM flights{w}"
        if self.result_kind == "count":
            return f"SELECT COUNT(*) FROM flights{w}"
        if self.result_kind == "sum":
            return f"SELECT COALESCE(SUM({self.agg_col}), 0) FROM flights{w}"
        if self.result_kind in ("having_above", "having_below"):
            op = ">" if self.result_kind == "having_above" else "<"
            v = self.stopping.v  # Threshold condition
            return (
                f"SELECT {g} FROM flights{w} GROUP BY {g} "
                f"HAVING AVG({self.agg_col}) {op} {v}"
            )
        if self.result_kind == "case_gt":
            v = self.stopping.v
            return (
                f"SELECT (CASE WHEN AVG({self.agg_col}) > {v} THEN 1 ELSE 0 "
                f"END) AS decision FROM flights{w}"
            )
        if self.result_kind == "topk":
            order = "DESC" if self.stopping.largest else "ASC"
            k = self.stopping.k
            return (
                f"SELECT {g} FROM flights{w} GROUP BY {g} "
                f"ORDER BY AVG({self.agg_col}) {order} LIMIT {k}"
            )
        if self.result_kind == "ordered":
            return (
                f"SELECT {g} FROM flights{w} GROUP BY {g} "
                f"ORDER BY AVG({self.agg_col}) ASC"
            )
        raise ValueError(f"unknown result kind {self.result_kind!r}")


# ---------------------------------------------------------------------------
# F-q1 .. F-q9 (paper Figure 5; stopping conditions per Table 4)
# ---------------------------------------------------------------------------

def fq1(airport: str = "ORD", eps: float = 0.5) -> QuerySpec:
    """F-q1: avg delay for $airport; stop on relative accuracy (cond 3)."""
    return QuerySpec(
        name="F-q1",
        stopping=RelWidth(eps=eps),
        predicate=(Eq("Origin", airport),),
        result_kind="avg_ci",
        description=f"avg delay for {airport}",
        params={"airport": airport, "eps": eps},
    )


def fq2(thresh: float = 0.0) -> QuerySpec:
    """F-q2: airlines with avg delay above $thresh (cond 4 per group)."""
    return QuerySpec(
        name="F-q2",
        stopping=Threshold(v=thresh),
        group_cols=("Airline",),
        result_kind="having_above",
        description=f"airlines with avg delay above {thresh}",
        params={"thresh": thresh},
    )


def fq3(min_dep_time: int = 1370) -> QuerySpec:
    """F-q3: 2 airlines with min avg delay after $min_dep_time (cond 5)."""
    return QuerySpec(
        name="F-q3",
        stopping=TopK(k=2, largest=False),
        predicate=(Gt("DepTime", min_dep_time),),
        group_cols=("Airline",),
        result_kind="topk",
        description="2 airlines with min avg delay after min_dep_time",
        params={"min_dep_time": min_dep_time},
    )


def fq4() -> QuerySpec:
    """F-q4: whether ORD has avg delay > 10 (cond 4, v=10)."""
    return QuerySpec(
        name="F-q4",
        stopping=Threshold(v=10.0),
        predicate=(Eq("Origin", "ORD"),),
        result_kind="case_gt",
        description="whether ORD has avg delay > 10",
    )


def fq5() -> QuerySpec:
    """F-q5: airports with negative avg departure delay (cond 4, v=0)."""
    return QuerySpec(
        name="F-q5",
        stopping=Threshold(v=0.0),
        group_cols=("Origin",),
        result_kind="having_below",
        description="airports with negative avg departure delay",
    )


def fq6() -> QuerySpec:
    """F-q6: 5 worst (DayOfWeek, Origin) for afternoon delays (cond 5)."""
    return QuerySpec(
        name="F-q6",
        stopping=TopK(k=5, largest=True),
        predicate=(Gt("DepTime", 830),),  # 1:50pm
        group_cols=("DayOfWeek", "Origin"),
        result_kind="topk",
        description="5 worst days for afternoon delays across airports",
    )


def fq7() -> QuerySpec:
    """F-q7: avg delay by day of week for airline HP (cond 6: ordered)."""
    return QuerySpec(
        name="F-q7",
        stopping=Ordered(),
        predicate=(Eq("Airline", "HP"),),
        group_cols=("DayOfWeek",),
        result_kind="ordered",
        description="avg delay by day of week for airline HP",
    )


def fq8() -> QuerySpec:
    """F-q8: origin airport with highest avg departure delay (cond 5, k=1)."""
    return QuerySpec(
        name="F-q8",
        stopping=TopK(k=1, largest=True),
        group_cols=("Origin",),
        result_kind="topk",
        description="origin airport with highest departure delay",
    )


def fq9() -> QuerySpec:
    """F-q9: airline with maximum avg delay (cond 5, k=1)."""
    return QuerySpec(
        name="F-q9",
        stopping=TopK(k=1, largest=True),
        group_cols=("Airline",),
        result_kind="topk",
        description="airline with maximum avg delay",
    )


ALL_QUERIES = {
    "F-q1": fq1,
    "F-q2": fq2,
    "F-q3": fq3,
    "F-q4": fq4,
    "F-q5": fq5,
    "F-q6": fq6,
    "F-q7": fq7,
    "F-q8": fq8,
    "F-q9": fq9,
}
