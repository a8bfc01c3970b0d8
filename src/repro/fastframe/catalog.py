"""Catalog metadata: range bounds for continuous columns (paper §2.2.1).

FastFrame "stores the minimum and maximum values in a catalog, to be
used as the range bounds a and b for the desired range-based error
bounder" — inferred at load time. Here that is a NumPy MIN/MAX over
each numeric column of the scramble's driver-resident column store,
which the scramble build collects anyway, so the catalog costs no Spark
pass of its own. The bounders only require ``[a, b] ⊇ [MIN, MAX]``; we
store the exact MIN/MAX, which is the tightest legal choice and what
the paper does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.fastframe.scramble import ColumnStore


@dataclass
class Catalog:
    """Per-column [a, b] range bounds plus the relation size."""

    ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    n_rows: int = 0

    def bounds(self, column: str) -> Tuple[float, float]:
        if column not in self.ranges:
            raise KeyError(
                f"no catalog range bounds for column {column!r}; "
                f"known: {sorted(self.ranges)}"
            )
        return self.ranges[column]


def build_catalog(store: ColumnStore) -> Catalog:
    """The row count plus MIN/MAX of every numeric (integer or float)
    column of ``store``; string columns, held as codes, have none.

    Rejects an empty relation, and a NaN, which would make a range
    bound NaN (the store already rejects NULLs).
    """
    n_rows = len(next(iter(store.columns.values()), ()))
    if n_rows == 0:
        raise ValueError("cannot build a catalog of an empty relation")
    ranges = {}
    for name, col in store.columns.items():
        if name in store.values or col.dtype.kind not in "iuf":
            continue
        lo, hi = col.min(), col.max()
        if np.isnan(lo) or np.isnan(hi):
            raise ValueError(f"column {name!r} holds NaN; it has no range bounds")
        ranges[name] = (float(lo), float(hi))
    return Catalog(ranges=ranges, n_rows=n_rows)
