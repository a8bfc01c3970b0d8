"""Block-based bitmap indexes over categorical attributes (paper §4).

For a categorical column, the index records for every (value, block)
pair whether the block contains at least one row with that value —
exactly the information FastFrame's active scanning needs to decide
whether a block can contribute tuples to an active group. It is built
from the scramble's column store with one NumPy scatter of the
column's codes into a dense boolean matrix ``[n_values, n_blocks]``.

Composite GROUP BY keys (e.g. F-q6's ``DayOfWeek, Origin``) get the
same scatter over composite codes, so their matrix is exact: a group's
row marks exactly the blocks holding at least one of its rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.fastframe.scramble import Scramble


@dataclass
class ColumnBitmap:
    """Presence bitmap of each distinct value of one column, per block."""

    column: str
    values: List  # sorted distinct values
    matrix: np.ndarray  # bool [n_values, n_blocks]

    def row(self, value) -> np.ndarray:
        try:
            idx = self.values.index(value)
        except ValueError:
            raise KeyError(
                f"value {value!r} not present in column {self.column!r}"
            ) from None
        return self.matrix[idx]


def _presence(scramble: Scramble, codes: np.ndarray, n_codes: int) -> np.ndarray:
    """bool [n_codes, n_blocks]: does the block hold a row of the code."""
    matrix = np.zeros((n_codes, scramble.n_blocks), dtype=bool)
    matrix[codes, np.arange(codes.size) // scramble.block_size] = True
    return matrix


def build_column_bitmap(scramble: Scramble, column: str) -> ColumnBitmap:
    """One scatter of the column's codes -> matrix."""
    values, codes = scramble.store.codes(column)
    return ColumnBitmap(column, values, _presence(scramble, codes, len(values)))


def get_column_bitmap(scramble: Scramble, column: str) -> ColumnBitmap:
    """Cached accessor — the index is built once per scramble."""
    key = ("bitmap", column)
    if key not in scramble.prep_cache:
        scramble.prep_cache[key] = build_column_bitmap(scramble, column)
    return scramble.prep_cache[key]


def group_domain(
    scramble: Scramble, group_cols: Sequence[str]
) -> Tuple[List[Tuple], np.ndarray]:
    """Sorted distinct group keys present in the (unfiltered) relation,
    and each row's index into them.

    The keys are the "number of aggregate views (or an upper bound)"
    that the per-query confidence budget is divided by, and the row
    universe of the per-group bitmap matrix.
    """
    per_col = [scramble.store.codes(c) for c in group_cols]
    shape = tuple(len(values) for values, _ in per_col)
    # Composite codes in row-major order sort like the key tuples.
    flat = np.ravel_multi_index([codes for _, codes in per_col], shape)
    keys, gid = np.unique(flat, return_inverse=True)
    idx = np.unravel_index(keys, shape)
    columns = [[values[i] for i in ix] for (values, _), ix in zip(per_col, idx)]
    return list(zip(*columns)), gid


def group_bitmap_matrix(
    scramble: Scramble, group_cols: Sequence[str]
) -> Tuple[List[Tuple], np.ndarray, np.ndarray]:
    """Group keys, each row's group and the presence matrix [n_groups, n_blocks]."""
    groups, gid = group_domain(scramble, group_cols)
    return groups, gid, _presence(scramble, gid, len(groups))
