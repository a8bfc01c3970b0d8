"""Block-based bitmap indexes over categorical attributes (paper §4).

For a categorical column, the index records for every (value, block)
pair whether the block contains at least one row with that value —
exactly the information FastFrame's active scanning needs to decide
whether a block can contribute tuples to an active group. It is built
once per scramble from the column store with one NumPy scatter of the
column's codes into a dense boolean matrix ``[n_blocks, n_values]``,
and it keeps those codes (each row's index into the sorted values).

Every presence matrix is block-major: block ``b``'s row marks the
values (or groups) it holds, contiguous, so the engine's per-round
work over the blocks it fetches is a gather of whole rows. A value's
block bitmap is a column of that matrix, and the value's index into
``ColumnBitmap.values`` is the one lookup an ``Eq`` predicate makes.

A GROUP BY on one column reuses that index as is: its keys, row ids
and matrix are the column's values, codes and matrix, so the query
does no prep work for them. Composite keys (e.g. F-q6's ``DayOfWeek,
Origin``) come from one ``bincount`` of the columns' composite codes,
which yields the present keys in sorted order without a sort, then the
same scatter, so their matrix is exact too: a group's column marks
exactly the blocks holding at least one of its rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.fastframe.scramble import Scramble


@dataclass
class ColumnBitmap:
    """Presence bitmap of each distinct value of one column, per block."""

    column: str
    values: List  # sorted distinct values
    codes: np.ndarray  # intp [n_rows] — each row's index into values
    matrix: np.ndarray  # bool [n_blocks, n_values]


def _presence(scramble: Scramble, codes: np.ndarray, n_codes: int) -> np.ndarray:
    """bool [n_blocks, n_codes]: does the block hold a row of the code.

    One flat scatter at ``block * n_codes + code``; rows are in block
    order, so its writes walk the matrix front to back. Each whole
    block's offset is added to its ``[block_size]`` row of codes, read
    as a reshape; the short last block's rows, if any, follow.
    """
    bs = scramble.block_size
    out = np.zeros((scramble.n_blocks, n_codes), dtype=bool)
    flat = out.reshape(-1)
    whole = codes.size // bs
    offset = np.arange(0, whole * n_codes, n_codes)
    flat[codes[: whole * bs].reshape(whole, bs) + offset[:, None]] = True
    flat[whole * n_codes + codes[whole * bs :]] = True
    return out


def build_column_bitmap(scramble: Scramble, column: str) -> ColumnBitmap:
    """The column's sorted values and codes, then one scatter -> matrix.

    A string column's values and codes are the store's own; a numeric
    column's come from one ``np.unique`` over every row.
    """
    store = scramble.store
    if column in store.values:
        values, codes = store.values[column], store.columns[column]
    else:
        distinct, codes = np.unique(store.columns[column], return_inverse=True)
        values = distinct.tolist()
    return ColumnBitmap(
        column, values, codes, _presence(scramble, codes, len(values))
    )


def get_column_bitmap(scramble: Scramble, column: str) -> ColumnBitmap:
    """Cached accessor — the index is built once per scramble."""
    if column not in scramble.bitmaps:
        scramble.bitmaps[column] = build_column_bitmap(scramble, column)
    return scramble.bitmaps[column]


def group_domain(
    scramble: Scramble, group_cols: Sequence[str]
) -> Tuple[List[Tuple], np.ndarray]:
    """Sorted distinct group keys present in the (unfiltered) relation,
    and each row's index into them (for one column, its bitmap's own
    codes: callers must not write to them).

    The keys are the "number of aggregate views (or an upper bound)"
    that the per-query confidence budget is divided by, and the row
    universe of the per-group bitmap matrix.
    """
    bms = [get_column_bitmap(scramble, c) for c in group_cols]
    shape = tuple(len(bm.values) for bm in bms)
    # Composite codes in row-major order sort like the key tuples, so
    # the codes that occur, in code order, are the sorted keys. The
    # codes are in range, so a multiply-add needs none of
    # ``ravel_multi_index``'s checks.
    flat = bms[0].codes
    for bm, n in zip(bms[1:], shape[1:]):
        flat = flat * n + bm.codes
    present = np.bincount(flat, minlength=math.prod(shape)) > 0
    idx = np.unravel_index(np.flatnonzero(present), shape)
    columns = [[bm.values[i] for i in ix] for bm, ix in zip(bms, idx)]
    if present.all():  # each composite code is its key's index
        return list(zip(*columns)), flat
    return list(zip(*columns)), (np.cumsum(present) - 1)[flat]


def group_bitmap_matrix(
    scramble: Scramble, group_cols: Sequence[str]
) -> Tuple[List[Tuple], np.ndarray, np.ndarray]:
    """Group keys, each row's group and the presence matrix [n_blocks, n_groups].

    For one column these are its bitmap index's own values, codes and
    matrix, shared: callers must not write to them.
    """
    if len(group_cols) == 1:
        bm = get_column_bitmap(scramble, group_cols[0])
        return [(v,) for v in bm.values], bm.codes, bm.matrix
    groups, gid = group_domain(scramble, group_cols)
    return groups, gid, _presence(scramble, gid, len(groups))
