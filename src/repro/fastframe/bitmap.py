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
exactly the blocks holding at least one of its rows. The query with
no GROUP BY has one view in every block: its index is one all-ones
column, with no codes.

Every index is a per-scramble artifact, as the paper's bitmaps are
built offline (§4): each column's, each composite key's (cached in
``Scramble.bitmaps`` under its column tuple) and the one view's are
built once, on first use, and carry their counts, computed with the
matrix: ``block_counts``, the blocks holding each value (column sums),
and ``values_per_block``, the values each block holds (row sums). Those
are a GROUP BY's starting count of blocks still to fetch per group, when
every block is eligible, and an active scan's starting count of active
groups per block, so no query sums a whole matrix. The counts are
read-only; the engine works on copies. F-q6's composite index (420
keys) is built in 4-6 ms and holds 5.6 MB (a 3.8 MB matrix and 1.8 MB
of codes) at SF 0.04 (9 600 blocks); at SF 0.6 (144 000 blocks) it is
built in 89-112 ms, of which 35 ms are its counts, and holds 85 MB
(57.7 MB and 27.5 MB). It is kept for the scramble's life (4 vCPUs,
numpy 1.26.4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fastframe.scramble import Scramble


@dataclass
class ColumnBitmap:
    """Presence bitmap of each distinct value of one column (or of one key
    tuple of columns), per block, and its counts."""

    column: Union[str, Tuple[str, ...]]  # a tuple for a GROUP BY's composite key
    values: List  # sorted distinct values (key tuples for a tuple ``column``)
    codes: Optional[np.ndarray]  # intp [n_rows] — each row's index into values
    matrix: np.ndarray  # bool [n_blocks, n_values]
    block_counts: np.ndarray = field(init=False)  # int32 [n_values], read-only
    values_per_block: np.ndarray = field(init=False)  # int32 [n_blocks], read-only

    def __post_init__(self):
        m8 = self.matrix.view(np.uint8)
        self.block_counts = count_ones(m8, axis=0)
        self.values_per_block = count_ones(m8, axis=1)
        self.block_counts.flags.writeable = False
        self.values_per_block.flags.writeable = False

    @cached_property
    def keys(self) -> List[Tuple]:
        """The values as GROUP BY keys, one tuple entry per column."""
        if isinstance(self.column, str):
            return [(v,) for v in self.values]
        return self.values


def count_ones(m8: np.ndarray, axis: int) -> np.ndarray:
    """Sums of a 0/1 ``uint8`` matrix along ``axis``, as ``int32``.

    Runs of up to 255 entries are summed in ``uint8`` first: such a sum
    cannot overflow, and needs no cast, which makes it ~3x faster.
    """
    m8 = np.moveaxis(m8, axis, -1)
    n = m8.shape[-1] // 255 * 255
    runs = m8[..., :n].reshape(*m8.shape[:-1], -1, 255)
    head = runs.sum(axis=-1, dtype=np.uint8).sum(axis=-1, dtype=np.int32)
    return head + m8[..., n:].sum(axis=-1, dtype=np.uint8)


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


def build_group_bitmap(
    scramble: Scramble, group_cols: Tuple[str, ...]
) -> ColumnBitmap:
    """The index of a composite key (``group_domain``, then one scatter),
    or, for no columns, of the one view: one all-ones column."""
    if not group_cols:
        ones = np.ones((scramble.n_blocks, 1), dtype=bool)
        return ColumnBitmap((), [()], None, ones)
    groups, gid = group_domain(scramble, group_cols)
    return ColumnBitmap(
        group_cols, groups, gid, _presence(scramble, gid, len(groups))
    )


def group_bitmap_matrix(
    scramble: Scramble, group_cols: Sequence[str]
) -> ColumnBitmap:
    """The GROUP BY's index: its groups are the index's ``keys``, each
    row's group its ``codes`` and the presence matrix ``[n_blocks,
    n_groups]`` its ``matrix``. Cached: built once per scramble.

    For one column this is the column's own index, shared: callers must
    not write to its arrays.
    """
    if len(group_cols) == 1:
        return get_column_bitmap(scramble, group_cols[0])
    key = tuple(group_cols)
    if key not in scramble.bitmaps:
        scramble.bitmaps[key] = build_group_bitmap(scramble, key)
    return scramble.bitmaps[key]
