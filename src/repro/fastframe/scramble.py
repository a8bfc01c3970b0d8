"""Scramble construction (paper Definition 4) and its column store.

A scramble is a randomly permuted copy of a relation, laid out in
fixed-size blocks (the paper uses 25 rows/block), so that a sequential
scan — or any adaptively chosen subset of blocks — yields a uniform
without-replacement sample of every aggregate view. The one-time
shuffle cost is paid offline and amortized over all subsequent queries.

A :class:`Scramble` is assembled in one place, :func:`scramble_from_store`,
from a :class:`ColumnStore`: the in-memory column store the paper's
FastFrame reads block by block, where block ``b`` is rows
``[b*block_size, (b+1)*block_size)`` of every column. The catalog,
queries, bitmaps and group domains are computed from the store in NumPy.
:func:`shuffle` puts an Arrow table's rows in scramble order, a
``np.random.default_rng(seed)`` permutation, and :func:`build_store`
codes them; so a scramble can also be built without Spark, and is the
same scramble for the same rows and seed either way.

Spark only hands over the rows, in :func:`build_scramble`: one job
collects them with ``toArrow()``, in partition order. The scramble's
rows live once, in its store; the source DataFrame is kept as it is for
the exact Spark baselines, which aggregate over all rows and so need no
scramble order. This module imports no pyspark.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from repro.fastframe.catalog import Catalog, build_catalog

if TYPE_CHECKING:
    from pyspark.sql import DataFrame

    from repro.fastframe.bitmap import ColumnBitmap

DEFAULT_BLOCK_SIZE = 25  # paper §4.3: "we set the block size to 25 rows"


@dataclass
class ColumnStore:
    """The scramble's columns on the driver, in scramble order.

    Numeric columns hold their values; string columns hold ``intp``
    codes into ``values[column]``, the column's sorted distinct values.
    """

    columns: Dict[str, np.ndarray]
    values: Dict[str, List]


def build_store(table: pa.Table) -> ColumnStore:
    """Code the rows of an Arrow table, already in scramble order.

    Arrow rather than pandas keeps strings out of Python objects, which
    lowers the driver's peak memory.
    """
    if any(col.null_count for col in table.columns):
        raise ValueError("the column store does not hold NULLs")
    columns, values = {}, {}
    for name in table.column_names:
        col = table.column(name)
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            distinct = pc.unique(col).sort()
            values[name] = distinct.to_pylist()
            # Arrow's int32 codes, as intp once: bitmaps, bincount and
            # ufunc.at index with them without a cast.
            col = pc.index_in(col, value_set=distinct).to_numpy().astype(np.intp)
        else:
            col = col.to_numpy()
        columns[name] = col
    return ColumnStore(columns, values)


@dataclass
class Scramble:
    """A shuffled, block-addressed copy of a relation plus its catalog."""

    #: the Spark scramble for the exact baselines; None if built without Spark
    df: Optional[DataFrame]
    store: ColumnStore
    n_rows: int
    block_size: int
    n_blocks: int
    catalog: Catalog
    seed: int
    #: the column bitmap indexes, each built once (``bitmap.get_column_bitmap``)
    bitmaps: Dict[str, ColumnBitmap] = field(default_factory=dict)

    @property
    def rows_per_block(self) -> np.ndarray:
        out = np.full(self.n_blocks, self.block_size, dtype=np.int64)
        out[-1] = self.n_rows - self.block_size * (self.n_blocks - 1)
        return out


def scramble_from_store(
    store: ColumnStore,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> Scramble:
    """The scramble whose rows, in order, are ``store``'s."""
    catalog = build_catalog(store)
    return Scramble(
        df=None,
        store=store,
        n_rows=catalog.n_rows,
        block_size=block_size,
        n_blocks=math.ceil(catalog.n_rows / block_size),
        catalog=catalog,
        seed=seed,
    )


def shuffle(table: pa.Table, seed: int) -> pa.Table:
    """``table``'s rows in scramble order: a uniform random permutation
    (Definition 4), ``np.random.default_rng(seed).permutation``."""
    return table.take(np.random.default_rng(seed).permutation(table.num_rows))


def build_scramble(
    df: DataFrame,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> Scramble:
    """Shuffle ``df`` into a block-addressed scramble (Definition 4).

    One Spark job collects the rows with ``toArrow()``, which returns
    the partitions in order, so the scramble depends on the rows and the
    seed alone, not on how the source is split; :func:`shuffle` orders
    them in NumPy, and the store and the catalog are computed on the
    driver. ``df`` itself becomes ``Scramble.df``, neither copied nor
    cached, for the exact Spark baselines. It must be deterministic
    (e.g. no unseeded ``rand``): those baselines re-read it and must
    see the rows the store holds.
    """
    scramble = scramble_from_store(
        build_store(shuffle(df.toArrow(), seed)), block_size=block_size, seed=seed
    )
    scramble.df = df
    return scramble
