"""Tests for the block bitmap indexes."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from repro.core.stopping import Ordered
from repro.experiments.ground_truth import flights_pandas
from repro.fastframe import bitmap
from repro.fastframe.bitmap import (
    _presence,
    build_column_bitmap,
    build_group_bitmap,
    get_column_bitmap,
    group_bitmap_matrix,
    group_domain,
)
from repro.fastframe.engine import EngineConfig, run_query
from repro.fastframe.queries import QuerySpec
from tests.conftest import frame_scramble


def _block_ids(scramble) -> np.ndarray:
    """Each row's block: rows are in scramble order, in whole blocks."""
    return np.arange(scramble.n_rows) // scramble.block_size


def test_column_bitmap_matches_direct(scramble):
    bm = build_column_bitmap(scramble, "Airline")
    airline = flights_pandas(scramble).Airline.to_numpy()
    block = _block_ids(scramble)
    for i, value in enumerate(bm.values[:5]):
        expected = np.zeros(scramble.n_blocks, dtype=bool)
        expected[block[airline == value]] = True
        assert np.array_equal(bm.matrix[:, i], expected)


def test_bitmap_cached(scramble):
    assert get_column_bitmap(scramble, "Origin") is get_column_bitmap(
        scramble, "Origin"
    )


def test_group_domain_matches_distinct(scramble, flights_pdf):
    dom, _ = group_domain(scramble, ("Airline",))
    assert sorted(g[0] for g in dom) == sorted(flights_pdf.Airline.unique())


def test_pair_domain(scramble, flights_pdf):
    dom, gid = group_domain(scramble, ("DayOfWeek", "Origin"))
    expected = set(
        flights_pdf[["DayOfWeek", "Origin"]].drop_duplicates().itertuples(
            index=False, name=None
        )
    )
    assert set(dom) == expected
    assert dom == sorted(dom)
    pdf = flights_pandas(scramble)[["DayOfWeek", "Origin"]]
    assert [dom[i] for i in gid] == list(pdf.itertuples(index=False, name=None))


@pytest.mark.parametrize("column", ["Origin", "DayOfWeek"])
def test_single_column_row_groups(scramble, column):
    """String codes (Origin) and np.unique codes (DayOfWeek) map rows right."""
    pdf = flights_pandas(scramble)
    want = [(v,) for v in pdf[column]]
    dom, gid = group_domain(scramble, (column,))
    index = group_bitmap_matrix(scramble, (column,))
    assert index.keys == dom == sorted(set(want))
    assert [dom[i] for i in gid] == want
    assert np.array_equal(index.codes, gid)


def test_single_column_group_matrix(scramble):
    """A one-column GROUP BY shares its column's index as is."""
    index = group_bitmap_matrix(scramble, ("Airline",))
    bm = get_column_bitmap(scramble, "Airline")
    assert index is bm
    assert index.keys == [(v,) for v in bm.values]


def test_pair_matrix_is_exact(scramble):
    """F-q6's composite matrix marks exactly the blocks holding each pair."""
    index = group_bitmap_matrix(scramble, ("DayOfWeek", "Origin"))
    groups, matrix = index.keys, index.matrix
    pdf = flights_pandas(scramble)[["DayOfWeek", "Origin"]]
    pdf = pdf.assign(block_id=_block_ids(scramble))
    expected = np.zeros_like(matrix)
    for i, ((d, o), sub) in enumerate(pdf.groupby(["DayOfWeek", "Origin"])):
        assert groups[i] == (d, o)
        expected[sub.block_id.unique(), i] = True
    assert len(groups) == i + 1
    assert np.array_equal(matrix, expected)


def test_matrix_shapes(scramble):
    index = group_bitmap_matrix(scramble, ("Origin",))
    groups, gid, matrix = index.keys, index.codes, index.matrix
    assert gid.shape == (scramble.n_rows,)
    assert matrix.shape == (scramble.n_blocks, len(groups))
    assert matrix.dtype == bool
    # Block-major: a block's groups are one contiguous row.
    assert matrix.flags.c_contiguous


def _sparse_pairs(n=203, seed=5):
    """Rows where only some (DayOfWeek, Origin) pairs occur."""
    rng = np.random.default_rng(seed)
    day = rng.integers(1, 8, n)
    # Each day sees only two of five airports.
    origin = np.array(["AAA", "BBB", "CCC", "DDD", "EEE"])[
        (day + rng.integers(0, 2, n) * 2) % 5
    ]
    return pa.table(
        {"DayOfWeek": day, "Origin": origin, "DepDelay": rng.normal(0, 9, n)}
    )


def test_pair_domain_with_absent_pairs():
    """Key pairs that never occur get no group, and rows map to their pair."""
    rows = _sparse_pairs()
    sc = frame_scramble(rows, block_size=10)
    pdf = rows.to_pandas()
    index = group_bitmap_matrix(sc, ("DayOfWeek", "Origin"))
    groups, gid, matrix = index.keys, index.codes, index.matrix
    pairs = pdf[["DayOfWeek", "Origin"]].drop_duplicates()
    expected = sorted(pairs.itertuples(index=False, name=None))
    assert len(expected) < 7 * 5  # some pairs are absent
    assert groups == expected
    rows = list(pdf[["DayOfWeek", "Origin"]].itertuples(index=False, name=None))
    assert [groups[i] for i in gid] == rows
    assert gid.dtype == np.intp
    want = np.zeros((sc.n_blocks, len(groups)), dtype=bool)
    want[np.arange(len(pdf)) // 10, gid] = True
    assert np.array_equal(matrix, want)
    _assert_counts(index)


def test_pair_groupby_with_absent_pairs_is_exact():
    """F-q6's GROUP BY through the engine on a sparse key domain."""
    rows = _sparse_pairs()
    sc = frame_scramble(rows, block_size=10)
    pdf = rows.to_pandas()
    spec = QuerySpec(
        name="pairs",
        stopping=Ordered(),
        group_cols=("DayOfWeek", "Origin"),
        result_kind="ordered",
    )
    want = pdf.groupby(["DayOfWeek", "Origin"]).DepDelay.agg(["mean", "size"])
    for config in (
        EngineConfig(bounder="exact", strategy="scan"),
        EngineConfig(strategy="active_peek", round_rows=20, start_block=7),
    ):
        res = run_query(sc, spec, config)
        assert res.groups == list(want.index)
        assert np.allclose(res.est, want["mean"].to_numpy(), rtol=1e-12, atol=1e-12)
        assert np.array_equal(res.m, want["size"].to_numpy())


@pytest.mark.parametrize("n_rows", [200, 203, 209])
def test_presence_short_last_block(n_rows):
    """The last block's rows, whole or short, mark its row of the matrix."""
    rng = np.random.default_rng(n_rows)
    codes = rng.integers(0, 5, n_rows).astype(np.intp)
    codes[-1] = 5  # a code only the last row holds
    sc = frame_scramble(pa.table({"x": np.zeros(n_rows)}), block_size=10)
    matrix = _presence(sc, codes, 6)
    want = np.zeros((sc.n_blocks, 6), dtype=bool)
    want[np.arange(n_rows) // 10, codes] = True
    assert matrix.shape == (-(-n_rows // 10), 6)
    assert np.array_equal(matrix, want)
    assert np.flatnonzero(matrix[:, 5]).tolist() == [sc.n_blocks - 1]


def _assert_counts(index):
    """The index's counts are its matrix's column and row sums, as
    read-only ``int32`` arrays."""
    for counts, axis in ((index.block_counts, 0), (index.values_per_block, 1)):
        assert counts.dtype == np.int32
        assert np.array_equal(counts, index.matrix.sum(axis=axis))
        assert not counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            counts[0] += 1


@pytest.mark.parametrize(
    "key", ["Origin", "Airline", "DayOfWeek", ("DayOfWeek", "Origin"), ()]
)
def test_index_counts(scramble, key):
    """Each column's index, the composite's and the one view's carry the
    blocks holding each value and the values each block holds."""
    if isinstance(key, str):
        index = get_column_bitmap(scramble, key)
    else:
        index = group_bitmap_matrix(scramble, key)
    _assert_counts(index)
    assert index.matrix.shape == (scramble.n_blocks, len(index.values))


def test_one_view_index(scramble):
    """No GROUP BY: one view, in every block, with no per-row codes."""
    index = group_bitmap_matrix(scramble, ())
    assert index.keys == [()] and index.codes is None
    assert index.matrix.shape == (scramble.n_blocks, 1) and index.matrix.all()
    assert index.block_counts.tolist() == [scramble.n_blocks]


def test_composite_index_built_once(monkeypatch):
    """A composite key's index is built on first use and cached in the
    scramble under its column tuple: a second lookup scatters nothing."""
    sc = frame_scramble(_sparse_pairs(), block_size=10)
    calls = []

    def presence(*args):
        calls.append(args)
        return _presence(*args)

    monkeypatch.setattr(bitmap, "_presence", presence)
    key = ("DayOfWeek", "Origin")
    first = group_bitmap_matrix(sc, key)
    assert len(calls) == 3  # each column's index, then the composite's
    assert group_bitmap_matrix(sc, list(key)) is first
    assert len(calls) == 3
    assert sc.bitmaps[key] is first and first.column == key
    fresh = build_group_bitmap(sc, key)
    assert fresh.keys == first.keys
    assert np.array_equal(fresh.matrix, first.matrix)
