"""Tests for the block bitmap indexes."""
from __future__ import annotations

import numpy as np
import pytest

from repro.fastframe.bitmap import (
    build_column_bitmap,
    get_column_bitmap,
    group_bitmap_matrix,
    group_domain,
)


def test_column_bitmap_matches_direct(scramble, flights_pdf):
    bm = build_column_bitmap(scramble, "Airline")
    pdf = scramble.df.select("Airline", "block_id").toPandas()
    for value in bm.values[:5]:
        expected = np.zeros(scramble.n_blocks, dtype=bool)
        expected[pdf[pdf.Airline == value].block_id.unique()] = True
        assert np.array_equal(bm.row(value), expected)


def test_column_bitmap_unknown_value(scramble):
    bm = get_column_bitmap(scramble, "Airline")
    with pytest.raises(KeyError):
        bm.row("NOPE")


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
    pdf = scramble.df.orderBy("row_id").select("DayOfWeek", "Origin").toPandas()
    assert [dom[i] for i in gid] == list(pdf.itertuples(index=False, name=None))


@pytest.mark.parametrize("column", ["Origin", "DayOfWeek"])
def test_single_column_row_groups(scramble, column):
    """String codes (Origin) and np.unique codes (DayOfWeek) map rows right."""
    pdf = scramble.df.orderBy("row_id").select(column).toPandas()
    want = [(v,) for v in pdf[column]]
    dom, gid = group_domain(scramble, (column,))
    groups, gid_m, _ = group_bitmap_matrix(scramble, (column,))
    assert groups == dom == sorted(set(want))
    assert [dom[i] for i in gid] == want
    assert np.array_equal(gid_m, gid)


def test_single_column_group_matrix(scramble):
    groups, _, matrix = group_bitmap_matrix(scramble, ("Airline",))
    bm = get_column_bitmap(scramble, "Airline")
    for i, g in enumerate(groups):
        assert np.array_equal(matrix[:, i], bm.row(g[0]))


def test_pair_matrix_is_exact(scramble):
    """F-q6's composite matrix marks exactly the blocks holding each pair."""
    groups, _, matrix = group_bitmap_matrix(scramble, ("DayOfWeek", "Origin"))
    pdf = scramble.df.select("DayOfWeek", "Origin", "block_id").toPandas()
    expected = np.zeros_like(matrix)
    for i, ((d, o), sub) in enumerate(pdf.groupby(["DayOfWeek", "Origin"])):
        assert groups[i] == (d, o)
        expected[sub.block_id.unique(), i] = True
    assert len(groups) == i + 1
    assert np.array_equal(matrix, expected)


def test_matrix_shapes(scramble):
    groups, gid, matrix = group_bitmap_matrix(scramble, ("Origin",))
    assert gid.shape == (scramble.n_rows,)
    assert matrix.shape == (scramble.n_blocks, len(groups))
    assert matrix.dtype == bool
    # Block-major: a block's groups are one contiguous row.
    assert matrix.flags.c_contiguous
