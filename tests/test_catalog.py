"""Tests for the catalog range-bound inference."""
from __future__ import annotations

import numpy as np
import pytest

from repro.fastframe.catalog import Catalog, build_catalog
from repro.fastframe.scramble import ColumnStore


def test_catalog_ranges_match_pandas(scramble, flights_pdf):
    cat = build_catalog(scramble.store)
    for col in ("DepDelay", "DepTime", "DayOfWeek"):
        a, b = cat.bounds(col)
        assert (a, b) == (flights_pdf[col].min(), flights_pdf[col].max())
        assert type(a) is float and type(b) is float


def test_catalog_counts_rows(scramble, flights_pdf):
    assert build_catalog(scramble.store).n_rows == len(flights_pdf)


def test_catalog_covers_all_numeric_columns(scramble):
    cat = build_catalog(scramble.store)
    assert set(cat.ranges) == {"DepDelay", "DepTime", "DayOfWeek"}
    assert "Origin" not in cat.ranges  # strings have no range bounds


def test_catalog_skips_bool_columns():
    store = ColumnStore(
        {"x": np.array([2, -1, 5]), "flag": np.array([True, False, True])}, {}
    )
    cat = build_catalog(store)
    assert cat.ranges == {"x": (-1.0, 5.0)}
    assert cat.n_rows == 3


def test_catalog_rejects_empty_relation():
    with pytest.raises(ValueError, match="empty"):
        build_catalog(ColumnStore({"x": np.array([], dtype=np.float64)}, {}))


def test_catalog_rejects_nan():
    store = ColumnStore({"x": np.array([1.0, np.nan, 3.0])}, {})
    with pytest.raises(ValueError, match="NaN"):
        build_catalog(store)


def test_catalog_unknown_column_raises():
    with pytest.raises(KeyError):
        Catalog(ranges={"x": (0, 1)}).bounds("y")


def test_scramble_carries_catalog(scramble, flights_pdf):
    a, b = scramble.catalog.bounds("DepDelay")
    assert a <= flights_pdf.DepDelay.min() <= flights_pdf.DepDelay.max() <= b
    assert scramble.catalog.n_rows == scramble.n_rows == len(flights_pdf)
