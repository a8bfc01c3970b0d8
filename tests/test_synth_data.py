"""Tests for the synthetic data generators (FLIGHTS-lite)."""
from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro.synth_data import FLIGHT_AIRLINES, FLIGHT_DELAY_MIN, flights_table


def _buffer_digest(table):
    """sha256 of each column's name, Arrow type and buffers, in order."""
    h = hashlib.sha256()
    for name in table.column_names:
        col = table.column(name).combine_chunks()
        h.update(f"{name}:{col.type}".encode())
        for buf in col.buffers():
            if buf is not None:
                h.update(buf)
    return h.hexdigest()


#: ``_buffer_digest(flights_table(sf=0.001, seed=3))``, pinned from the
#: rows the generator drew when it still built a pandas frame: a changed
#: draw, draw order or sum order changes it.
ROWS_DIGEST = "cf215328b5e801b3364f3628825b4dc85c8eb4fb7f1765620e97095c4263ab99"


def test_flights_schema(flights_df):
    assert flights_df.schema.simpleString() == (
        "struct<Origin:string,Airline:string,DepDelay:double,"
        "DepTime:bigint,DayOfWeek:bigint>"
    )
    assert all(f.nullable for f in flights_df.schema.fields)


def test_flights_row_count(flights_df):
    assert flights_df.count() == int(6_000_000 * 0.005)


def test_flights_is_the_table(flights_df, flights_rows):
    """Spark holds the generator's rows, in order, unchanged."""
    assert flights_df.toArrow().equals(flights_rows)


def test_flights_rows_pinned():
    assert _buffer_digest(flights_table(sf=0.001, seed=3)) == ROWS_DIGEST


def test_flights_table_heap_peak():
    """The generator keeps no Python object per row, and few row-length
    NumPy temporaries: its traced heap peaks at most 128 B per row."""
    flights_table(sf=0.001, seed=7)  # first-call imports and caches
    tracemalloc.start()
    try:
        table = flights_table(sf=0.01, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / table.num_rows <= 128


def test_flights_value_ranges(flights_pdf):
    assert flights_pdf.DepDelay.min() >= FLIGHT_DELAY_MIN
    assert flights_pdf.DepTime.between(300, 1439).all()
    assert flights_pdf.DayOfWeek.between(1, 7).all()


def test_flights_deterministic():
    a = flights_table(sf=0.001, seed=3)
    b = flights_table(sf=0.001, seed=3)
    assert a.equals(b)


def test_flights_seed_changes_data():
    a = flights_table(sf=0.001, seed=3)
    b = flights_table(sf=0.001, seed=4)
    assert not a.column("DepDelay").equals(b.column("DepDelay"))


def test_flights_airline_domain(flights_pdf):
    assert set(flights_pdf.Airline.unique()) <= {c for c, *_ in FLIGHT_AIRLINES}


def test_flights_airline_frequencies_follow_weights(flights_pdf):
    freqs = flights_pdf.Airline.value_counts(normalize=True)
    weights = {c: w for c, w, _, _ in FLIGHT_AIRLINES}
    total = sum(weights.values())
    for code, w in weights.items():
        assert freqs.get(code, 0.0) == pytest.approx(w / total, abs=0.02)


def test_flights_negative_airports_exist(flights_pdf):
    """The F-q5 answer set must be nonempty and sparse."""
    by_ap = flights_pdf.groupby("Origin").DepDelay.agg(["mean", "count"])
    neg = by_ap[by_ap["mean"] < 0]
    assert 3 <= len(neg) <= 8
    assert (neg["count"] / len(flights_pdf) < 0.02).all()


def test_flights_ord_is_delayed_hub(flights_pdf):
    by_ap = flights_pdf.groupby("Origin").DepDelay.agg(["mean", "count"])
    ord_row = by_ap.loc["ORD"]
    assert ord_row["mean"] > 15  # far above the F-q4 threshold of 10
    assert ord_row["count"] / len(flights_pdf) > 0.05  # dense hub
    assert ord_row["mean"] == by_ap["mean"].max()  # the F-q8 answer


def test_flights_late_departures_spread_airlines():
    """F-q3's premise: airline means spread out for later departures."""
    pdf = flights_table(sf=0.02, seed=11).to_pandas()
    early = pdf[pdf.DepTime <= 800].groupby("Airline").DepDelay.mean()
    late = pdf[pdf.DepTime > 1300].groupby("Airline").DepDelay.mean()
    assert late.std() > early.std()


def test_flights_has_outlier_tail():
    pdf = flights_table(sf=0.05, seed=7).to_pandas()
    # The catalog MAX is far beyond any typical per-group range.
    assert pdf.DepDelay.max() > 300
    assert (pdf.DepDelay > 300).mean() < 1e-3


def test_flights_dow_effect_monotone(flights_pdf):
    means = flights_pdf.groupby("DayOfWeek").DepDelay.mean()
    assert means.loc[7] > means.loc[1]  # weekend worse than Monday

