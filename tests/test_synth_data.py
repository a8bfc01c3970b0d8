"""Tests for the synthetic data generators (FLIGHTS-lite)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.synth_data import FLIGHT_AIRLINES, FLIGHT_DELAY_MIN, flights_frame
from tests.conftest import TEST_SEED, TEST_SF


def test_flights_schema(flights_df):
    assert set(flights_df.columns) == {
        "Origin",
        "Airline",
        "DepDelay",
        "DepTime",
        "DayOfWeek",
    }


def test_flights_row_count(flights_df):
    assert flights_df.count() == int(6_000_000 * 0.005)


def test_flights_is_the_frame(flights_pdf):
    """Spark holds the generator's rows, in order, unchanged."""
    assert flights_pdf.equals(flights_frame(sf=TEST_SF, seed=TEST_SEED))


def test_flights_value_ranges(flights_pdf):
    assert flights_pdf.DepDelay.min() >= FLIGHT_DELAY_MIN
    assert flights_pdf.DepTime.between(300, 1439).all()
    assert flights_pdf.DayOfWeek.between(1, 7).all()


def test_flights_deterministic():
    a = flights_frame(sf=0.001, seed=3)
    b = flights_frame(sf=0.001, seed=3)
    assert a.equals(b)


def test_flights_seed_changes_data():
    a = flights_frame(sf=0.001, seed=3)
    b = flights_frame(sf=0.001, seed=4)
    assert not a.DepDelay.equals(b.DepDelay)


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
    pdf = flights_frame(sf=0.02, seed=11)
    early = pdf[pdf.DepTime <= 800].groupby("Airline").DepDelay.mean()
    late = pdf[pdf.DepTime > 1300].groupby("Airline").DepDelay.mean()
    assert late.std() > early.std()


def test_flights_has_outlier_tail():
    pdf = flights_frame(sf=0.05, seed=7)
    # The catalog MAX is far beyond any typical per-group range.
    assert pdf.DepDelay.max() > 300
    assert (pdf.DepDelay > 300).mean() < 1e-3


def test_flights_dow_effect_monotone(flights_pdf):
    means = flights_pdf.groupby("DayOfWeek").DepDelay.mean()
    assert means.loc[7] > means.loc[1]  # weekend worse than Monday

