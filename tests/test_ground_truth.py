"""Unit tests for exact-decision computation and decision matching."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.experiments.ground_truth import (
    decision_correct,
    exact_decision,
    flights_pandas,
)
from repro.fastframe import queries as Q
from repro.fastframe.engine import QueryResult
from repro.synth_data import flights_table
from tests.conftest import frame_scramble


def _fake_result(spec, decision, lo=0.0, hi=0.0):
    return QueryResult(
        query=spec.name,
        label="test",
        strategy="scan",
        groups=[],
        est=np.array([]),
        lo=np.array([]),
        hi=np.array([]),
        m=np.array([]),
        decision=decision,
        blocks_fetched=0,
        rows_scanned=0,
        rounds=0,
        wall_seconds=0.0,
        index_probes=0,
        exhausted_all=False,
        crossings=0,
    )


@pytest.fixture(scope="module")
def tiny_flights():
    return pd.DataFrame(
        {
            "Origin": ["ORD", "ORD", "AAA", "AAA", "BBB", "BBB"],
            "Airline": ["HP", "WN", "HP", "WN", "HP", "WN"],
            "DepDelay": [30.0, 20.0, -5.0, -3.0, 6.0, 8.0],
            "DepTime": [900, 1400, 1400, 1000, 900, 1400],
            "DayOfWeek": [1, 2, 1, 2, 1, 2],
        }
    )


def test_truth_of_a_scramble_built_without_spark():
    """A scramble built without Spark takes its truth from its store's rows."""
    flights = flights_table(sf=0.0005, seed=1)
    rows = flights_pandas(frame_scramble(flights))
    flights = flights.to_pandas()
    for name, make in Q.ALL_QUERIES.items():
        spec = make()
        assert exact_decision(spec, rows) == exact_decision(spec, flights), name


def test_exact_avg(tiny_flights):
    assert exact_decision(Q.fq1("ORD"), tiny_flights) == pytest.approx(25.0)


def test_exact_having_above(tiny_flights):
    got = exact_decision(Q.fq2(thresh=5.0), tiny_flights)
    assert got == ["HP", "WN"]  # HP avg 31/3, WN avg 25/3


def test_exact_having_below(tiny_flights):
    got = exact_decision(Q.fq5(), tiny_flights)
    assert got == ["AAA"]


def test_exact_case(tiny_flights):
    assert exact_decision(Q.fq4(), tiny_flights) == 1


def test_exact_topk(tiny_flights):
    got = exact_decision(Q.fq9(), tiny_flights)
    assert got == ["HP"]


def test_exact_ordered(tiny_flights):
    got = exact_decision(Q.fq7(), tiny_flights)  # HP by DayOfWeek
    # HP rows: dow1 -> (30 + -5 + 6)/3 = 31/3; dow2 none... only dow1
    assert got == [1]


def test_decision_correct_having_order_insensitive(tiny_flights):
    spec = Q.fq5()
    res = _fake_result(spec, ["AAA"])
    assert decision_correct(spec, res, ["AAA"])
    res_bad = _fake_result(spec, ["BBB"])
    assert not decision_correct(spec, res_bad, ["AAA"])


def test_decision_correct_topk_set_semantics():
    spec = Q.fq9()
    assert decision_correct(spec, _fake_result(spec, ["HP"]), ["HP"])
    assert not decision_correct(spec, _fake_result(spec, ["WN"]), ["HP"])


def test_decision_correct_ordered_requires_exact_order():
    spec = Q.fq7()
    good = _fake_result(spec, [(1, 0.0, 0.0, 0.0), (2, 1.0, 1.0, 1.0)])
    bad = _fake_result(spec, [(2, 1.0, 1.0, 1.0), (1, 0.0, 0.0, 0.0)])
    assert decision_correct(spec, good, [1, 2])
    assert not decision_correct(spec, bad, [1, 2])


def test_decision_correct_avg_requires_enclosure_and_rel_error():
    spec = Q.fq1("ORD", eps=0.5)
    good = _fake_result(spec, {"avg": 24.0, "lo": 20.0, "hi": 30.0})
    assert decision_correct(spec, good, 25.0)
    not_enclosing = _fake_result(spec, {"avg": 24.0, "lo": 26.0, "hi": 30.0})
    assert not decision_correct(spec, not_enclosing, 25.0)
    too_far = _fake_result(spec, {"avg": 5.0, "lo": 0.0, "hi": 30.0})
    assert not decision_correct(spec, too_far, 25.0)


def test_decision_correct_case():
    spec = Q.fq4()
    assert decision_correct(spec, _fake_result(spec, 1), 1)
    assert not decision_correct(spec, _fake_result(spec, 0), 1)
