"""Tests for the OptStop schedule and running intersection (Algorithm 5)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.optstop import RunningIntersection, round_delta, schedule_total


def test_round_delta_formula():
    delta = 1e-6
    assert round_delta(delta, 1) == pytest.approx(6 / math.pi**2 * delta)
    assert round_delta(delta, 4) == pytest.approx(6 / math.pi**2 * delta / 16)


def test_round_delta_rejects_bad_round():
    with pytest.raises(ValueError):
        round_delta(0.1, 0)


@pytest.mark.parametrize("n_rounds", [1, 10, 1000])
def test_schedule_never_exceeds_delta(n_rounds):
    """Theorem 4: the union bound over rounds telescopes to <= delta."""
    delta = 0.05
    assert schedule_total(delta, n_rounds) <= delta + 1e-15


def test_schedule_converges_to_delta():
    assert schedule_total(1.0, 200_000) == pytest.approx(1.0, abs=1e-4)


def test_running_intersection_tightens_monotonically():
    ri = RunningIntersection(3, a=0.0, b=100.0)
    ri.update(np.array([10.0, 0.0, 5.0]), np.array([90.0, 100.0, 50.0]))
    assert ri.lo.tolist() == [10.0, 0.0, 5.0]
    ri.update(np.array([5.0, 20.0, 8.0]), np.array([80.0, 95.0, 60.0]))
    # lower bounds only rise, upper bounds only fall
    assert ri.lo.tolist() == [10.0, 20.0, 8.0]
    assert ri.hi.tolist() == [80.0, 95.0, 50.0]


def test_running_intersection_conflict_degrades_gracefully():
    ri = RunningIntersection(1, a=0.0, b=100.0)
    ri.update(np.array([60.0]), np.array([100.0]))
    ri.update(np.array([0.0]), np.array([40.0]))  # disjoint: < delta event
    assert ri.lo[0] == ri.hi[0]  # degenerate midpoint, no crash
    assert 0.0 <= ri.lo[0] <= 100.0
    assert ri.crossings == 1


def test_running_intersection_counts_crossed_groups():
    ri = RunningIntersection(3, a=0.0, b=100.0)
    ri.update(np.array([10.0, 60.0, 70.0]), np.array([50.0, 90.0, 95.0]))
    assert ri.crossings == 0
    # Groups 1 and 2 miss their running intervals; group 0 does not.
    ri.update(np.array([20.0, 0.0, 96.0]), np.array([40.0, 40.0, 99.0]))
    assert ri.crossings == 2
    assert ri.lo.tolist() == [20.0, 50.0, 95.5] and ri.hi.tolist() == [40.0, 50.0, 95.5]
    # A collapsed interval that the next round misses crosses again.
    ri.update(np.array([0.0, 0.0, 0.0]), np.array([100.0, 45.0, 100.0]))
    assert ri.crossings == 3


def test_sequential_coverage_monte_carlo():
    """A full OptStop run (rounds + intersection) keeps its guarantee."""
    from repro.core.bounders import HoeffdingSerfling
    from repro.core.stats import GroupStats

    rng = np.random.default_rng(0)
    pop = rng.uniform(0, 100, 2000)
    mu = pop.mean()
    delta = 0.2
    h = HoeffdingSerfling()
    failures, trials = 0, 150
    for _ in range(trials):
        perm = rng.permutation(len(pop))
        s = GroupStats()
        ri = RunningIntersection(1, 0.0, 100.0)
        covered = True
        idx = 0
        for k in range(1, 11):  # 10 rounds of 50 samples
            for _ in range(50):
                s.update(pop[perm[idx]])
                idx += 1
            dk = round_delta(delta, k)
            lo, hi = h.ci(s, 0.0, 100.0, len(pop), dk)
            ri.update(np.array([lo]), np.array([hi]))
            if not (ri.lo[0] <= mu <= ri.hi[0]):
                covered = False
        if not covered:
            failures += 1
    assert failures / trials <= delta
