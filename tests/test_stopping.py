"""Tests for stopping conditions 1-6 and their active-group rules."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.stopping import (
    AbsWidth,
    FixedSamples,
    Ordered,
    RelWidth,
    Threshold,
    TopK,
    WidthTarget,
)


def _arrays(est, lo, hi, m=None, exhausted=None):
    est, lo, hi = map(np.asarray, (est, lo, hi))
    m = np.asarray(m if m is not None else np.full(est.shape, 100.0))
    exhausted = np.asarray(
        exhausted if exhausted is not None else np.zeros(est.shape, dtype=bool)
    )
    return est.astype(float), lo.astype(float), hi.astype(float), m, exhausted


# --- condition 1: fixed samples -------------------------------------------

def test_fixed_samples_active_until_target():
    cond = FixedSamples(m_target=100)
    v = cond.evaluate(*_arrays([0, 0], [0, 0], [0, 0], m=[50, 150]))
    assert not v.done
    assert v.active.tolist() == [True, False]


def test_fixed_samples_done():
    cond = FixedSamples(m_target=10)
    v = cond.evaluate(*_arrays([0], [0], [0], m=[10]))
    assert v.done and not v.active.any()


# --- condition 2: absolute width ------------------------------------------

@pytest.mark.parametrize(
    "width,expect_done", [(0.5, True), (2.0, False)]
)
def test_abs_width(width, expect_done):
    cond = AbsWidth(eps=1.0)
    v = cond.evaluate(*_arrays([5], [5 - width / 2], [5 + width / 2]))
    assert v.done is expect_done


# --- condition 3: relative width ------------------------------------------

def test_rel_width_done_when_tight():
    cond = RelWidth(eps=0.5)
    v = cond.evaluate(*_arrays([10], [9], [11]))
    assert v.done


def test_rel_width_active_when_loose():
    cond = RelWidth(eps=0.1)
    v = cond.evaluate(*_arrays([10], [2], [30]))
    assert not v.done and v.active.tolist() == [True]


def test_rel_width_formula():
    cond = RelWidth(eps=0.25)
    rel = cond.relative_error(np.array([10.0]), np.array([8.0]), np.array([12.0]))
    assert rel[0] == pytest.approx(max(2 / 12, 2 / 8))


# --- COUNT/SUM width target ----------------------------------------------

def test_width_target_abs_or_rel():
    # widths 20, 2 and 2e-13; the relative target floors |est| at 1e-12
    args = _arrays([100, 100, 0], [90, 99, -1e-13], [110, 101, 1e-13])

    def active(**eps):
        return WidthTarget(**eps).evaluate(*args).active.tolist()

    assert active(abs_eps=5) == [True, False, False]
    assert active(rel_eps=0.1) == [True, False, True]
    assert active(rel_eps=0.5) == [False, False, False]
    assert active(abs_eps=5, rel_eps=0.1) == [True, False, False]


def test_width_target_unset_stops_only_at_exhaustion():
    args = _arrays([1, 1], [1, 1], [1, 1], exhausted=[True, False])
    v = WidthTarget().evaluate(*args)
    assert not v.done and v.active.tolist() == [False, True]


# --- condition 4: threshold -----------------------------------------------

def test_threshold_resolution_both_sides():
    cond = Threshold(v=0.0)
    v = cond.evaluate(*_arrays([5, -5, 1], [2, -9, -1], [9, -2, 3]))
    assert not v.done
    assert v.active.tolist() == [False, False, True]


def test_threshold_decisions():
    cond = Threshold(v=10.0)
    above = cond.decide_above(
        np.array([20.0, 5.0, 11.0]),
        np.array([15.0, 1.0, 11.0]),
        np.array([25.0, 8.0, 11.0]),
    )
    assert above.tolist() == [True, False, True]


def test_threshold_exhausted_group_never_active():
    cond = Threshold(v=0.0)
    v = cond.evaluate(*_arrays([0.0], [0.0], [0.0], exhausted=[True]))
    assert v.done and not v.active.any()


# --- condition 5: top-K ----------------------------------------------------

def test_topk_largest_separated():
    cond = TopK(k=1, largest=True)
    v = cond.evaluate(*_arrays([10, 5, 4], [9, 4, 3], [11, 6, 5]))
    assert v.done  # lo(top)=9 > max hi(rest)=6


def test_topk_largest_not_separated_active_sets():
    cond = TopK(k=1, largest=True)
    # top est=10 (lo crosses midpoint 7.5? lo=6 yes); rest: hi crossing 7.5
    v = cond.evaluate(*_arrays([10, 5, 4], [6, 4, 3], [12, 8, 5]))
    assert not v.done
    assert v.active.tolist() == [True, True, False]


def test_topk_smallest_separated():
    cond = TopK(k=2, largest=False)
    v = cond.evaluate(*_arrays([1, 2, 10, 11], [0, 1, 9, 10], [2, 3, 11, 12]))
    assert v.done  # max hi(bottom-2)=3 < min lo(rest)=9


def test_topk_smallest_active_rule():
    cond = TopK(k=2, largest=False)
    # midpoint between est[1]=2 and est[2]=6 is 4
    v = cond.evaluate(*_arrays([1, 2, 6, 11], [0, 1, 3, 10], [2, 5, 7, 12]))
    assert not v.done
    # bottom-2 group 1 has hi=5 >= 4 -> active; group 0 hi=2 < 4 -> not
    assert v.active.tolist() == [False, True, True, False]


def test_topk_tied_exhausted_falls_back_to_unexhausted():
    """Exhausted groups tied at the K-th estimate are not separated, and the
    midpoint rule marks nothing active: every unexhausted group is."""
    cond = TopK(k=1, largest=True)
    v = cond.evaluate(
        *_arrays([5, 5, 1], [5, 5, 0], [5, 5, 2], exhausted=[True, True, False])
    )
    assert not v.done
    assert v.active.tolist() == [False, False, True]


def test_topk_fewer_groups_than_k_is_done():
    cond = TopK(k=5, largest=True)
    v = cond.evaluate(*_arrays([1, 2], [0, 1], [2, 3]))
    assert v.done


def test_topk_select_order():
    cond = TopK(k=2, largest=True)
    sel = cond.select(np.array([3.0, 9.0, 7.0]))
    assert sel.tolist() == [1, 2]
    cond = TopK(k=2, largest=False)
    assert cond.select(np.array([3.0, 9.0, 7.0])).tolist() == [0, 2]


# --- condition 6: ordered --------------------------------------------------

def test_ordered_done_when_disjoint():
    cond = Ordered()
    v = cond.evaluate(*_arrays([1, 5, 9], [0, 4, 8], [2, 6, 10]))
    assert v.done and not v.active.any()


def test_ordered_overlapping_pair_active():
    cond = Ordered()
    v = cond.evaluate(*_arrays([1, 5, 6], [0, 4, 5.5], [2, 5.8, 7]))
    assert not v.done
    assert v.active.tolist() == [False, True, True]


def test_ordered_single_group_trivially_done():
    cond = Ordered()
    v = cond.evaluate(*_arrays([1], [0], [2]))
    assert v.done


def test_ordered_all_overlap():
    cond = Ordered()
    v = cond.evaluate(*_arrays([1, 2, 3], [0, 0, 0], [5, 5, 5]))
    assert not v.done and v.active.all()


# --- exhausted interplay ---------------------------------------------------

def test_exhausted_groups_never_active_any_condition():
    exhausted = [True, False]
    for cond in (
        FixedSamples(10**9),
        AbsWidth(1e-9),
        RelWidth(1e-9),
        Threshold(0.0),
        Ordered(),
        WidthTarget(abs_eps=1e-9),
    ):
        v = cond.evaluate(
            *_arrays([1, 1], [-100, -100], [100, 100], exhausted=exhausted)
        )
        assert not v.active[0]
