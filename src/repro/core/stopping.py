"""Stopping conditions 1-6 and their active-group rules (paper §4.2-4.3).

Each condition consumes the current per-group point estimates and
confidence bounds and reports:

* ``done`` — whether the query can terminate now, and
* ``active`` — the boolean mask of groups that should be prioritized
  for further sampling (the active-scanning rules of Section 4.3).

Groups whose views have been fully read (``exhausted``) have width-0
intervals and are never active.

The numbered conditions match the paper:

1. :class:`FixedSamples`   — desired samples taken (c >= m)
2. :class:`AbsWidth`       — sufficient absolute accuracy
3. :class:`RelWidth`       — sufficient relative accuracy
4. :class:`Threshold`      — threshold side determined
5. :class:`TopK`           — top- or bottom-K separated
6. :class:`Ordered`        — groups ordered correctly

:class:`WidthTarget` is the COUNT/SUM rule: an absolute or a relative
width target on the interval itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_TINY = 1e-12


@dataclass
class Verdict:
    done: bool
    active: np.ndarray  # bool mask over groups


class StoppingCondition:
    number: int

    def evaluate(
        self,
        est: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        m: np.ndarray,
        exhausted: np.ndarray,
    ) -> Verdict:
        raise NotImplementedError

    def _finish(self, active: np.ndarray, exhausted: np.ndarray) -> Verdict:
        active = np.logical_and(active, ~exhausted)
        return Verdict(done=not bool(active.any()), active=active)


@dataclass
class FixedSamples(StoppingCondition):
    """Condition 1: stop once every group has m_target contributing tuples."""

    m_target: int
    number = 1

    def evaluate(self, est, lo, hi, m, exhausted):
        return self._finish(m < self.m_target, exhausted)


@dataclass
class AbsWidth(StoppingCondition):
    """Condition 2: stop when every interval is narrower than eps."""

    eps: float
    number = 2

    def evaluate(self, est, lo, hi, m, exhausted):
        return self._finish((hi - lo) >= self.eps, exhausted)


@dataclass
class RelWidth(StoppingCondition):
    """Condition 3: stop when max{(g_r-g)/g_r, (g-g_l)/g_l} < eps per group.

    Denominators are taken in absolute value (delays may be negative)
    and floored away from zero, a guard the paper does not need because
    its F-q1 aggregates are positive.
    """

    eps: float
    number = 3

    def relative_error(self, est, lo, hi):
        dr = np.maximum(np.abs(hi), _TINY)
        dl = np.maximum(np.abs(lo), _TINY)
        return np.maximum((hi - est) / dr, (est - lo) / dl)

    def evaluate(self, est, lo, hi, m, exhausted):
        return self._finish(self.relative_error(est, lo, hi) >= self.eps, exhausted)


@dataclass
class WidthTarget(StoppingCondition):
    """The COUNT/SUM width target: stop once
    ``width < rel_eps * max(|est|, 1e-12)``; with ``rel_eps`` None, only
    exhaustion stops."""

    rel_eps: Optional[float] = None
    number = 3

    def evaluate(self, est, lo, hi, m, exhausted):
        width = hi - lo
        met = np.zeros(width.shape, dtype=bool)
        if self.rel_eps is not None:
            met = width < self.rel_eps * np.maximum(np.abs(est), _TINY)
        return self._finish(~met, exhausted)


@dataclass
class Threshold(StoppingCondition):
    """Condition 4: stop when no interval still contains the threshold v."""

    v: float
    number = 4

    def evaluate(self, est, lo, hi, m, exhausted):
        return self._finish((lo <= self.v) & (self.v <= hi), exhausted)

    def decide_above(self, est, lo, hi) -> np.ndarray:
        """Per-group decision: is the true aggregate above v?

        For resolved groups this is determined by the bounds; exhausted
        groups fall back to the (now exact) estimate.
        """
        return np.where(lo > self.v, True, np.where(hi < self.v, False, est > self.v))


@dataclass
class TopK(StoppingCondition):
    """Condition 5: top-K (largest=True) or bottom-K separated.

    Done when no CI of the current top-K (by point estimate) intersects
    any CI of the remaining groups. Active rule (paper §4.3): with the
    midpoint between the K-th and (K+1)-th estimates, a top-K group is
    active if its far bound crosses the midpoint, and a remaining group
    if its near bound does.
    """

    k: int
    largest: bool = True
    number = 5

    def evaluate(self, est, lo, hi, m, exhausted):
        n = est.shape[0]
        if n <= self.k:  # nothing to separate from
            return Verdict(done=True, active=np.zeros(n, dtype=bool))
        key = -est if self.largest else est
        order = np.argsort(key, kind="stable")
        sel, rest = order[: self.k], order[self.k :]
        midpoint = 0.5 * (est[order[self.k - 1]] + est[order[self.k]])
        active = np.zeros(n, dtype=bool)
        if self.largest:
            active[sel] = lo[sel] <= midpoint
            active[rest] = hi[rest] >= midpoint
            separated = lo[sel].min() > hi[rest].max()
        else:
            active[sel] = hi[sel] >= midpoint
            active[rest] = lo[rest] <= midpoint
            separated = hi[sel].max() < lo[rest].min()
        active &= ~exhausted
        # The midpoint heuristic can momentarily mark nothing active while
        # intervals still overlap (e.g. boundary ties); separation is the
        # authoritative stop signal.
        if not separated and not active.any():
            active = ~exhausted
        return Verdict(done=bool(separated), active=active)

    def select(self, est) -> np.ndarray:
        key = -est if self.largest else est
        return np.argsort(key, kind="stable")[: self.k]


@dataclass
class Ordered(StoppingCondition):
    """Condition 6: all group intervals pairwise disjoint (order determined)."""

    number = 6

    def evaluate(self, est, lo, hi, m, exhausted):
        n = est.shape[0]
        if n <= 1:
            return Verdict(done=True, active=np.zeros(n, dtype=bool))
        order = np.argsort(lo, kind="stable")
        lo_s, hi_s = lo[order], hi[order]
        # Sorted by lower bound, pairwise disjointness reduces to each
        # interval ending before the next begins.
        overlap_next = hi_s[:-1] >= lo_s[1:]
        active_s = np.zeros(n, dtype=bool)
        active_s[:-1] |= overlap_next
        active_s[1:] |= overlap_next
        active = np.zeros(n, dtype=bool)
        active[order] = active_s
        return self._finish(active, exhausted)
