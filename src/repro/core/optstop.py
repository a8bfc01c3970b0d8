"""OptStop (paper Algorithm 5): optional stopping without a fixed m.

Samples are taken in rounds; at the end of round ``k`` the bounder is
invoked with the decayed budget ``delta'_k = (6/pi^2) * delta / k^2``,
so that the union bound over all rounds telescopes back to exactly
``delta`` (Theorem 4, via ``sum 1/k^2 = pi^2/6``).

Because the tighter of two valid CIs is not itself a valid CI, the
procedure's output interval is the *running intersection*
``[max_k L_k, min_k R_k]`` — which Theorem 4 shows contains the true
aggregate w.p. >= 1-delta. :class:`RunningIntersection` maintains that
per group for the scan engine.
"""
from __future__ import annotations

import math

import numpy as np

_SCHEDULE_CONST = 6.0 / math.pi**2


def round_delta(delta: float, k: int) -> float:
    """Budget for round k (1-indexed): (6/pi^2) * delta / k^2."""
    if k < 1:
        raise ValueError(f"round index must be >= 1, got {k}")
    return _SCHEDULE_CONST * delta / k**2


def schedule_total(delta: float, n_rounds: int) -> float:
    """Partial sum of the schedule — tests assert it never exceeds delta."""
    return sum(round_delta(delta, k) for k in range(1, n_rounds + 1))


class RunningIntersection:
    """Per-group running intersection of the per-round intervals."""

    def __init__(self, n_groups: int, a: float, b: float):
        self.lo = np.full(n_groups, a, dtype=np.float64)
        self.hi = np.full(n_groups, b, dtype=np.float64)
        self.crossings = 0

    def update(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Fold round-k intervals in, in place: lo = max(lo, L_k), hi = min(hi, R_k).

        An empty intersection is a probability-<delta event (some round's
        interval missed the truth); it collapses to the midpoint as a
        degenerate interval rather than crash, and ``crossings`` counts
        the groups it happened to.
        """
        np.maximum(self.lo, lo, out=self.lo)
        np.minimum(self.hi, hi, out=self.hi)
        crossed = self.lo > self.hi
        if crossed.any():  # < delta probability; degrade gracefully
            self.crossings += int(np.count_nonzero(crossed))
            mid = 0.5 * (self.lo + self.hi)
            np.copyto(self.lo, mid, where=crossed)
            np.copyto(self.hi, mid, where=crossed)
