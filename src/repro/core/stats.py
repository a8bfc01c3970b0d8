"""Streaming sample statistics: the state of the scalar bounders.

Hoeffding-Serfling and empirical Bernstein-Serfling need only the tuple
``(m, sum, sumsq, min, max)`` of the sample seen so far.
:class:`GroupStats` is that tuple for one sample, updated one value at
a time; it is the state of the scalar streaming bounders in
:mod:`repro.core.bounders` (and, through them, of the inner states of
:class:`repro.core.range_trim.RangeTrim`).

The scan engine keeps the same five statistics as per-group arrays and
turns them into intervals with :func:`repro.core.vectorized.ci`, the one
batch implementation of the CI formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class GroupStats:
    """Streaming moments + extremes of a sample (one aggregate view)."""

    m: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf

    def update(self, v: float) -> None:
        """Fold one observed value into the state."""
        self.m += 1
        self.total += v
        self.total_sq += v * v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    @property
    def mean(self) -> float:
        if self.m == 0:
            raise ValueError("mean of empty sample")
        return self.total / self.m

    @property
    def variance(self) -> float:
        """Biased (1/m) sample variance, as used by Bardenet-Maillard."""
        if self.m == 0:
            raise ValueError("variance of empty sample")
        v = self.total_sq / self.m - self.mean**2
        return max(0.0, v)  # clamp float cancellation

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def from_values(values) -> GroupStats:
    """Build a :class:`GroupStats` from an iterable of numbers."""
    s = GroupStats()
    for v in values:
        s.update(float(v))
    return s
