"""SSI error bounders, in the paper's Section 2.2.2 interface.

Each bounder exposes ``init_state`` / ``update_state`` / ``lbound`` /
``rbound``. ``lbound(S, a, b, N, delta)`` returns a value that exceeds
``AVG(D)`` with probability < ``delta`` for *any* sample size, assuming
``S`` summarizes a uniform without-replacement sample from a dataset of
``N`` values in ``[a, b]`` (sample-size-independent semantics,
Definition 1). A two-sided ``(1-delta)`` CI is
``[lbound(delta/2), rbound(delta/2)]`` via the union bound — use
:meth:`Bounder.ci`.

Implemented bounders:

* :class:`HoeffdingSerfling` — Algorithm 1; width depends only on
  ``(b-a)``, ``m`` and the sampling fraction (so it exhibits both PMA
  and PHOS).
* :class:`EmpiricalBernsteinSerfling` — Algorithm 2, using the
  one-sided empirical Bernstein-Serfling inequality of Bardenet &
  Maillard (2015), Theorem 3: no PMA (variance-sensitive) but PHOS.
* :class:`AndersonDKW` — Algorithm 3; nonparametric CDF-based bounds
  (PMA but no PHOS). O(m) state. Valid without replacement by the
  paper's Theorem 1.

All bounders satisfy the dataset-size monotonicity property (Section 3.3):
a larger ``N`` only loosens the bounds — which is what makes the online
``N+`` upper bound of Theorem 3 safe to plug in.
"""
from __future__ import annotations

import bisect
import math
from typing import List

import numpy as np

from repro.core.stats import GroupStats

#: kappa constant of the empirical Bernstein-Serfling inequality
#: (Bardenet & Maillard 2015, Theorem 3).
BERNSTEIN_KAPPA = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)


def _check(a: float, b: float, N: int, delta: float) -> None:
    if not (b >= a):
        raise ValueError(f"range bounds must satisfy a <= b, got [{a}, {b}]")
    if N < 1:
        raise ValueError(f"dataset size N must be >= 1, got {N}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")


class Bounder:
    """Base class: the Section 2.2.2 interface plus the CI helper."""

    def init_state(self):
        raise NotImplementedError

    def update_state(self, state, v: float):
        raise NotImplementedError

    def lbound(self, state, a: float, b: float, N: int, delta: float) -> float:
        raise NotImplementedError

    def rbound(self, state, a: float, b: float, N: int, delta: float) -> float:
        raise NotImplementedError

    def ci(self, state, a: float, b: float, N: int, delta: float):
        """(1-delta) confidence interval via a union bound over sides."""
        return (
            self.lbound(state, a, b, N, delta / 2.0),
            self.rbound(state, a, b, N, delta / 2.0),
        )


class HoeffdingSerfling(Bounder):
    """Algorithm 1: Hoeffding-Serfling error bounder.

    ``eps = (b-a) * sqrt(log(1/delta) / (2m) * rho)`` with the Serfling
    sampling-fraction factor ``rho = 1 - (m-1)/N``. On the 0/1
    view-membership column (``a, b = 0, 1``) it is also the half-width of
    the COUNT interval (Lemma 5) and of ``N+`` (Theorem 3).
    """

    name = "hoeffding"

    def init_state(self) -> GroupStats:
        return GroupStats()

    def update_state(self, state: GroupStats, v: float) -> GroupStats:
        state.update(v)
        return state

    @staticmethod
    def epsilon(m: int, a: float, b: float, N: int, delta: float) -> float:
        """One Python float. The log is ``np.log``: ``math.log`` can differ
        in the last bit, and the engine's COUNT intervals are pinned byte
        for byte."""
        rho = max(0.0, 1.0 - (m - 1) / N)
        return (b - a) * math.sqrt(float(np.log(1.0 / delta)) / (2.0 * m) * rho)

    def lbound(self, state: GroupStats, a, b, N, delta) -> float:
        _check(a, b, N, delta)
        if state.m == 0:
            return a
        eps = self.epsilon(state.m, a, b, N, delta)
        return min(b, max(a, state.mean - eps))

    def rbound(self, state: GroupStats, a, b, N, delta) -> float:
        _check(a, b, N, delta)
        if state.m == 0:
            return b
        eps = self.epsilon(state.m, a, b, N, delta)
        return min(b, max(a, state.mean + eps))


def bernstein_rho(m: int, N: int) -> float:
    """Serfling-style sampling-fraction factor of Bardenet-Maillard.

    ``rho = 1-(m-1)/N`` for m <= N/2, else ``(1-m/N)(1+1/m)``.
    """
    if m <= N / 2.0:
        rho = 1.0 - (m - 1) / N
    else:
        rho = (1.0 - m / N) * (1.0 + 1.0 / m)
    return max(0.0, rho)


class EmpiricalBernsteinSerfling(Bounder):
    """Algorithm 2: empirical Bernstein-Serfling error bounder.

    One-sided bound (Bardenet & Maillard 2015, Thm 3): w.p. >= 1-delta,
    ``mu - mean <= sigma_hat*sqrt(2*rho*log(5/delta)/m)
    + kappa*(b-a)*log(5/delta)/m`` with ``kappa = 7/3 + 3/sqrt(2)``.
    Variance-sensitive, hence no PMA; the ``(b-a)`` term on both sides
    is the PHOS that RangeTrim removes.
    """

    name = "bernstein"

    def init_state(self) -> GroupStats:
        return GroupStats()

    def update_state(self, state: GroupStats, v: float) -> GroupStats:
        state.update(v)
        return state

    @staticmethod
    def epsilon(
        m: int, sigma_hat: float, a: float, b: float, N: int, delta: float
    ) -> float:
        rho = bernstein_rho(m, N)
        log_term = math.log(5.0 / delta)
        return sigma_hat * math.sqrt(
            2.0 * rho * log_term / m
        ) + BERNSTEIN_KAPPA * (b - a) * log_term / m

    def lbound(self, state: GroupStats, a, b, N, delta) -> float:
        _check(a, b, N, delta)
        if state.m == 0:
            return a
        eps = self.epsilon(state.m, state.std, a, b, N, delta)
        return min(b, max(a, state.mean - eps))

    def rbound(self, state: GroupStats, a, b, N, delta) -> float:
        _check(a, b, N, delta)
        if state.m == 0:
            return b
        eps = self.epsilon(state.m, state.std, a, b, N, delta)
        return min(b, max(a, state.mean + eps))


class AndersonDKW(Bounder):
    """Algorithm 3: Anderson/DKW error bounder.

    Keeps the full sorted sample (O(m) memory). The lower bound places
    the unexplained ``eps`` CDF mass at ``a`` and averages the lowest
    ``(1-eps)`` fraction of the sample; this never consults ``b``, which
    is exactly why Anderson/DKW is free of PHOS (but has PMA: the
    ``eps`` mass pessimistically sits at the range endpoint).
    """

    name = "anderson"

    def init_state(self) -> List[float]:
        return []

    def update_state(self, state: List[float], v: float) -> List[float]:
        bisect.insort(state, v)  # keep sorted for trimmed means
        return state

    @staticmethod
    def epsilon(m: int, delta: float) -> float:
        # One-sided DKW: P(sup(F_hat - F) > eps) <= exp(-2 m eps^2).
        return min(1.0, math.sqrt(math.log(1.0 / delta) / (2.0 * m)))

    def lbound(self, state: List[float], a, b, N, delta) -> float:
        _check(a, b, N, delta)
        m = len(state)
        if m == 0:
            return a
        eps = self.epsilon(m, delta)
        keep = math.floor((1.0 - eps) * m)
        if keep == 0:
            return a
        trimmed_mean = sum(state[:keep]) / keep
        return min(b, max(a, eps * a + (1.0 - eps) * trimmed_mean))

    def rbound(self, state: List[float], a, b, N, delta) -> float:
        _check(a, b, N, delta)
        m = len(state)
        if m == 0:
            return b
        eps = self.epsilon(m, delta)
        keep = math.floor((1.0 - eps) * m)
        if keep == 0:
            return b
        trimmed_mean = sum(state[-keep:]) / keep
        return min(b, max(a, eps * b + (1.0 - eps) * trimmed_mean))

