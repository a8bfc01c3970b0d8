"""RangeTrim (paper Algorithms 4 and 6): eliminate PHOS from any
range-based SSI error bounder.

The wrapper maintains, alongside the running observed extremes ``a'``
(min) and ``b'`` (max), two inner states:

* ``S_l`` — fed ``min(v, b')`` for each arrival after the first, and
* ``S_r`` — fed ``max(v, a')``.

``S_l`` is always the sample minus one copy of its maximum, in any
arrival order and with ties. By induction: after the first value,
``S_l`` is empty. If the next ``v <= b'`` (ties included), Algorithm 6
inserts ``v`` and the maximum is unchanged; if ``v > b'``, it inserts
the old maximum ``b'`` and ``v`` becomes the maximum. Either way
``S_l`` stays "sample minus one copy of its max". Symmetrically,
``S_r`` is the sample minus one copy of its minimum.

``lbound`` then calls the inner bounder on ``S_l`` with range ``[a, b']``
and dataset size ``N-1`` — correct because, conditioned on ``max S``,
``S - {max S}`` is a uniform without-replacement sample from
``D_{<max S}`` (Lemma 4) whose average lower-bounds ``AVG(D)``, and the
dataset-size monotonicity property covers ``N-1 >= |D_{<max S}|``
(Theorem 2). Symmetrically for ``rbound``.

The net effect: ``lbound`` no longer depends on the catalog upper range
bound ``b`` (only on the observed max), and ``rbound`` no longer depends
on ``a`` — no PHOS, and when the observed range is much smaller than
``(b-a)`` the intervals are much tighter.

The overall CI is ``[lbound(delta/2), rbound(delta/2)]`` — the same
union-bound split as for the unwrapped bounder, so RangeTrim costs no
extra confidence budget (Algorithm 4 line 12).

Because ``S_l`` and ``S_r`` depend only on the multiset of values, the
batch form needs no stream: :func:`repro.core.vectorized.ci` with
``range_trim=True`` derives ``S_l``/``S_r`` from the five statistics as
``(m-1, sum-max, sumsq-max**2)`` and ``(m-1, sum-min, sumsq-min**2)``.
This class is the streaming reference it is tested against
(``tests/test_range_trim.py``, ``tests/test_vectorized.py``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.bounders import Bounder


@dataclass
class RangeTrimState:
    """State of Algorithm 6: two inner states + running extremes."""

    s_l: Any
    s_r: Any
    a_prime: Optional[float] = None  # running observed min
    b_prime: Optional[float] = None  # running observed max


class RangeTrim(Bounder):
    """Algorithm 6: wrap an inner range-based bounder, removing PHOS."""

    def __init__(self, inner: Bounder):
        self.inner = inner
        self.name = f"{inner.name}+rt"

    def init_state(self) -> RangeTrimState:
        return RangeTrimState(
            s_l=self.inner.init_state(), s_r=self.inner.init_state()
        )

    def update_state(self, state: RangeTrimState, v: float) -> RangeTrimState:
        if state.a_prime is None:
            # First sample only initializes the extremes (Alg 4 lines 3-4);
            # it enters an inner state later, when it is superseded.
            state.a_prime = v
            state.b_prime = v
            return state
        state.s_l = self.inner.update_state(state.s_l, min(v, state.b_prime))
        state.s_r = self.inner.update_state(state.s_r, max(v, state.a_prime))
        state.a_prime = min(state.a_prime, v)
        state.b_prime = max(state.b_prime, v)
        return state

    def lbound(self, state: RangeTrimState, a, b, N, delta) -> float:
        if state.b_prime is None:  # no samples yet
            return a
        # b is deliberately ignored: the observed max replaces it.
        return self.inner.lbound(state.s_l, a, state.b_prime, max(1, N - 1), delta)

    def rbound(self, state: RangeTrimState, a, b, N, delta) -> float:
        if state.a_prime is None:
            return b
        return self.inner.rbound(state.s_r, state.a_prime, b, max(1, N - 1), delta)

