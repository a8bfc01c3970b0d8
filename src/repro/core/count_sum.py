"""Unknown-N machinery: selectivity CIs, the online N+ bound, and
COUNT / SUM confidence intervals (paper Section 4.1).

A scramble scan that has processed ``r`` of ``R`` rows and seen ``m_v``
rows belonging to an aggregate view V gives a Hoeffding-Serfling CI for
the selectivity ``sigma_v`` (Lemma 5: the 0/1 view-membership column has
range bounds a=0, b=1), hence a CI ``[N-, N+]`` for the view size
``N = sigma_v * R``.

Theorem 3 splits the confidence budget: ``(1-alpha)*delta`` buys the
event ``N <= N+`` and ``alpha*delta`` is left for the mean bounder run
with ``N+`` in place of the unknown ``N`` (safe by the dataset-size
monotonicity property). The paper fixes ``alpha = 0.99``.

Caveats (documented in DESIGN.md): when predicate-driven block skipping
is active, every fetched block contains at least one matching row, so
``m_v / r`` over fetched rows *over*-estimates the selectivity. That is
safe for the upper bound ``N+`` (monotonicity: larger N only loosens
the CI) but not for ``N-``; the engine therefore computes COUNT and SUM
only from a plain ``Scan`` of every block. Group-driven skipping under
the ``active_*`` strategies is *not* safe for ``N+``: a group's blocks
are skipped while it is inactive, so its ``m_v / r`` is biased *low* and
``N+`` can fall below ``N``. So the engine uses :func:`n_plus` only
where no block is skipped for a group's active state (Scan, and a query
with one view), and otherwise the deterministic bound
``m_v + block_size * (the view's blocks still to fetch)``.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.bounders import HoeffdingSerfling

#: Theorem 3 budget split between the N+ event and the mean bounder.
ALPHA = 0.99


def selectivity_eps(r, R, delta) -> float:
    """Lemma 5 half-width for the selectivity after scanning r >= 1 of R rows.

    ``r``, ``R`` and ``delta`` are scalars, so the half-width is one
    Python float, computed without a NumPy call on a size-1 array. The
    log is ``np.log``: ``math.log`` can differ in the last bit, and the
    engine's intervals are pinned byte for byte.
    """
    r = float(r)
    rho = max(0.0, 1.0 - (r - 1.0) / R)
    return math.sqrt(float(np.log(2.0 / delta)) / (2.0 * r) * rho)


def selectivity_ci(m_v, r, R, delta) -> Tuple[np.ndarray, np.ndarray]:
    """(1-delta) CI for the selectivity of a view, clipped to [0, 1]."""
    m_v = np.asarray(m_v, dtype=np.float64)
    eps = selectivity_eps(r, R, delta)
    sel = m_v / max(1.0, float(r))
    # As np.clip, with less overhead per call.
    lo = np.minimum(np.maximum(sel - eps, 0.0), 1.0)
    return lo, np.minimum(np.maximum(sel + eps, 0.0), 1.0)


def count_ci(m_v, r, R, delta) -> Tuple[np.ndarray, np.ndarray]:
    """(1-delta) CI for the COUNT of rows in the view (selectivity * R)."""
    lo, hi = selectivity_ci(m_v, r, R, delta)
    return lo * R, hi * R


def n_plus(m_v, r, R, delta, alpha: float = ALPHA):
    """Theorem 3 upper bound N+ on the view size, holding w.p. 1-(1-alpha)delta.

    One-sided (upper deviations only), so the Lemma-5 ``log(2/delta)``
    becomes ``log(1/((1-alpha)*delta))`` as in the theorem statement.
    Capped at R (a view can never exceed the scramble) and floored at 1
    so it is always a legal dataset size for the bounders. The half-width
    is Algorithm 1's (:class:`HoeffdingSerfling`) on the 0/1
    view-membership column after ``r >= 1`` of ``R`` rows, one Python
    float for a scalar ``r``.
    """
    r = float(r)
    eps = HoeffdingSerfling.epsilon(r, 0.0, 1.0, R, (1 - alpha) * delta)
    est = (np.asarray(m_v, dtype=np.float64) / r + eps) * R
    return np.minimum(np.maximum(np.ceil(est), 1.0), float(R))


def sum_ci(avg_lo, avg_hi, cnt_lo, cnt_hi) -> Tuple[np.ndarray, np.ndarray]:
    """Combine a (1-d/2) AVG CI and a (1-d/2) COUNT CI into a (1-d) SUM CI.

    The paper's ``[c_l*g_l, c_r*g_r]`` assumes a nonnegative mean; taking
    the min/max over all four endpoint products handles negative means
    (e.g. negative average departure delays) while remaining a superset
    of the paper's interval in the nonnegative case.
    """
    avg_lo, avg_hi, cnt_lo, cnt_hi = (
        np.asarray(x, dtype=np.float64) for x in (avg_lo, avg_hi, cnt_lo, cnt_hi)
    )
    p = avg_lo * cnt_lo, avg_lo * cnt_hi, avg_hi * cnt_lo, avg_hi * cnt_hi
    # Left to right: the order decides which of a tied -0.0 and +0.0 is kept.
    lo = np.minimum(np.minimum(np.minimum(p[0], p[1]), p[2]), p[3])
    return lo, np.maximum(np.maximum(np.maximum(p[0], p[1]), p[2]), p[3])
