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
``N+`` can fall below ``N`` (measured in 10 of 80 F-q5 ``active_peek``
runs at delta = 0.5). This is an open defect, ROADMAP item G.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Theorem 3 budget split between the N+ event and the mean bounder.
ALPHA = 0.99


def selectivity_eps(r, R, delta):
    """Lemma 5 half-width for the selectivity after scanning r of R rows."""
    r = np.asarray(r, dtype=np.float64)
    rho = np.maximum(0.0, 1.0 - (r - 1.0) / R)
    return np.sqrt(np.log(2.0 / delta) / (2.0 * r) * rho)


def selectivity_ci(m_v, r, R, delta) -> Tuple[np.ndarray, np.ndarray]:
    """(1-delta) CI for the selectivity of a view, clipped to [0, 1]."""
    m_v = np.asarray(m_v, dtype=np.float64)
    eps = selectivity_eps(r, R, delta)
    sel = m_v / np.maximum(1.0, np.asarray(r, dtype=np.float64))
    return np.clip(sel - eps, 0.0, 1.0), np.clip(sel + eps, 0.0, 1.0)


def count_ci(m_v, r, R, delta) -> Tuple[np.ndarray, np.ndarray]:
    """(1-delta) CI for the COUNT of rows in the view (selectivity * R)."""
    lo, hi = selectivity_ci(m_v, r, R, delta)
    return lo * R, hi * R


def n_plus(m_v, r, R, delta, alpha: float = ALPHA):
    """Theorem 3 upper bound N+ on the view size, holding w.p. 1-(1-alpha)delta.

    One-sided (upper deviations only), so the Lemma-5 ``log(2/delta)``
    becomes ``log(1/((1-alpha)*delta))`` as in the theorem statement.
    Capped at R (a view can never exceed the scramble) and floored at 1
    so it is always a legal dataset size for the bounders.
    """
    r_arr = np.asarray(r, dtype=np.float64)
    m_v = np.asarray(m_v, dtype=np.float64)
    rho = np.maximum(0.0, 1.0 - (r_arr - 1.0) / R)
    eps = np.sqrt(
        math.log(1.0 / ((1.0 - alpha) * delta)) / (2.0 * np.maximum(1.0, r_arr)) * rho
    )
    est = (m_v / np.maximum(1.0, r_arr) + eps) * R
    return np.clip(np.ceil(est), 1.0, float(R))


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
    prods = np.stack(
        [avg_lo * cnt_lo, avg_lo * cnt_hi, avg_hi * cnt_lo, avg_hi * cnt_hi]
    )
    return prods.min(axis=0), prods.max(axis=0)
