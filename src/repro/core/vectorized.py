"""Per-group CIs from the five sample statistics, over NumPy arrays.

:func:`ci` is the one batch implementation of the interval formulas:
Hoeffding-Serfling (Algorithm 1), empirical Bernstein-Serfling
(Algorithm 2) and batch RangeTrim (Algorithms 4/6). The scan engine
calls it every round for up to ~10^3 groups, and SUM queries call it
for their AVG factor. The scalar streaming classes in
:mod:`repro.core.bounders` and :mod:`repro.core.range_trim` are the
reference it is tested against: plain CIs equal ``Bounder.ci`` and
range-trimmed CIs equal streaming ``RangeTrim(inner).ci``
(``tests/test_vectorized.py``, ``tests/test_range_trim.py``).

Inputs per group: ``m`` (sample size), ``total`` (sum), ``total_sq``
(sum of squares), ``vmin``/``vmax`` (observed extremes), ``N`` (dataset
size or a valid upper bound), plus scalars ``a``/``b`` (catalog range
bounds) and ``delta``. All array inputs broadcast.

``delta`` passed to :func:`ci` is the *total* two-sided budget; it is
split delta/2 per side exactly as in the scalar ``Bounder.ci`` and in
Algorithm 4 line 12.
"""
from __future__ import annotations

import numpy as np

from repro.core.bounders import BERNSTEIN_KAPPA

_EMPTY_GUARD = 1  # placeholder m for empty groups; results overwritten


def _as_arrays(*xs):
    return [np.asarray(x, dtype=np.float64) for x in xs]


def hoeffding_eps(m, a, b, N, delta):
    """Hoeffding-Serfling one-sided epsilon (vectorized Algorithm 1)."""
    m, a, b, N = _as_arrays(m, a, b, N)
    rho = np.maximum(0.0, 1.0 - (m - 1.0) / N)
    return (b - a) * np.sqrt(rho * np.log(1.0 / delta) / (2.0 * m))


def bernstein_eps(m, sigma, a, b, N, delta):
    """Empirical Bernstein-Serfling one-sided epsilon (vectorized Alg 2)."""
    m, sigma, a, b, N = _as_arrays(m, sigma, a, b, N)
    near = m <= N / 2.0
    rho = 1.0 - (m - 1.0) / N
    # Most calls sample less than half of every view: the other branch is
    # then skipped, and else computed only for the lanes that take it.
    if not near.all():
        far = ~near
        m_f = np.broadcast_to(m, far.shape)[far]
        N_f = np.broadcast_to(N, far.shape)[far]
        rho = np.array(rho)  # writable, also for scalar inputs
        rho[far] = (1.0 - m_f / N_f) * (1.0 + 1.0 / m_f)
    rho = np.maximum(rho, 0.0)
    log_term = np.log(5.0 / delta)
    return sigma * np.sqrt(2.0 * rho * log_term / m) + BERNSTEIN_KAPPA * (
        b - a
    ) * log_term / m


def _sigma_hat(m, total, total_sq):
    mean = total / m
    return np.sqrt(np.maximum(0.0, total_sq / m - mean**2))


def _one_sided(kind, m, total, total_sq, a, b, N, delta):
    """One-sided epsilon for samples summarized by (m, total, total_sq)."""
    if kind == "hoeffding":
        return hoeffding_eps(m, a, b, N, delta)
    if kind == "bernstein":
        return bernstein_eps(m, _sigma_hat(m, total, total_sq), a, b, N, delta)
    raise ValueError(f"unknown bounder kind {kind!r} (vectorized path)")


def ci(kind, m, total, total_sq, vmin, vmax, a, b, N, delta, range_trim):
    """(1-delta) CIs per group; returns (lo, hi) arrays clipped to [a, b].

    With ``range_trim=True`` this is the batch RangeTrim of Algorithms
    4/6: the lower bound is computed from the sample minus one copy of
    its max, over range ``[a, vmax]`` with size ``N-1``; symmetric for
    the upper bound. Without it, the plain symmetric CI.
    """
    xs = (m, total, total_sq, vmin, vmax, N)
    # The engine passes float64 arrays of one shape: skip the conversions.
    if not all(
        isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == m.shape
        for x in xs
    ):
        xs = np.broadcast_arrays(*_as_arrays(*xs))
    m, total, total_sq, vmin, vmax, N = xs
    # Most calls have no empty group (and no single-sample one): the
    # ``np.where``s that patch those groups are then skipped.
    empty = m < 0.5
    any_empty = empty.any()
    m_safe = np.where(empty, _EMPTY_GUARD, m) if any_empty else m
    d_side = delta / 2.0

    if not range_trim:
        mean = total / m_safe
        eps = _one_sided(kind, m_safe, total, total_sq, a, b, N, d_side)
        lo, hi = mean - eps, mean + eps
    else:
        single = m < 1.5  # one sample: both trimmed states are empty
        m_t = np.maximum(m_safe - 1.0, _EMPTY_GUARD)
        N_t = np.maximum(N - 1.0, 1.0)
        # left state: drop one copy of the max, range [a, vmax]
        tot_l = total - vmax
        sq_l = np.maximum(0.0, total_sq - vmax**2)
        eps_l = _one_sided(kind, m_t, tot_l, sq_l, a, vmax, N_t, d_side)
        lo = tot_l / m_t - eps_l
        # right state: drop one copy of the min, range [vmin, b]
        tot_r = total - vmin
        sq_r = np.maximum(0.0, total_sq - vmin**2)
        eps_r = _one_sided(kind, m_t, tot_r, sq_r, vmin, b, N_t, d_side)
        hi = tot_r / m_t + eps_r
        if single.any():  # empty groups included
            lo = np.where(single, a, lo)
            hi = np.where(single, b, hi)

    # As np.clip, bytes included (NaN and signed zeros), with less overhead.
    lo = np.minimum(np.maximum(lo, a), b)
    hi = np.minimum(np.maximum(hi, a), b)
    if any_empty:
        lo = np.where(empty, a, lo)
        hi = np.where(empty, b, hi)
    return lo, hi
