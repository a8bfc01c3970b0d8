"""Derived range bounds for aggregates over arbitrary expressions
(paper Appendix B).

Queries may aggregate an expression ``f(c_1, ..., c_n)`` over several
columns, each with catalog range bounds ``[a_i, b_i]``. The range-based
bounders then need derived bounds ``[inf f, sup f]`` over the box.
Two solvable cases from the appendix:

* **Monotone** in each coordinate: each extreme is attained at a box
  corner determined coordinate-wise by the monotonicity direction.
* **Convex (or concave)**: the maximum of a convex f over a box is at
  one of the 2^n vertices (enumerate; n <= ~20 is fine), and the
  minimum is found numerically — here with a projected-gradient descent
  with numeric gradients and multi-start, adequate for the smooth
  low-dimensional expressions that appear in aggregates. For concave f,
  the roles swap (apply the machinery to -f).

The numerical minimum is not certified: ``box_min`` (and so the lower
end of ``convex_bounds`` and the upper end of ``concave_bounds``) returns the best point the descent found,
which can lie above the true infimum, so it is an estimate of a range
bound rather than a bound. No query or engine path calls this module;
only tests do.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence, Tuple

import numpy as np

Box = Sequence[Tuple[float, float]]


def _corners(box: Box):
    return itertools.product(*box)


def monotone_bounds(
    f: Callable[..., float], box: Box, increasing: Sequence[bool]
) -> Tuple[float, float]:
    """Derived [inf f, sup f] when f is monotone in each coordinate.

    ``increasing[i]`` says f is nondecreasing in coordinate i; the
    minimizing corner takes ``a_i`` there (else ``b_i``), and vice versa
    for the maximizer.
    """
    if len(increasing) != len(box):
        raise ValueError("one monotonicity flag per coordinate required")
    lo_pt = [a if inc else b for (a, b), inc in zip(box, increasing)]
    hi_pt = [b if inc else a for (a, b), inc in zip(box, increasing)]
    return float(f(*lo_pt)), float(f(*hi_pt))


def vertex_max(f: Callable[..., float], box: Box) -> float:
    """Max of a convex f over a box: attained at a vertex (2^n checks)."""
    if len(box) > 20:
        raise ValueError("vertex enumeration limited to <= 20 columns")
    return max(float(f(*pt)) for pt in _corners(box))


def box_min(
    f: Callable[..., float],
    box: Box,
    *,
    n_starts: int = 8,
    iters: int = 300,
    seed: int = 0,
) -> float:
    """Numerical min of a smooth f over a box (projected gradient descent).

    For convex f this converges to the global minimum; the multi-start
    also makes it a serviceable lower-bound heuristic in tests for mild
    non-convexity. Vertices are always included as candidates, so the
    result never exceeds the best corner.
    """
    lo = np.array([a for a, _ in box], dtype=np.float64)
    hi = np.array([b for _, b in box], dtype=np.float64)
    span = np.maximum(hi - lo, 1e-12)
    rng = np.random.default_rng(seed)
    h = 1e-6 * span

    def grad(x):
        g = np.empty_like(x)
        fx = f(*x)
        for i in range(x.size):
            xp = x.copy()
            xp[i] = min(hi[i], x[i] + h[i])
            step = xp[i] - x[i]
            g[i] = (f(*xp) - fx) / step if step != 0 else 0.0
        return g

    best = min(float(f(*pt)) for pt in _corners(box)) if len(box) <= 12 else np.inf
    starts = [0.5 * (lo + hi)] + [
        lo + rng.random(lo.size) * span for _ in range(n_starts - 1)
    ]
    for x in starts:
        x = x.copy()
        lr = 0.25
        fx = float(f(*x))
        for _ in range(iters):
            g = grad(x)
            gn = np.linalg.norm(g)
            if gn < 1e-12:
                break
            x_new = np.clip(x - lr * span * g / gn, lo, hi)
            f_new = float(f(*x_new))
            if f_new < fx - 1e-15:
                x, fx = x_new, f_new
            else:
                lr *= 0.5
                if lr < 1e-10:
                    break
        best = min(best, fx)
    return float(best)


def convex_bounds(f: Callable[..., float], box: Box) -> Tuple[float, float]:
    """Derived [inf f, sup f] for convex f over a box (Appendix B case 2)."""
    return box_min(f, box), vertex_max(f, box)


def concave_bounds(f: Callable[..., float], box: Box) -> Tuple[float, float]:
    """Derived bounds for concave f: negate and reuse the convex case."""
    neg_lo, neg_hi = convex_bounds(lambda *xs: -f(*xs), box)
    return -neg_hi, -neg_lo
