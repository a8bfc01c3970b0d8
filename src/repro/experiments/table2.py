"""Paper Table 2: pathology properties of the error bounders.

The paper classifies bounders by PMA (pessimistic mass allocation),
PHOS (phantom outlier sensitivity), supported sampling modes, and
memory. PHOS and memory are directly measurable; PMA is operationalized
as *non-vanishing endpoint-mass sensitivity*: how strongly the lower
bound reacts to moving the catalog endpoint ``a`` (with the sample held
fixed, far from ``a``), relative to the interval width.

* Hoeffding: ``dL/da`` is ~half the width forever — PMA.
* Anderson/DKW: the ``eps`` CDF mass always sits at ``a``; its
  contribution stays a constant fraction of the width — PMA.
* Bernstein: the ``a``-sensitivity (the ``kappa(b-a)/m`` term) decays
  like 1/m while the width decays like 1/sqrt(m), so the ratio vanishes
  — no PMA, matching the paper's "increasing the smallest values ...
  reduces the sample variance" argument (which we also check directly:
  clipping the smallest values upward strictly shrinks Bernstein's
  width and leaves Hoeffding's unchanged).

PHOS is measured exactly as Definition 3: does the confidence *lower*
bound move when the *upper* catalog endpoint ``b`` moves (sample held
fixed)? RangeTrim variants must show zero sensitivity.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List

import numpy as np
import pandas as pd

from repro.core.bounders import (
    AndersonDKW,
    Bounder,
    EmpiricalBernsteinSerfling,
    HoeffdingSerfling,
)
from repro.core.range_trim import RangeTrim

#: paper Table 2, transcribed (R = with replacement, NR = without).
PAPER_TABLE2 = {
    "hoeffding": {"PMA": True, "PHOS": True, "sampling": "R* (NR)", "memory": "O(1)"},
    "bernstein": {"PMA": False, "PHOS": True, "sampling": "R* (NR)", "memory": "O(1)"},
    "anderson": {"PMA": True, "PHOS": False, "sampling": "R, NR", "memory": "O(m)"},
}

_A, _B = 0.0, 1000.0
_N = 10_000_000
_DELTA = 1e-6  # moderate delta so nothing degenerates to the clip bounds


def _feed(bounder: Bounder, values) -> object:
    s = bounder.init_state()
    # Sorted feed keeps AndersonDKW's insort appends O(1) amortized; the
    # bounders are order-insensitive so this changes nothing else.
    for v in np.sort(values):
        s = bounder.update_state(s, float(v))
    return s


def _sample(m: int, rng) -> np.ndarray:
    # Mid-range with substantial spread: min/max stay far from both
    # catalog endpoints while sigma-hat is large enough that Bernstein's
    # variance term dominates its range term at large m.
    return np.clip(rng.normal(500.0, 150.0, m), 50.0, 950.0)


def endpoint_sensitivity_ratio(bounder: Bounder, m: int, seed: int = 0) -> float:
    """|dL/da| * (b-a) / width — the PMA measurement."""
    rng = np.random.default_rng(seed)
    s = _feed(bounder, _sample(m, rng))
    da = 50.0
    l0 = bounder.lbound(s, _A, _B, _N, _DELTA)
    l1 = bounder.lbound(s, _A - da, _B, _N, _DELTA)
    width = bounder.rbound(s, _A, _B, _N, _DELTA) - l0
    if width <= 0:
        return 0.0
    return abs(l0 - l1) / da * (_B - _A) / width


def has_pma(bounder: Bounder) -> bool:
    """PMA iff the endpoint-sensitivity ratio does not vanish with m.

    Hoeffding's ratio is exactly 1/2 at every m and Anderson's stays
    near 1 (the eps mass sits at ``a`` forever); Bernstein's decays like
    1/sqrt(m) because its ``a``-sensitivity is the O(1/m) range term
    while its width is the O(1/sqrt(m)) variance term.
    """
    small = endpoint_sensitivity_ratio(bounder, 1_000)
    large = endpoint_sensitivity_ratio(bounder, 100_000)
    return large > 0.05 and large > small / 2.0


def has_phos(bounder: Bounder) -> bool:
    """Definition 3: does Lbound depend on the upper endpoint b?"""
    rng = np.random.default_rng(1)
    s = _feed(bounder, _sample(2_000, rng))
    l0 = bounder.lbound(s, _A, _B, _N, _DELTA)
    l1 = bounder.lbound(s, _A, _B + 500.0, _N, _DELTA)
    return abs(l0 - l1) > 1e-9


def clip_shrinks_width(bounder: Bounder) -> bool:
    """Does raising the smallest sample values strictly shrink the CI?

    The paper's direct argument for Bernstein's lack of PMA (and
    Hoeffding's possession of it).
    """
    rng = np.random.default_rng(2)
    vals = _sample(3_000, rng)
    clipped = np.maximum(vals, np.quantile(vals, 0.25))
    s0 = _feed(bounder, vals)
    s1 = _feed(bounder, clipped)
    w0 = bounder.rbound(s0, _A, _B, _N, _DELTA) - bounder.lbound(s0, _A, _B, _N, _DELTA)
    w1 = bounder.rbound(s1, _A, _B, _N, _DELTA) - bounder.lbound(s1, _A, _B, _N, _DELTA)
    return w1 < w0 - 1e-9


def state_grows(bounder: Bounder) -> bool:
    """Memory column: does per-sample state grow with m?"""
    s = _feed(bounder, np.arange(100, dtype=float))
    return isinstance(s, list) and len(s) >= 100


@dataclass
class Table2Row:
    bounder: str
    pma: bool
    phos: bool
    clip_sensitive: bool
    memory: str
    matches_paper: bool


def run_table2() -> pd.DataFrame:
    """Measure every property for every bounder (+RT variants)."""
    base = {
        "hoeffding": HoeffdingSerfling(),
        "bernstein": EmpiricalBernsteinSerfling(),
        "anderson": AndersonDKW(),
    }
    # RangeTrim removes PHOS from any range-based bounder (the paper's
    # main claim); PMA classification is inherited from the inner bounder.
    variants = [(name, b, PAPER_TABLE2[name]) for name, b in base.items()]
    variants += [
        (f"{name}+rt", RangeTrim(type(base[name])()), {**PAPER_TABLE2[name], "PHOS": False})
        for name in ("hoeffding", "bernstein")
    ]
    rows: List[Table2Row] = []
    for label, b, paper in variants:
        pma, phos = has_pma(b), has_phos(b)
        rows.append(
            Table2Row(
                bounder=label,
                pma=pma,
                phos=phos,
                clip_sensitive=clip_shrinks_width(b),
                memory="O(m)" if state_grows(b) else "O(1)",
                matches_paper=(pma == paper["PMA"] and phos == paper["PHOS"]),
            )
        )
    return pd.DataFrame([r.__dict__ for r in rows])


def format_table2(df: pd.DataFrame) -> str:
    out = ["Table 2 — error bounder properties (measured)"]
    out.append(f"{'Bounder':<14} {'PMA':<5} {'PHOS':<5} {'Memory':<7} {'matches paper':<13}")
    for _, r in df.iterrows():
        out.append(
            f"{r.bounder:<14} {str(r.pma):<5} {str(r.phos):<5} "
            f"{r.memory:<7} {str(r.matches_paper):<13}"
        )
    return "\n".join(out)


if __name__ == "__main__":
    print(format_table2(run_table2()), file=sys.stdout)
