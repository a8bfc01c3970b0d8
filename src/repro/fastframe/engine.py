"""The FastFrame scan engine (paper Sections 4.2-4.3).

Query execution is a sequence of *rounds*. Each round picks the next
batch of blocks according to the sampling strategy, folds their
per-group statistics into the running state, recomputes per-group
confidence intervals with the OptStop-decayed budget, and evaluates the
query's stopping condition over the running intersection of intervals.

Every strategy (paper §5.2) runs one vectorised cyclic walk of the
scramble (``_BlockPicker.pick``) that skips predicate-ineligible blocks
and, under ``active_sync`` and ``active_peek``, blocks holding no active
group. A strategy chooses only ``STRATEGY_BATCH``, the blocks one
modelled index probe covers (1 for ``active_sync``, the paper's
1024-block lookahead for ``active_peek``). It sets the walk's frontier
and ``index_probes``: the (active group x candidate block) cells of the
batches walked. The paper's Sync/Peek gap, the latency of synchronous
probe calls, is not modelled.

AVG, COUNT and SUM (result kinds ``count`` and ``sum``, paper §4.1) run
through this one loop and differ only in each round's interval:
Theorem 3's ``N+`` with the AVG CI, the Lemma-5 COUNT CI, or the product
of a COUNT and an AVG CI at half the budget each for SUM. Lemma 5 needs
an unskipped sample, so COUNT/SUM always scan every block. An exact
query (``bounder="exact"``) runs no loop: it is one masked ``bincount``
over the rows of the predicate-eligible blocks.

A query's prep (``prepare``) reads the scramble's driver-resident
column store and its column bitmap indexes: the predicate's row mask
and eligible blocks, each row's group and the group bitmaps, all in
NumPy and without a sort. A one-column GROUP BY takes its groups, row
ids and bitmaps from the column's index as they are; a composite one
builds them with one ``bincount`` and one scatter. Each round
then gathers the picked blocks' rows (block ``b`` is rows
``[b*block_size, (b+1)*block_size)``) and folds the masked values into
the per-group statistics, so the work of a query is proportional to
the blocks it fetches — the cost structure of the paper's in-memory
engine. ``wall_seconds`` times the round loop (or the exact
``bincount``).

Confidence budget chain (all documented in DESIGN.md): per-query
``delta`` is divided by the group-domain size ``G`` (number of
aggregate views), decayed per round by ``(6/pi^2)/k^2`` (OptStop), and
split ``(1-alpha)`` for the Theorem-3 ``N+`` event with the remaining
``alpha`` fed to the bounder (``/2`` per side inside the CI).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd

from repro.core import vectorized
from repro.core.count_sum import ALPHA, count_ci, n_plus, sum_ci
from repro.core.optstop import RunningIntersection, round_delta
from repro.core.stopping import Threshold, TopK
from repro.fastframe.bitmap import get_column_bitmap, group_bitmap_matrix
from repro.fastframe.queries import Eq, QuerySpec
from repro.fastframe.scramble import Scramble

LOOKAHEAD_BLOCKS = 1024  # paper §4.3: lookahead batch of 1024 blocks
BOUNDERS = ("hoeffding", "bernstein", "exact")
#: Result kinds of one aggregate view that always has an output row.
SCALAR_KINDS = ("count", "sum")
#: Blocks per index probe of each strategy's walk.
STRATEGY_BATCH = {
    "scan": LOOKAHEAD_BLOCKS,
    "active_sync": 1,
    "active_peek": LOOKAHEAD_BLOCKS,
}


@dataclass
class EngineConfig:
    """Knobs of one engine run (paper defaults)."""

    bounder: str = "bernstein"  # hoeffding | bernstein | exact
    range_trim: bool = True
    strategy: str = "active_peek"  # scan | active_sync | active_peek
    delta: float = 1e-15
    round_rows: int = 40_000  # paper §4.2: bounds recomputed every 40000 rows
    start_block: int = 0

    def label(self) -> str:
        if self.bounder == "exact":
            return "Exact"
        base = {"hoeffding": "Hoeffding", "bernstein": "Bernstein"}[self.bounder]
        return base + ("+RT" if self.range_trim else "")


@dataclass
class Prep:
    """Bounder/strategy-independent per-query artifacts."""

    groups: List[Tuple]
    gmatrix: np.ndarray  # bool [G, B] — group presence per block
    static_mask: np.ndarray  # bool [B] — predicate-eligible blocks
    rows: np.ndarray  # bool [R] — rows satisfying the predicate
    gid: np.ndarray  # int [R] — each row's group index
    values: np.ndarray  # float [R] — the measure column, in row order
    a: float
    b: float


@dataclass
class QueryResult:
    """Outcome + cost accounting of one engine run."""

    query: str
    label: str
    strategy: str
    groups: List[Tuple]
    est: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    m: np.ndarray
    decision: object
    blocks_fetched: int
    rows_scanned: int
    rounds: int
    wall_seconds: float
    index_probes: int
    exhausted_all: bool

    def per_group(self) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "group": [g if len(g) != 1 else g[0] for g in self.groups],
                "m": self.m,
                "est": self.est,
                "lo": self.lo,
                "hi": self.hi,
            }
        )


def prepare(scramble: Scramble, spec: QuerySpec) -> Prep:
    """Per-query prep from the column store: row mask, groups, bitmaps."""
    a, b = scramble.catalog.bounds(spec.agg_col)
    store = scramble.store

    if spec.group_cols:
        groups, gid, gmatrix = group_bitmap_matrix(scramble, spec.group_cols)
    else:
        groups = [()]
        gid = np.zeros(scramble.n_rows, dtype=np.int64)
        gmatrix = np.ones((1, scramble.n_blocks), dtype=bool)

    static = np.ones(scramble.n_blocks, dtype=bool)
    rows = np.ones(scramble.n_rows, dtype=bool)
    for p in spec.predicate:
        if isinstance(p, Eq):
            bm = get_column_bitmap(scramble, p.col)
            # A value absent from the column matches no row and no block.
            static &= bm.row(p.value) if p.value in bm.values else False
        rows &= p.row_mask(store)

    return Prep(
        groups=groups,
        gmatrix=gmatrix,
        static_mask=static,
        rows=rows,
        gid=gid,
        values=store.columns[spec.agg_col].astype(np.float64, copy=False),
        a=float(a),
        b=float(b),
    )


class _BlockPicker:
    """Chooses the next blocks to fetch: one vectorised walk for all strategies.

    Visit order starts at ``start_block`` and wraps (the paper starts
    each approximate query at a random scramble position). A pick reads
    the window of all blocks from a persistent frontier, vectorised, and
    takes its first ``k_blocks`` hits: blocks still to fetch (``todo``)
    that hold an active group (``live``, active groups per block; Scan
    passes none). The frontier then moves to the end of the ``batch``
    that holds the last block taken, or just past that block if another
    hit lies before the batch end. ActiveSync (batch 1) and ActivePeek
    (1024) so take the same blocks while no group becomes active again.
    Cycling revisits blocks skipped earlier if their groups become active
    again, so every eligible block is eventually fetched (termination
    with exact results in the worst case).
    """

    def __init__(self, n_blocks: int, start_block: int, batch: int):
        self.n = n_blocks
        order = (np.arange(n_blocks, dtype=np.int64) + start_block) % n_blocks
        # Doubled, so that the window from any frontier is one slice.
        self.order = np.concatenate([order, order])
        self.frontier = 0
        self.batch = batch
        self.probes = 0

    def pick(self, todo, k_blocks, live=None, n_active=0):
        w = self.order[self.frontier : self.frontier + self.n]
        # The k-th hit is mostly near the frontier: read the whole batches
        # that cover 4k blocks first, and the whole window only if they hold
        # fewer than k hits. Whole batches, so the batch end is in the head.
        head = min(self.n, -(-4 * k_blocks // self.batch) * self.batch)
        cand, pos = _hits(w[:head], todo, live)
        if pos.size < k_blocks and head < self.n:
            cand, pos = _hits(w, todo, live)
        if pos.size < k_blocks:
            # The whole window is walked and the frontier comes back to itself.
            bend = stop = self.n
        else:
            p = int(pos[k_blocks - 1])
            bend = min(self.n, (p // self.batch + 1) * self.batch)
            # Stop just past the last block taken if another hit lies before
            # the batch end, so that hit is not skipped.
            more = pos.size > k_blocks and pos[k_blocks] < bend
            stop = p + 1 if more else bend
        if live is not None:
            self.probes += n_active * int(np.count_nonzero(cand[:bend]))
        self.frontier = (self.frontier + stop) % self.n
        return w[pos[:k_blocks]]


def _hits(blocks, todo, live):
    """Which ``blocks`` are still to fetch, and the positions of the hits."""
    cand = todo[blocks]
    return cand, np.flatnonzero(cand if live is None else cand & (live[blocks] > 0))


class _Scan:
    """The round primitives of ``run_query``'s loop.

    Holds the eligible blocks not yet fetched (``todo``), the block walk,
    the cost counters, the running per-group ``m/tot/sq/mn/mx``, per group
    the number of its blocks in ``todo`` (``remaining``; 0 means
    exhausted) and, under an active strategy, per block the number of
    active groups (``live``).
    """

    def __init__(self, scramble: Scramble, prep: Prep, eligible, start_block, batch):
        B, G = scramble.n_blocks, len(prep.groups)
        self.prep = prep
        self.n_rows = scramble.n_rows
        self.block_size = scramble.block_size
        self.todo = eligible.copy()
        self.live = None  # None under Scan
        self.active = None
        self.n_active = 0
        self.picker = _BlockPicker(B, start_block % B, batch)
        self.blocks_fetched = 0
        self.rows_scanned = 0
        self.m = np.zeros(G, dtype=np.float64)
        self.tot = np.zeros(G, dtype=np.float64)
        self.sq = np.zeros(G, dtype=np.float64)
        self.mn = np.full(G, np.inf)
        self.mx = np.full(G, -np.inf)
        self.remaining = (prep.gmatrix & eligible).sum(axis=1).astype(np.int64)

    def set_active(self, active) -> None:
        """Update ``live`` from the groups whose active bit flipped."""
        gmatrix = self.prep.gmatrix
        if self.live is None:
            self.live = gmatrix[active].sum(axis=0)
        else:
            self.live += gmatrix[active & ~self.active].sum(axis=0)
            self.live -= gmatrix[self.active & ~active].sum(axis=0)
        self.active = active.copy()
        self.n_active = int(np.count_nonzero(active))

    def fetch(self, k_blocks: int) -> bool:
        """Fetch and fold up to ``k_blocks`` blocks; False if none is left."""
        p = self.prep
        picked = self.picker.pick(self.todo, k_blocks, self.live, self.n_active)
        if picked.size == 0:
            return False
        self.todo[picked] = False
        self.blocks_fetched += int(picked.size)
        self.remaining -= p.gmatrix[:, picked].sum(axis=1)
        # The picked blocks' rows, block by block in pick order (the bincount
        # sums depend on the order they accumulate in); the last block may
        # be short.
        bs = self.block_size
        rows = (picked[:, None] * bs + np.arange(bs)).ravel()
        rows = rows[rows < self.n_rows]
        self.rows_scanned += int(rows.size)
        rows = rows[p.rows[rows]]
        g, v = p.gid[rows], p.values[rows]
        G = self.m.size
        self.m += np.bincount(g, minlength=G)
        self.tot += np.bincount(g, weights=v, minlength=G)
        self.sq += np.bincount(g, weights=v * v, minlength=G)
        np.minimum.at(self.mn, g, v)
        np.maximum.at(self.mx, g, v)
        return True


def run_query(
    scramble: Scramble, spec: QuerySpec, config: Optional[EngineConfig] = None
) -> QueryResult:
    """Execute one approximate (or exact) query through the scan engine."""
    config = config or EngineConfig()
    if config.bounder not in BOUNDERS:
        raise ValueError(f"unknown bounder {config.bounder!r}")
    if config.strategy not in STRATEGY_BATCH:
        raise ValueError(f"unknown strategy {config.strategy!r}")
    if not 0 < config.delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {config.delta!r}")
    kind = spec.result_kind
    scalar = kind in SCALAR_KINDS
    if scalar and spec.group_cols:
        raise ValueError("COUNT/SUM path supports single-view queries only")
    prep = prepare(scramble, spec)
    G = len(prep.groups)
    R = scramble.n_rows
    # Lemma 5 needs the scanned rows to be a uniform sample of the scramble:
    # COUNT/SUM read every block, skipping neither by predicate nor by group.
    eligible = np.ones(scramble.n_blocks, dtype=bool) if scalar else prep.static_mask
    if config.bounder == "exact":
        return _run_exact(scramble, spec, config, prep, eligible)
    strategy = "scan" if scalar else config.strategy

    delta_group = config.delta / max(1, G)
    round_blocks = max(1, math.ceil(config.round_rows / scramble.block_size))
    scan = _Scan(
        scramble, prep, eligible, config.start_block, STRATEGY_BATCH[strategy]
    )
    m, tot = scan.m, scan.tot  # folded in place each round
    # AVG intervals start from the column range; COUNT/SUM from no bound.
    lo0, hi0 = (-np.inf, np.inf) if scalar else (prep.a, prep.b)
    inter = RunningIntersection(G, lo0, hi0)
    active = np.ones(G, dtype=bool)

    k_round = 0
    t0 = time.perf_counter()
    while True:
        k_round += 1
        if strategy != "scan":
            if not active.any():
                exhausted_all = True
                break
            scan.set_active(active)
        exhausted_all = not scan.fetch(round_blocks)

        # The round's interval with the OptStop budget (Algorithm 5 /
        # Theorem 4), folded into the running intersection.
        delta_k = round_delta(delta_group, k_round)
        r = max(1, scan.rows_scanned)
        inter.update(*_round_ci(kind, config, prep, scan, r, R, delta_k))

        exhausted = scan.remaining <= 0
        alive = (m > 0) | scalar
        est = _estimate(kind, m, tot, r, R, exhausted, 0.5 * (prep.a + prep.b))
        # A fully-read view is known exactly — collapse its interval.
        done_exact = exhausted & alive
        lo = np.where(done_exact, est, inter.lo)
        hi = np.where(done_exact, est, inter.hi)

        # Views that turn out to be empty once their blocks are all read
        # contribute no output row; they are dropped from the stopping
        # evaluation entirely (their wide [a, b] intervals would
        # otherwise block separation-style conditions forever).
        kept = np.flatnonzero(alive | ~exhausted)
        verdict = spec.stopping.evaluate(
            est[kept], lo[kept], hi[kept], m[kept], exhausted[kept]
        )
        active = np.zeros(G, dtype=bool)
        active[kept] = verdict.active
        if verdict.done or exhausted_all:
            exhausted_all = exhausted_all or bool(exhausted.all())
            break

    wall = time.perf_counter() - t0
    return _result(
        spec, config, prep, strategy, est, lo, hi, m,
        blocks_fetched=scan.blocks_fetched,
        rows_scanned=scan.rows_scanned,
        rounds=k_round,
        wall_seconds=wall,
        index_probes=scan.picker.probes,
        exhausted_all=exhausted_all,
    )


def _run_exact(scramble, spec, config, prep, eligible) -> QueryResult:
    """The exact answer: one masked ``bincount`` over the eligible blocks' rows."""
    t0 = time.perf_counter()
    R, G = scramble.n_rows, len(prep.groups)
    in_blocks = np.repeat(eligible, scramble.block_size)[:R]
    rows = in_blocks & prep.rows
    g = prep.gid[rows]
    m = np.bincount(g, minlength=G).astype(np.float64)
    tot = np.bincount(g, weights=prep.values[rows], minlength=G)
    est = _estimate(spec.result_kind, m, tot, R, R, True, np.nan)
    wall = time.perf_counter() - t0
    return _result(
        spec, config, prep, "scan", est, est, est, m,
        blocks_fetched=int(eligible.sum()),
        rows_scanned=int(in_blocks.sum()),
        rounds=1,
        wall_seconds=wall,
        index_probes=0,
        exhausted_all=True,
    )


def _avg_ci(config, prep, scan, r, R, delta_k):
    """Theorem 3: the per-group view-size bound ``N+``, then the AVG CI."""
    # Guard: a legal view size is >= the sample.
    Nplus = np.maximum(n_plus(scan.m, r, R, delta_k), scan.m)
    return vectorized.ci(
        config.bounder,
        scan.m,
        scan.tot,
        scan.sq,
        scan.mn,
        scan.mx,
        prep.a,
        prep.b,
        Nplus,
        ALPHA * delta_k,
        config.range_trim,
    )


def _round_ci(kind, config, prep, scan, r, R, delta_k):
    """One round's ``(1-delta_k)`` interval for the query's aggregate;
    SUM is the product of AVG and COUNT CIs at ``delta_k/2`` each (§4.1)."""
    if kind == "count":
        return count_ci(scan.m, r, R, delta_k)
    if kind == "sum":
        a_lo, a_hi = _avg_ci(config, prep, scan, r, R, delta_k / 2.0)
        return sum_ci(a_lo, a_hi, *count_ci(scan.m, r, R, delta_k / 2.0))
    return _avg_ci(config, prep, scan, r, R, delta_k)


def _estimate(kind, m, tot, r, R, exhausted, empty):
    """Each view's estimate after ``r`` of ``R`` rows (AVG of none: ``empty``)."""
    if kind == "count":
        return np.where(exhausted, m, m / r * R)
    if kind == "sum":
        return np.where(exhausted, tot, tot / r * R)
    return np.where(m > 0, tot / np.maximum(m, 1.0), empty)


def _result(spec, config, prep, strategy, est, lo, hi, m, **cost):
    """The ``QueryResult`` of the views with an output row: every COUNT/SUM
    view, and each AVG view with rows."""
    alive = (m > 0) | (spec.result_kind in SCALAR_KINDS)
    groups = [g for g, al in zip(prep.groups, alive) if al]
    est, lo, hi = est[alive], lo[alive], hi[alive]
    return QueryResult(
        query=spec.name,
        label=config.label(),
        strategy=strategy,
        groups=groups,
        est=est,
        lo=lo,
        hi=hi,
        m=m[alive],
        decision=_decide(spec, groups, est, lo, hi),
        **cost,
    )


def _decide(spec: QuerySpec, groups, est_a, lo_a, hi_a):
    """Read the query's decision off the output views' intervals."""
    names = [g if len(g) != 1 else g[0] for g in groups]

    kind = spec.result_kind
    if kind in ("avg_ci",) + SCALAR_KINDS:
        if not names:
            return None
        key = "avg" if kind == "avg_ci" else kind
        return {key: float(est_a[0]), "lo": float(lo_a[0]), "hi": float(hi_a[0])}
    if kind in ("having_above", "having_below"):
        cond: Threshold = spec.stopping
        above = cond.decide_above(est_a, lo_a, hi_a)
        keep = above if kind == "having_above" else ~above
        return sorted(n for n, k in zip(names, keep) if k)
    if kind == "case_gt":
        cond = spec.stopping
        if not names:
            return 0
        above = cond.decide_above(est_a, lo_a, hi_a)
        return int(bool(above[0]))
    if kind == "topk":
        cond: TopK = spec.stopping
        sel = cond.select(est_a)
        return [names[i] for i in sel]
    if kind == "ordered":
        order = np.argsort(est_a, kind="stable")
        return [
            (names[i], float(est_a[i]), float(lo_a[i]), float(hi_a[i]))
            for i in order
        ]
    raise ValueError(f"unknown result kind {kind!r}")
