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
probe calls, is not modelled. When Scan has no block to skip (the next
``k + 1`` blocks are all still to fetch, as for COUNT/SUM, which read
every block), it takes the next ``k`` blocks without a walk.

AVG, COUNT and SUM (result kinds ``count`` and ``sum``, paper §4.1) run
through this one loop and differ only in each round's interval: a
view-size bound ``N+`` with the AVG CI, the Lemma-5 COUNT CI, or the
product of a COUNT and an AVG CI at half the budget each for SUM. Lemma 5 needs
an unskipped sample, so COUNT/SUM always scan every block. An exact
query (``bounder="exact"``) runs no loop: it is one masked ``bincount``
over the rows of the predicate-eligible blocks.

A query's prep (``prepare``) reads the scramble's driver-resident
column store and its column bitmap indexes: the predicate's row mask
and eligible blocks (an ``Eq``'s both from one lookup of its value in
its column's index), each row's group and the group bitmaps, all in
NumPy and without a sort. A one-column GROUP BY takes its groups, row
ids and bitmaps from the column's index as they are; a composite one
builds them with one ``bincount`` and one scatter. Group ids are
``intp``, as the store's string codes are, so ``bincount`` and
``ufunc.at`` index with them without a cast. The group bitmaps are one
block-major matrix ``[n_blocks, n_groups]``; a scan over every block
reads it without a copy. Each round then reads the picked blocks' rows
(block ``b`` is rows ``[b*block_size, (b+1)*block_size)``, one row of a
read-only ``[n_blocks, block_size]`` view): a pick of consecutive blocks,
as every COUNT/SUM round and most rounds of a query that reads most
blocks, as one slice of that view, with no copy; other picks with
``np.take``. It folds the masked values into the per-group statistics,
and updates its per-group and per-block counts from the fetched blocks'
bitmap rows and the flipped groups' columns.
The fold does only the work its view needs: ``bincount`` and
``ufunc.at`` for many groups, whole-array reductions for one (no
per-row group ids; each round's values are summed pairwise), and for
COUNT the row count alone. A one-group
view is in every block, so its count of blocks still to fetch is
arithmetic: the eligible blocks less those fetched.
After the first round, so, the work of a round is proportional to the
blocks it fetches — the cost structure of the paper's in-memory
engine — plus a fixed cost for the round's interval and stopping
check. That fixed cost is kept small: the interval's scalar terms
(the half-widths of ``N+`` and of the COUNT CI, ``r``, ``R`` and the
round's budget) are Python floats, the running intersection is updated
in place, and the glue for exhausted views runs only in rounds that
have one. ``wall_seconds`` times the round loop (or the exact
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
    gmatrix: np.ndarray  # bool [B, G] — group presence per block
    static_mask: np.ndarray  # bool [B] — predicate-eligible blocks
    rows: np.ndarray  # bool [R] — rows satisfying the predicate
    gid: Optional[np.ndarray]  # intp [R] — each row's group; None for one view
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
    #: Group intervals that crossed and collapsed to their midpoint, summed
    #: over rounds (each a < delta event, see ``RunningIntersection``).
    crossings: int

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
        groups, gid = [()], None
        gmatrix = np.ones((scramble.n_blocks, 1), dtype=bool)

    static = np.ones(scramble.n_blocks, dtype=bool)
    rows = np.ones(scramble.n_rows, dtype=bool)
    for p in spec.predicate:
        if isinstance(p, Eq):
            bm = get_column_bitmap(scramble, p.col)
            if p.value in bm.values:
                i = bm.values.index(p.value)
                static &= bm.matrix[:, i]
                rows &= bm.codes == i
            else:  # as in SQL, a value the column lacks matches no row
                static[:] = rows[:] = False
        else:
            rows &= store.columns[p.col] > p.value

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
        # The visit order, doubled, so that the window from any frontier is
        # one slice: start_block, ..., n-1, 0, ..., n-1, 0, ..., start_block-1.
        blocks = np.arange(n_blocks, dtype=np.int64)
        self.order = np.concatenate([blocks[start_block:], blocks, blocks[:start_block]])
        self.frontier = 0
        self.batch = batch
        self.probes = 0

    def pick(self, todo, k_blocks, live=None, n_active=0):
        w = self.order[self.frontier : self.frontier + self.n]
        if live is None and k_blocks < self.n and todo[w[: k_blocks + 1]].all():
            # No block to skip: the walk takes the first k blocks and, as the
            # next one is a hit, stops just past the last of them.
            self.frontier = (self.frontier + k_blocks) % self.n
            return w[:k_blocks]
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
    active groups (``live``). Both counts are sums over the block-major
    group matrix, read as ``uint8``: after the first round, a round reads
    only the rows of the blocks it fetches and the columns of the groups
    whose active bit flipped. One group's column is all ones (its view is
    in every block), so its ``remaining`` is the eligible blocks less the
    blocks fetched, with no read of the matrix.

    The fold reads ``gid``, ``values`` and the predicate's row mask as
    read-only ``[n_blocks, block_size]`` arrays, one row per block, and
    reads the picked blocks' rows in pick order: one slice (a view) when
    the pick is one run of consecutive blocks, else an ``np.take``
    gather. A short last block is padded with rows outside the mask; with
    no predicate and no padding there is no mask.
    It does only the work its view needs: many groups fold through
    ``bincount`` and ``ufunc.at``; one group through whole-array
    reductions of the kept values, with no ``gid``; and a COUNT
    (``count_only``) folds ``m`` alone, from the mask's count or, with no
    mask, from the number of blocks. ``bincount`` adds in pick order; the
    one-group fold adds each round's values pairwise (``np.add.reduce``,
    so its sums can differ from ``bincount``'s in the last bits) and keeps
    ``ufunc.at``'s pick between a tied -0.0 and +0.0.
    """

    def __init__(
        self, scramble: Scramble, prep: Prep, eligible, start_block, batch,
        count_only=False,
    ):
        B, G = scramble.n_blocks, len(prep.groups)
        bs = self.block_size = scramble.block_size
        self.short = B * bs - scramble.n_rows  # rows missing from block B-1
        self.count_only = count_only
        self.gid = _by_block(prep.gid, B, bs, 0) if G > 1 else None
        self.values = _by_block(prep.values, B, bs, 0.0)
        self.rows = None
        if self.short or not prep.rows.all():
            self.rows = _by_block(prep.rows, B, bs, False)
        self.g8 = prep.gmatrix.view(np.uint8)
        self.g8.flags.writeable = False  # a view of the prep's matrix
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
        if G == 1:
            # The one view is in every block: count the eligible blocks.
            self.remaining = np.array([np.count_nonzero(eligible)])
        else:
            # Every block eligible (no Eq predicate): read the matrix as it is.
            g8 = self.g8 if eligible.all() else self.g8[eligible]
            self.remaining = _count(g8, axis=0)

    def set_active(self, active) -> None:
        """Update ``live`` from the groups whose active bit flipped."""
        g8 = self.g8
        if self.live is None:
            self.live = _count(g8 if active.all() else g8[:, active], axis=1)
        else:
            on, off = active & ~self.active, self.active & ~active
            if on.any():
                self.live += _count(g8[:, on], axis=1)
            if off.any():
                self.live -= _count(g8[:, off], axis=1)
        self.active = active.copy()
        self.n_active = int(np.count_nonzero(active))

    def fetch(self, k_blocks: int) -> np.ndarray:
        """Fetch and fold up to ``k_blocks`` blocks; returns the blocks
        fetched, none if no block is left."""
        picked = self.picker.pick(self.todo, k_blocks, self.live, self.n_active)
        if picked.size == 0:
            return picked
        # Picks are in walk order, so consecutive blocks with no wrap are
        # one run: its rows are a slice of each by-block array, read as a
        # view. Other picks are gathered with ``np.take``.
        first, last = int(picked[0]), int(picked[-1])
        run = last - first == picked.size - 1
        sel = slice(first, last + 1) if run else picked
        self.todo[sel] = False
        self.blocks_fetched += int(picked.size)
        if self.remaining.size == 1:
            self.remaining -= picked.size
        else:
            self.remaining -= _count(_blocks(self.g8, sel), axis=0)
        self.rows_scanned += int(picked.size) * self.block_size
        if self.short and (picked == self.todo.size - 1).any():
            self.rows_scanned -= self.short
        if self.count_only:
            if self.rows is None:
                self.m += picked.size * self.block_size
            else:
                self.m += np.count_nonzero(_blocks(self.rows, sel))
            return picked
        keep = None
        if self.rows is not None:
            keep = np.flatnonzero(_blocks(self.rows, sel))
        v = _gather(self.values, sel, keep)
        if self.gid is None:
            self.m += v.size
            if v.size:
                # Pairwise sums: ~10x faster than sums in pick order.
                self.tot += np.add.reduce(v)
                self.sq += np.add.reduce(v * v)
                np.minimum(self.mn, _last_tie(v.min(), v), out=self.mn)
                np.maximum(self.mx, _last_tie(v.max(), v), out=self.mx)
            return picked
        # Many groups: ``bincount`` adds each group's values in pick order.
        g = _gather(self.gid, sel, keep)
        G = self.m.size
        self.m += np.bincount(g, minlength=G)
        self.tot += np.bincount(g, weights=v, minlength=G)
        self.sq += np.bincount(g, weights=v * v, minlength=G)
        np.minimum.at(self.mn, g, v)
        np.maximum.at(self.mx, g, v)
        return picked


def _blocks(a, sel):
    """The rows of ``a`` (one per block) of the picked blocks, in pick
    order: a read-only view for a run (``sel`` a slice), else a copy.

    ``np.take`` along the block axis copies whole block rows: 1.4-2.2x
    faster than fancy indexing ``a[picked]`` (numpy 1.26.4, 1 600 blocks
    of 25 float64, intp or bool values).
    """
    return a[sel] if isinstance(sel, slice) else np.take(a, sel, axis=0)


def _gather(a, sel, keep):
    """The rows of ``a`` (``[n_blocks, block_size]``) of the picked blocks
    (``sel``), in pick order, flattened; of those, the ``keep`` positions."""
    v = _blocks(a, sel).reshape(-1)
    return v if keep is None else np.take(v, keep)


def _last_tie(x, v):
    """``v.min()`` or ``v.max()`` as ``ufunc.at`` leaves it: of values that
    tie with ``x``, the last. Only a zero can tie with another of other
    bytes (-0.0 and +0.0)."""
    return v[np.flatnonzero(v == 0)[-1]] if x == 0 else x


def _by_block(a, n_blocks, block_size, pad):
    """``a`` as ``[n_blocks, block_size]``, one row per block: a view, or,
    if the last block is short, a copy padded with ``pad``. It is
    read-only, and so is every slice of it the fold reads, so that no fold
    writes into the column store."""
    short = n_blocks * block_size - a.size
    if short:
        a = np.concatenate([a, np.full(short, pad, dtype=a.dtype)])
    a = a.reshape(n_blocks, block_size)
    a.flags.writeable = False
    return a


def _count(m8, axis):
    """Sums of a 0/1 ``uint8`` matrix along ``axis``, as ``int32``.

    Runs of up to 255 entries are summed in ``uint8`` first: such a sum
    cannot overflow, and needs no cast, which makes it ~3x faster.
    """
    m8 = np.moveaxis(m8, axis, -1)
    n = m8.shape[-1] // 255 * 255
    runs = m8[..., :n].reshape(*m8.shape[:-1], -1, 255)
    head = runs.sum(axis=-1, dtype=np.uint8).sum(axis=-1, dtype=np.int32)
    return head + m8[..., n:].sum(axis=-1, dtype=np.uint8)


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
    if config.round_rows < 1:
        raise ValueError(f"round_rows must be >= 1, got {config.round_rows!r}")
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
    round_blocks = math.ceil(config.round_rows / scramble.block_size)
    scan = _Scan(
        scramble, prep, eligible, config.start_block, STRATEGY_BATCH[strategy],
        count_only=kind == "count",
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
        exhausted_all = scan.fetch(round_blocks).size == 0

        # The round's interval with the OptStop budget (Algorithm 5 /
        # Theorem 4), folded into the running intersection.
        delta_k = round_delta(delta_group, k_round)
        r = max(1, scan.rows_scanned)
        inter.update(*_round_ci(kind, config, prep, scan, r, R, delta_k))

        exhausted = scan.remaining <= 0
        est = _estimate(kind, m, tot, r, R, exhausted, 0.5 * (prep.a + prep.b))
        lo, hi = inter.lo, inter.hi
        if exhausted.any():
            alive = (m > 0) | scalar
            # A fully-read view is known exactly — collapse its interval.
            done_exact = exhausted & alive
            lo = np.where(done_exact, est, lo)
            hi = np.where(done_exact, est, hi)
            # Views that turn out to be empty once their blocks are all
            # read contribute no output row; they are dropped from the
            # stopping evaluation entirely (their wide [a, b] intervals
            # would otherwise block separation-style conditions forever).
            kept = np.flatnonzero(alive | ~exhausted)
            verdict = spec.stopping.evaluate(
                est[kept], lo[kept], hi[kept], m[kept], exhausted[kept]
            )
            active = np.zeros(G, dtype=bool)
            active[kept] = verdict.active
        else:
            # No view is exhausted: every view is kept, and none collapses.
            verdict = spec.stopping.evaluate(est, lo, hi, m, exhausted)
            active = verdict.active
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
        crossings=inter.crossings,
    )


def _run_exact(scramble, spec, config, prep, eligible) -> QueryResult:
    """The exact answer: one masked ``bincount`` over the eligible blocks' rows."""
    t0 = time.perf_counter()
    R, G = scramble.n_rows, len(prep.groups)
    in_blocks = np.repeat(eligible, scramble.block_size)[:R]
    rows = in_blocks & prep.rows
    g = prep.gid[rows] if G > 1 else np.zeros(np.count_nonzero(rows), np.int64)
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
        crossings=0,
    )


def _avg_ci(config, prep, scan, r, R, delta_k):
    """The per-group view-size bound ``N+``, then the AVG CI.

    Each block still to fetch that holds a view's rows holds at most
    ``block_size`` of them, so ``m + block_size * remaining`` (at most
    ``R``) bounds every view's size under every strategy, at no cost in
    δ; it is ``m`` once the view is exhausted. Theorem 3's ``N+`` needs
    the scanned rows to be a uniform sample of the view: it tightens the
    bound only where no block is skipped for a group's active state,
    under Scan and for a one-view query, whose view stays active until
    the query stops.
    """
    Nplus = np.minimum(scan.m + scan.remaining * float(scan.block_size), float(R))
    if scan.live is None or Nplus.size == 1:
        Nplus = np.minimum(Nplus, n_plus(scan.m, r, R, delta_k))
    # Guard: a legal view size is >= the sample, and >= 1.
    Nplus = np.maximum(Nplus, np.maximum(scan.m, 1.0))
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
    """Each view's estimate after ``r`` of ``R`` rows (AVG of none: ``empty``).

    A COUNT or SUM view read in full (``exhausted``) is its exact value.
    """
    if kind in SCALAR_KINDS:
        x = m if kind == "count" else tot
        est = x / r * R
        return np.where(exhausted, x, est) if np.any(exhausted) else est
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
