"""The FastFrame scan engine (paper Sections 4.2-4.3).

Query execution is a sequence of *rounds*. Each round picks the next
batch of blocks according to the sampling strategy, folds their
per-group statistics into the running state, recomputes per-group
confidence intervals with the OptStop-decayed budget, and evaluates the
query's stopping condition over the running intersection of intervals.

Every strategy (paper §5.2) is one cyclic walk of the scramble
(``_BlockPicker.pick``) that skips predicate-ineligible blocks; they
differ only in whether blocks are also filtered by the active groups'
bitmaps and in how many blocks one index probe covers:

* ``scan``        — no group filtering (no index probes);
* ``active_sync`` — group filtering, one probe per block (the
                    cache-miss analog);
* ``active_peek`` — group filtering, one vectorized probe per
                    1024-block lookahead batch (the paper's async
                    lookahead, which amortizes probe cost). It fetches
                    the same blocks as ``active_sync``.

The picking and folding primitives (``_Scan``) are shared with the
COUNT/SUM loop of :mod:`repro.fastframe.count_sum_query`; each loop
keeps only its own intervals and stopping rule.

The per-query Spark work (per-block group statistics via
``groupBy("block_id", *group_cols).agg(...)``, bitmap matrices, group
domains) is prepared once per query signature and cached on the
Scramble; it is timed separately (``prep_seconds``) since it is
bounder/strategy-independent. The round loop itself is pure NumPy whose
work is proportional to blocks fetched — the same cost structure as the
paper's in-memory engine, and the loop wall-clock is what the
experiment harnesses report.

Confidence budget chain (all documented in DESIGN.md): per-query
``delta`` is divided by the group-domain size ``G`` (number of
aggregate views), decayed per round by ``(6/pi^2)/k^2`` (OptStop), and
split ``(1-alpha)`` for the Theorem-3 ``N+`` event with the remaining
``alpha`` fed to the bounder (``/2`` per side inside the CI).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.core import vectorized
from repro.core.count_sum import ALPHA, n_plus
from repro.core.optstop import RunningIntersection, round_delta
from repro.core.stopping import Threshold, TopK
from repro.fastframe.bitmap import get_column_bitmap, group_bitmap_matrix
from repro.fastframe.queries import Eq, QuerySpec
from repro.fastframe.scramble import Scramble

LOOKAHEAD_BLOCKS = 1024  # paper §4.3: lookahead batch of 1024 blocks
BOUNDERS = ("hoeffding", "bernstein", "exact")
#: Blocks per index probe of each strategy's walk (exact mode walks as scan).
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
    blk: np.ndarray  # per stat-row block id
    gid: np.ndarray  # per stat-row group index
    cnt: np.ndarray
    tot: np.ndarray
    sq: np.ndarray
    mn: np.ndarray
    mx: np.ndarray
    a: float
    b: float
    prep_seconds: float


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
    prep_seconds: float
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
    """Spark-side prep: block stats + bitmaps, cached per query signature."""
    key = ("prep", spec.signature())
    if key in scramble.prep_cache:
        return scramble.prep_cache[key]
    t0 = time.perf_counter()

    a, b = scramble.catalog.bounds(spec.agg_col)

    if spec.group_cols:
        groups, gmatrix = group_bitmap_matrix(scramble, spec.group_cols)
    else:
        groups = [()]
        gmatrix = np.ones((1, scramble.n_blocks), dtype=bool)

    static = np.ones(scramble.n_blocks, dtype=bool)
    for p in spec.predicate:
        if isinstance(p, Eq):
            static &= get_column_bitmap(scramble, p.col).row(p.value)

    df = scramble.df
    pred = spec.predicate_spark()
    if pred is not None:
        df = df.filter(pred)
    v = F.col(spec.agg_col)
    agg = df.groupBy("block_id", *spec.group_cols).agg(
        F.count(v).alias("cnt"),
        F.sum(v).alias("tot"),
        F.sum(v * v).alias("sq"),
        F.min(v).alias("mn"),
        F.max(v).alias("mx"),
    )
    pdf = agg.toPandas().sort_values("block_id", kind="stable")

    if spec.group_cols:
        gindex = {g: i for i, g in enumerate(groups)}
        keys = list(
            zip(*(pdf[c].tolist() for c in spec.group_cols))
        )
        gid = np.array([gindex[k] for k in keys], dtype=np.int64)
    else:
        gid = np.zeros(len(pdf), dtype=np.int64)

    prep = Prep(
        groups=groups,
        gmatrix=gmatrix,
        static_mask=static,
        blk=pdf["block_id"].to_numpy(dtype=np.int64),
        gid=gid,
        cnt=pdf["cnt"].to_numpy(dtype=np.float64),
        tot=pdf["tot"].to_numpy(dtype=np.float64),
        sq=pdf["sq"].to_numpy(dtype=np.float64),
        mn=pdf["mn"].to_numpy(dtype=np.float64),
        mx=pdf["mx"].to_numpy(dtype=np.float64),
        a=float(a),
        b=float(b),
        prep_seconds=time.perf_counter() - t0,
    )
    scramble.prep_cache[key] = prep
    return prep


class _BlockPicker:
    """Chooses the next blocks to fetch: one cyclic walk for every strategy.

    Visit order starts at ``start_block`` and wraps (the paper starts
    each approximate query at a random scramble position). The walk
    resumes from a persistent frontier and examines ``batch`` blocks at
    a time. Given group bitmaps, it keeps only blocks holding an active
    group, probing each batch's candidates in one gather: ActiveSync
    walks with batch 1 (one index probe per block, the cache-miss
    analog), ActivePeek with the lookahead batch that amortizes it. While
    no group becomes active again, both take the same blocks (the blocks
    a batch passes over after its last take hold no active group).
    Cycling naturally revisits blocks skipped earlier if their groups
    become active again, which guarantees every eligible block is
    eventually fetched (termination with exact results in the worst
    case).
    """

    def __init__(self, n_blocks: int, start_block: int, batch: int):
        self.n = n_blocks
        order = (np.arange(n_blocks, dtype=np.int64) + start_block) % n_blocks
        # Doubled, so that a batch which wraps around is still one slice.
        self.order = np.concatenate([order, order])
        self.frontier = 0
        self.batch = batch
        self.probes = 0

    def pick(self, fetched, eligible, k_blocks, gmatrix=None, active_idx=None):
        picked: list = []
        i = 0
        while i < self.n and len(picked) < k_blocks:
            size = min(self.batch, self.n - i)
            pos = (self.frontier + i) % self.n
            blocks = self.order[pos : pos + size]
            hits = np.flatnonzero(~fetched[blocks] & eligible[blocks])
            if gmatrix is not None and hits.size:
                self.probes += int(active_idx.size * hits.size)
                hits = hits[gmatrix[np.ix_(active_idx, blocks[hits])].any(axis=0)]
            take = hits[: k_blocks - len(picked)]
            picked.extend(blocks[take].tolist())
            if take.size < hits.size:
                # The quota filled mid-batch: stop just past the last block
                # taken, so the eligible blocks left untaken are not skipped.
                i += int(take[-1]) + 1
                break
            i += size
        self.frontier = (self.frontier + i) % self.n
        return np.array(picked, dtype=np.int64)


class _Scan:
    """The round primitives shared by ``run_query`` and ``run_count_sum``.

    Holds the fetched mask, the block walk, the cost counters, the
    running per-group ``m/tot/sq/mn/mx`` and, per group, the number of
    eligible blocks not yet fetched (``remaining``; 0 means exhausted).
    """

    def __init__(self, scramble: Scramble, prep: Prep, eligible, start_block, batch):
        B, G = scramble.n_blocks, len(prep.groups)
        self.prep = prep
        self.eligible = eligible
        self.rows_per_block = scramble.rows_per_block
        self.fetched = np.zeros(B, dtype=bool)
        self.picker = _BlockPicker(B, start_block % B, batch)
        self.blocks_fetched = 0
        self.rows_scanned = 0
        self.m = np.zeros(G, dtype=np.float64)
        self.tot = np.zeros(G, dtype=np.float64)
        self.sq = np.zeros(G, dtype=np.float64)
        self.mn = np.full(G, np.inf)
        self.mx = np.full(G, -np.inf)
        self.remaining = (prep.gmatrix & eligible).sum(axis=1).astype(np.int64)
        # Stat rows are sorted by block id; per-block row ranges let each round
        # gather exactly the fetched blocks' rows (O(rows fetched), not O(S)).
        self.row_starts = np.searchsorted(prep.blk, np.arange(B))
        row_ends = np.searchsorted(prep.blk, np.arange(B), side="right")
        self.row_lens = row_ends - self.row_starts

    def fetch(self, k_blocks: int, active_idx=None) -> bool:
        """Fetch and fold up to ``k_blocks`` blocks; False if none is left.

        With ``active_idx``, only blocks holding one of those groups count.
        """
        p = self.prep
        gmatrix = None if active_idx is None else p.gmatrix
        picked = self.picker.pick(
            self.fetched, self.eligible, k_blocks, gmatrix, active_idx
        )
        if picked.size == 0:
            return False
        self.fetched[picked] = True
        self.blocks_fetched += int(picked.size)
        self.rows_scanned += int(self.rows_per_block[picked].sum())
        self.remaining -= p.gmatrix[:, picked].sum(axis=1)
        # The picked blocks' stat rows, block by block in pick order (the
        # bincount sums depend on the order they accumulate in).
        lens = self.row_lens[picked]
        sel = np.repeat(self.row_starts[picked] - (np.cumsum(lens) - lens), lens)
        sel += np.arange(sel.size)
        g = p.gid[sel]
        G = self.m.size
        self.m += np.bincount(g, weights=p.cnt[sel], minlength=G)
        self.tot += np.bincount(g, weights=p.tot[sel], minlength=G)
        self.sq += np.bincount(g, weights=p.sq[sel], minlength=G)
        np.minimum.at(self.mn, g, p.mn[sel])
        np.maximum.at(self.mx, g, p.mx[sel])
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
    prep = prepare(scramble, spec)
    G = len(prep.groups)
    R = scramble.n_rows
    exact_mode = config.bounder == "exact"
    strategy = "scan" if exact_mode else config.strategy
    delta_group = config.delta / max(1, G)
    round_blocks = max(1, math.ceil(config.round_rows / scramble.block_size))

    scan = _Scan(
        scramble, prep, prep.static_mask, config.start_block, STRATEGY_BATCH[strategy]
    )
    m, tot = scan.m, scan.tot  # folded in place each round
    inter = RunningIntersection(G, prep.a, prep.b)
    active = np.ones(G, dtype=bool)

    k_round = 0
    exhausted_all = False
    est = np.full(G, 0.5 * (prep.a + prep.b))
    lo = np.full(G, prep.a)
    hi = np.full(G, prep.b)

    t0 = time.perf_counter()
    while True:
        k_round += 1
        active_idx = None
        if strategy != "scan":
            active_idx = np.flatnonzero(active)
            if active_idx.size == 0:
                exhausted_all = True
                break
        exhausted_all = not scan.fetch(round_blocks, active_idx)

        if exact_mode:
            if exhausted_all:
                break
            continue

        # Per-group view-size upper bound N+ (Theorem 3) and CIs with the
        # OptStop round budget (Algorithm 5 / Theorem 4).
        delta_k = round_delta(delta_group, k_round)
        r_eff = max(1, scan.rows_scanned)
        Nplus = n_plus(m, r_eff, R, delta_k)
        Nplus = np.maximum(Nplus, m)  # guard: a legal size is >= the sample
        lo_k, hi_k = vectorized.ci(
            config.bounder,
            m,
            tot,
            scan.sq,
            scan.mn,
            scan.mx,
            prep.a,
            prep.b,
            Nplus,
            ALPHA * delta_k,
            config.range_trim,
        )
        inter.update(lo_k, hi_k)

        exhausted = scan.remaining <= 0

        est = np.where(m > 0, tot / np.maximum(m, 1.0), 0.5 * (prep.a + prep.b))
        lo, hi = inter.lo.copy(), inter.hi.copy()
        # A fully-read view is known exactly — collapse its interval.
        done_exact = exhausted & (m > 0)
        lo[done_exact] = est[done_exact]
        hi[done_exact] = est[done_exact]

        # Views that turn out to be empty once their blocks are all read
        # contribute no output row; they are dropped from the stopping
        # evaluation entirely (their wide [a, b] intervals would
        # otherwise block separation-style conditions forever).
        dead = exhausted & (m == 0)
        live = np.flatnonzero(~dead)
        verdict = spec.stopping.evaluate(
            est[live], lo[live], hi[live], m[live], exhausted[live]
        )
        active = np.zeros(G, dtype=bool)
        active[live] = verdict.active
        if verdict.done or exhausted_all:
            exhausted_all = exhausted_all or bool(exhausted.all())
            break

    if exact_mode:
        est = np.where(m > 0, tot / np.maximum(m, 1.0), np.nan)
        lo = est.copy()
        hi = est.copy()

    wall = time.perf_counter() - t0

    alive = m > 0
    decision = _decide(spec, prep.groups, est, lo, hi, alive)
    return QueryResult(
        query=spec.name,
        label=config.label(),
        strategy=strategy,
        groups=[g for g, al in zip(prep.groups, alive) if al],
        est=est[alive],
        lo=lo[alive],
        hi=hi[alive],
        m=m[alive],
        decision=decision,
        blocks_fetched=scan.blocks_fetched,
        rows_scanned=scan.rows_scanned,
        rounds=k_round,
        wall_seconds=wall,
        prep_seconds=prep.prep_seconds,
        index_probes=scan.picker.probes,
        exhausted_all=exhausted_all,
    )


def _decide(spec: QuerySpec, groups, est, lo, hi, alive):
    """Read the query's decision off the per-group intervals."""
    est_a, lo_a, hi_a = est[alive], lo[alive], hi[alive]
    groups_a = [g for g, al in zip(groups, alive) if al]
    names = [g if len(g) != 1 else g[0] for g in groups_a]

    kind = spec.result_kind
    if kind == "avg_ci":
        if not names:
            return None
        return {"avg": float(est_a[0]), "lo": float(lo_a[0]), "hi": float(hi_a[0])}
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
