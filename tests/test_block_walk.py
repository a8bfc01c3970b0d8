"""The engine's block walk on random bitmaps (NumPy only, no Spark).

``_BlockPicker.pick`` is one vectorised cyclic walk for every strategy:
ActiveSync models one index probe per block (batch 1), ActivePeek one
per lookahead batch. While no group becomes active again, both must
take the same blocks every round, and the batched walk never probes
less. The walk must also equal, pick for pick, the per-batch probe loop
it replaced (``_ReferencePicker``), with groups both leaving and
re-entering the active set, and when every block is eligible, so that
Scan takes its no-skip pick; ``_Scan.set_active`` must keep ``live``
equal to the number of active groups in each block, and ``_Scan.fetch``
``remaining`` equal to each group's number of blocks still to fetch
(for one view, which is in every block, the eligible blocks not yet
fetched). The group matrix is block-major, ``[n_blocks, n_groups]``, as
the engine's; with one group it is the all-ones column ``prepare``
builds. Each fetch must fold exactly the picked blocks' rows, in pick
order, a short last block included, whether the pick is one run of
blocks (read as views, which are read-only) or gathered, and give the
bytes of the ``bincount``/``ufunc.at`` fold for many groups, of
per-round pairwise sums (``np.add.reduce``) and ``ufunc.at`` for one, and
of the row count for a COUNT.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.fastframe.engine import LOOKAHEAD_BLOCKS, _Scan, _blocks


class _ReferencePicker:
    """The per-batch probe loop the vectorised walk replaced, kept verbatim
    but for the block-major matrix."""

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
                hits = hits[gmatrix[np.ix_(blocks[hits], active_idx)].any(axis=1)]
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


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    G = int(rng.integers(1, 12))
    # Drawn group-major, so the cases are those of the group-major layout.
    gmatrix = np.ascontiguousarray((rng.random((G, n)) < rng.uniform(0.01, 0.6)).T)
    if G == 1:
        # One view: in every block, as ``prepare`` and the bitmaps build it.
        gmatrix[:] = True
    eligible = rng.random(n) < rng.uniform(0.2, 1.0)
    start = int(rng.integers(0, n))
    return rng, n, G, gmatrix, eligible, start


def _scan(n, G, gmatrix, eligible, start, batch):
    """A ``_Scan`` over one-row blocks, for its walk and its counts."""
    scramble = SimpleNamespace(n_blocks=n, n_rows=n, block_size=1)
    prep = SimpleNamespace(
        groups=[()] * G,
        gmatrix=gmatrix,
        rows=np.ones(n, dtype=bool),
        gid=np.zeros(n, dtype=np.int64),
        values=np.zeros(n),
    )
    return _Scan(scramble, prep, eligible, start, batch)


def _pick(scan, k):
    """One fetch of the scan; the picked blocks leave ``todo``."""
    return scan.fetch(k)


@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("seed", range(30))
def test_sync_and_peek_batches_pick_same_blocks(seed, grouped):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    sync = _scan(n, G, gmatrix, eligible, start, 1)
    peek = _scan(n, G, gmatrix, eligible, start, LOOKAHEAD_BLOCKS)
    fetched = np.zeros(n, dtype=bool)
    active = np.ones(G, dtype=bool)
    for _ in range(60):
        k = int(rng.integers(1, 200))
        if grouped:
            sync.set_active(active)
            peek.set_active(active)
        a = _pick(sync, k)
        b = _pick(peek, k)
        np.testing.assert_array_equal(a, b)
        assert peek.picker.probes >= sync.picker.probes
        assert not fetched[a].any() and eligible[a].all()
        assert np.unique(a).size == a.size <= k
        if a.size == 0:
            break
        fetched[a] = True
        # Groups leave the active set and never come back.
        active &= rng.random(G) < 0.9
        if not active.any():
            break
    if not grouped:
        assert sync.picker.probes == peek.picker.probes == 0


@pytest.mark.parametrize("batch", [1, 7, LOOKAHEAD_BLOCKS])
@pytest.mark.parametrize("seed", range(20))
def test_walk_picks_every_eligible_block_before_running_dry(seed, batch):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    active = rng.random(G) < 0.5
    if not active.any():
        active[0] = True
    scan = _scan(n, G, gmatrix, eligible, start, batch)
    scan.set_active(active)
    fetched = np.zeros(n, dtype=bool)
    while True:
        picked = _pick(scan, int(rng.integers(1, 100)))
        if picked.size == 0:
            break
        assert not fetched[picked].any()
        fetched[picked] = True
    expected = eligible & gmatrix[:, active].any(axis=1)
    np.testing.assert_array_equal(fetched, expected)


@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("batch", [1, 7, LOOKAHEAD_BLOCKS])
@pytest.mark.parametrize("seed", range(10))
def test_walk_matches_reference_loop(seed, batch, grouped):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    _match_reference(rng, n, G, gmatrix, eligible, start, batch, grouped)
    # Every block eligible, as for COUNT/SUM: Scan takes the first k blocks
    # of the window without a walk. The start's window wraps past block
    # n-1, and the first pick takes one block (then random picks walk the
    # whole cycle), all blocks but one, all, or asks for more than there are.
    for k in sorted({1, max(1, n - 1), n, n + 5}):
        every = np.ones(n, dtype=bool)
        _match_reference(rng, n, G, gmatrix, every, max(0, n - 2), batch, grouped, k)


def _match_reference(rng, n, G, gmatrix, eligible, start, batch, grouped, k=None):
    """Fetch with a ``_Scan`` and pick with ``_ReferencePicker`` until no
    block is left, for at most 40 picks: the first takes ``k`` blocks
    (random if None), the others a random number."""
    ref = _ReferencePicker(n, start, batch)
    scan = _scan(n, G, gmatrix, eligible, start, batch)
    fetched = np.zeros(n, dtype=bool)
    active = np.ones(G, dtype=bool)
    for _ in range(40):
        k = int(rng.integers(1, 200)) if k is None else k
        if grouped:
            scan.set_active(active)
            np.testing.assert_array_equal(scan.live, gmatrix[:, active].sum(axis=1))
            want = ref.pick(fetched, eligible, k, gmatrix, np.flatnonzero(active))
        else:
            want = ref.pick(fetched, eligible, k)
        got = _pick(scan, k)
        np.testing.assert_array_equal(got, want)
        assert (scan.picker.probes, scan.picker.frontier) == (ref.probes, ref.frontier)
        fetched[want] = True
        np.testing.assert_array_equal(scan.todo, eligible & ~fetched)
        np.testing.assert_array_equal(scan.remaining, gmatrix[scan.todo].sum(axis=0))
        if not scan.todo.any():
            break
        # Each group's active bit flips with probability 0.3: groups leave
        # the active set and come back, and at times none is active.
        active ^= rng.random(G) < 0.3
        k = None


@pytest.mark.parametrize("seed", range(20))
def test_fold_reads_picked_rows_in_pick_order(seed):
    """Each fetch folds the rows of the blocks it picked, block by block in
    pick order, byte for byte as a fold over a gather by row index:
    ``bincount`` and ``ufunc.at`` with many groups, each round's
    ``np.add.reduce`` and ``ufunc.at`` with one (no ``gid``) and, for
    COUNT, ``m`` alone. The picks include runs of blocks and gathers.
    Values include -0.0 and +0.0, whole blocks of them in places.
    ``masked``: a predicate and a short last block, always
    eligible; the predicate drops whole blocks, and the first round keeps
    no row. Else there is no mask, and a COUNT fold counts blocks. After
    each fetch ``remaining`` counts each group's eligible blocks not yet
    fetched."""
    shapes = set()
    for masked in (True, False):
        for fold in ("groups", "one", "count"):
            shapes |= _check_fold(seed, masked, fold)
    # Picks of one run of blocks are read as views, others gathered.
    assert shapes == {"run", "gathered"}


def _check_fold(seed, masked, fold):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    if fold != "groups":
        G, gmatrix = 1, np.ones((n, 1), dtype=bool)
    bs = int(rng.integers(2, 10))
    R = n * bs - int(rng.integers(1, bs)) if masked else n * bs
    eligible[-1] = True
    block = np.arange(R) // bs
    rows = np.ones(R, dtype=bool)
    if masked:
        rows = (rng.random(R) < 0.7) & (rng.random(n) < 0.6)[block]
        first = next(b for b in np.r_[start:n, 0:start] if eligible[b])
        rows[block == first] = False
    # One sign per block, or one for all, so that zeros tie for a round's
    # min or max.
    sign = rng.choice([-1.0, 1.0], n if rng.random() < 0.5 else 1)
    values = np.abs(rng.normal(size=R)) * sign[block % sign.size]
    zeros = (rng.random(R) < 0.2) | (rng.random(n) < 0.3)[block]
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    gid = rng.integers(0, G, R)
    prep = SimpleNamespace(
        groups=[()] * G,
        gmatrix=gmatrix,
        rows=rows,
        gid=gid if fold == "groups" else None,
        values=values,
    )
    scramble = SimpleNamespace(n_blocks=n, n_rows=R, block_size=bs)
    scan = _Scan(
        scramble, prep, eligible, start, LOOKAHEAD_BLOCKS, count_only=fold == "count"
    )
    m, tot, sq = np.zeros(G), np.zeros(G), np.zeros(G)
    mn, mx = np.full(G, np.inf), np.full(G, -np.inf)
    scanned = 0
    fetched = np.zeros(n, dtype=bool)
    shapes = set()
    k, first = 1, True
    while True:
        picked = scan.fetch(k)
        if picked.size == 0:
            break
        shapes.add("run" if picked[-1] - picked[0] == picked.size - 1 else "gathered")
        fetched[picked] = True
        np.testing.assert_array_equal(
            scan.remaining, gmatrix[eligible & ~fetched].sum(axis=0)
        )
        rows = (picked[:, None] * bs + np.arange(bs)).ravel()
        rows = rows[rows < R]
        scanned += rows.size
        rows = rows[prep.rows[rows]]
        g, v = gid[rows], values[rows]
        m += np.bincount(g, minlength=G)
        if fold != "count":
            if G == 1:
                # One view (also a "groups" case that drew G = 1): each
                # round's values are summed pairwise.
                tot += np.add.reduce(v)
                sq += np.add.reduce(v * v)
            else:
                tot += np.bincount(g, weights=v, minlength=G)
                sq += np.bincount(g, weights=v * v, minlength=G)
            np.minimum.at(mn, g, v)
            np.maximum.at(mx, g, v)
        if masked and first:
            assert not m.any()  # so +0.0, inf and -inf stay as they were
        got = (scan.m, scan.tot, scan.sq, scan.mn, scan.mx)
        for a, b in zip((m, tot, sq, mn, mx), got):
            assert a.tobytes() == b.tobytes()
        assert scan.rows_scanned == scanned
        k = 1 if rng.random() < 0.3 else int(rng.integers(1, 200))
        first = False
    assert not scan.todo.any()
    assert scanned == R - bs * int(np.count_nonzero(~eligible))
    return shapes


@pytest.mark.parametrize("short", [0, 3])
def test_fetched_views_are_read_only(short):
    """A run of picked blocks is read as views of the by-block arrays and
    of the group matrix; a write to one raises, so no fold writes into the
    column store or the prep, while those stay writable."""
    rng = np.random.default_rng(0)
    n, G, bs = 10, 3, 4
    R = n * bs - short
    prep = SimpleNamespace(
        groups=[()] * G,
        gmatrix=rng.random((n, G)) < 0.5,
        rows=rng.random(R) < 0.7,
        gid=rng.integers(0, G, R),
        values=rng.normal(size=R),
    )
    scramble = SimpleNamespace(n_blocks=n, n_rows=R, block_size=bs)
    scan = _Scan(scramble, prep, np.ones(n, dtype=bool), 0, LOOKAHEAD_BLOCKS)
    np.testing.assert_array_equal(scan.fetch(3), [0, 1, 2])
    for a in (scan.values, scan.gid, scan.rows, scan.g8):
        view = _blocks(a, slice(0, 3))
        assert np.shares_memory(view, a)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0
    for a in (prep.gmatrix, prep.rows, prep.gid, prep.values):
        assert a.flags.writeable
