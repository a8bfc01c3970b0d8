"""The engine's block walk on random bitmaps (NumPy only, no Spark).

``_BlockPicker.pick`` is one vectorised cyclic walk for every strategy:
ActiveSync models one index probe per block (batch 1), ActivePeek one
per lookahead batch. While no group becomes active again, both must
take the same blocks every round, and the batched walk never probes
less. The walk must also equal, pick for pick, the per-batch probe loop
it replaced (``_ReferencePicker``), with groups both leaving and
re-entering the active set, and ``_Scan.set_active`` must keep ``live``
equal to the number of active groups in each block.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.fastframe.engine import LOOKAHEAD_BLOCKS, _Scan


class _ReferencePicker:
    """The per-batch probe loop the vectorised walk replaced, kept verbatim."""

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


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    G = int(rng.integers(1, 12))
    gmatrix = rng.random((G, n)) < rng.uniform(0.01, 0.6)
    eligible = rng.random(n) < rng.uniform(0.2, 1.0)
    start = int(rng.integers(0, n))
    return rng, n, G, gmatrix, eligible, start


def _scan(n, G, gmatrix, eligible, start, batch):
    """A ``_Scan`` over one-row blocks, for its walk and its ``live`` count."""
    scramble = SimpleNamespace(n_blocks=n, n_rows=n, block_size=1)
    prep = SimpleNamespace(groups=[()] * G, gmatrix=gmatrix)
    return _Scan(scramble, prep, eligible, start, batch)


def _pick(scan, k):
    """One pick of the scan's walk; the picked blocks leave ``todo``."""
    picked = scan.picker.pick(scan.todo, k, scan.live, scan.n_active)
    scan.todo[picked] = False
    return picked


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
    expected = eligible & gmatrix[active].any(axis=0)
    np.testing.assert_array_equal(fetched, expected)


@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("batch", [1, 7, LOOKAHEAD_BLOCKS])
@pytest.mark.parametrize("seed", range(10))
def test_walk_matches_reference_loop(seed, batch, grouped):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    ref = _ReferencePicker(n, start, batch)
    scan = _scan(n, G, gmatrix, eligible, start, batch)
    fetched = np.zeros(n, dtype=bool)
    active = np.ones(G, dtype=bool)
    for _ in range(40):
        k = int(rng.integers(1, 200))
        if grouped:
            scan.set_active(active)
            np.testing.assert_array_equal(scan.live, gmatrix[active].sum(axis=0))
            want = ref.pick(fetched, eligible, k, gmatrix, np.flatnonzero(active))
        else:
            want = ref.pick(fetched, eligible, k)
        got = _pick(scan, k)
        np.testing.assert_array_equal(got, want)
        assert (scan.picker.probes, scan.picker.frontier) == (ref.probes, ref.frontier)
        fetched[want] = True
        np.testing.assert_array_equal(scan.todo, eligible & ~fetched)
        if not scan.todo.any():
            break
        # Each group's active bit flips with probability 0.3: groups leave
        # the active set and come back, and at times none is active.
        active ^= rng.random(G) < 0.3
