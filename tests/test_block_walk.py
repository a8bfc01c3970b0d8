"""The engine's block walk on random bitmaps (NumPy only, no Spark).

``_BlockPicker.pick`` is one cyclic walk for every strategy: ActiveSync
probes one block at a time (batch 1), ActivePeek a lookahead batch at a
time. While no group becomes active again, both must take the same
blocks every round, and the batched walk never probes less.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.fastframe.engine import LOOKAHEAD_BLOCKS, _BlockPicker


def _case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3000))
    G = int(rng.integers(1, 12))
    gmatrix = rng.random((G, n)) < rng.uniform(0.01, 0.6)
    eligible = rng.random(n) < rng.uniform(0.2, 1.0)
    start = int(rng.integers(0, n))
    return rng, n, G, gmatrix, eligible, start


@pytest.mark.parametrize("grouped", [True, False])
@pytest.mark.parametrize("seed", range(30))
def test_sync_and_peek_batches_pick_same_blocks(seed, grouped):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    sync = _BlockPicker(n, start, 1)
    peek = _BlockPicker(n, start, LOOKAHEAD_BLOCKS)
    fetched = np.zeros(n, dtype=bool)
    active = np.ones(G, dtype=bool)
    for _ in range(60):
        k = int(rng.integers(1, 200))
        if grouped:
            active_idx = np.flatnonzero(active)
            a = sync.pick(fetched, eligible, k, gmatrix, active_idx)
            b = peek.pick(fetched, eligible, k, gmatrix, active_idx)
        else:
            a = sync.pick(fetched, eligible, k)
            b = peek.pick(fetched, eligible, k)
        np.testing.assert_array_equal(a, b)
        assert peek.probes >= sync.probes
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
        assert sync.probes == peek.probes == 0


@pytest.mark.parametrize("batch", [1, 7, LOOKAHEAD_BLOCKS])
@pytest.mark.parametrize("seed", range(20))
def test_walk_picks_every_eligible_block_before_running_dry(seed, batch):
    rng, n, G, gmatrix, eligible, start = _case(seed)
    active_idx = np.flatnonzero(rng.random(G) < 0.5)
    if active_idx.size == 0:
        active_idx = np.array([0])
    picker = _BlockPicker(n, start, batch)
    fetched = np.zeros(n, dtype=bool)
    while True:
        picked = picker.pick(
            fetched, eligible, int(rng.integers(1, 100)), gmatrix, active_idx
        )
        if picked.size == 0:
            break
        assert not fetched[picked].any()
        fetched[picked] = True
    expected = eligible & gmatrix[active_idx].any(axis=0)
    np.testing.assert_array_equal(fetched, expected)
