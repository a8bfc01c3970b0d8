"""Tests for RangeTrim (Algorithms 4 and 6).

Keys: the streaming clip-based update is equivalent to the batch
"sample minus its extreme" formulation of :func:`repro.core.vectorized.ci`
in any arrival order and with ties, RangeTrim removes PHOS (Lbound
ignores b, Rbound ignores a), and correctness (coverage) is preserved.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorized as V
from repro.core.bounders import EmpiricalBernsteinSerfling, HoeffdingSerfling
from repro.core.range_trim import RangeTrim
from repro.core.stats import from_values

A, B, N = -50.0, 150.0, 100_000

BOUNDERS = [HoeffdingSerfling, EmpiricalBernsteinSerfling]


def _stream(rt, vals):
    s = rt.init_state()
    for v in vals:
        s = rt.update_state(s, float(v))
    return s


def _batch_ci(kind, vals, delta):
    """Batch RangeTrim CI of :func:`repro.core.vectorized.ci`."""
    s = from_values(vals)
    lo, hi = V.ci(
        kind, s.m, s.total, s.total_sq, s.vmin, s.vmax, A, B, N, delta, True
    )
    return float(lo), float(hi)


@pytest.mark.parametrize("inner_cls", BOUNDERS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_streaming_equals_batch(inner_cls, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(30, 10, 500)
    rt = RangeTrim(inner_cls())
    s = _stream(rt, vals)
    ci_stream = rt.ci(s, A, B, N, 1e-8)
    ci_batch = _batch_ci(inner_cls.name, vals, 1e-8)
    assert ci_stream[0] == pytest.approx(ci_batch[0], rel=1e-12)
    assert ci_stream[1] == pytest.approx(ci_batch[1], rel=1e-12)


@pytest.mark.parametrize("inner_cls", BOUNDERS)
def test_streaming_order_invariant(inner_cls):
    rng = np.random.default_rng(5)
    vals = rng.uniform(0, 100, 200)
    cis = []
    for perm_seed in range(4):
        order = np.random.default_rng(perm_seed).permutation(len(vals))
        rt = RangeTrim(inner_cls())
        s = _stream(rt, vals[order])
        cis.append(rt.ci(s, A, B, N, 1e-6))
    for ci in cis[1:]:
        assert ci[0] == pytest.approx(cis[0][0], rel=1e-12)
        assert ci[1] == pytest.approx(cis[0][1], rel=1e-12)


@given(st.lists(st.floats(min_value=-49.0, max_value=149.0, allow_nan=False), min_size=2, max_size=60))
@settings(max_examples=60, deadline=None)
def test_streaming_equals_batch_hypothesis(vals):
    rt = RangeTrim(HoeffdingSerfling())
    s = _stream(rt, vals)
    ci_stream = rt.ci(s, A, B, N, 1e-4)
    ci_batch = _batch_ci("hoeffding", vals, 1e-4)
    assert ci_stream[0] == pytest.approx(ci_batch[0], rel=1e-9, abs=1e-9)
    assert ci_stream[1] == pytest.approx(ci_batch[1], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("inner_cls", BOUNDERS)
@pytest.mark.parametrize("delta", [0.5, 1e-6, 1e-15])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_streaming_equals_batch_with_ties(inner_cls, delta, seed):
    """Heavy ties, including a tied max and min: Algorithm 6 still leaves
    the sample minus one copy of its max (min) in S_l (S_r)."""
    rng = np.random.default_rng(seed)
    for m in (2, 3, 10, 57, 400):
        vals = np.clip(5.0 * np.round(rng.normal(30, 40, m) / 5.0), A, B)
        rt = RangeTrim(inner_cls())
        ci_stream = rt.ci(_stream(rt, vals), A, B, N, delta)
        ci_batch = _batch_ci(inner_cls.name, vals, delta)
        assert ci_stream[0] == pytest.approx(ci_batch[0], rel=1e-12, abs=1e-12)
        assert ci_stream[1] == pytest.approx(ci_batch[1], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("inner_cls", BOUNDERS)
def test_phos_removed(inner_cls):
    """Lbound must ignore b entirely; Rbound must ignore a."""
    rng = np.random.default_rng(6)
    vals = rng.normal(40, 5, 400)
    rt = RangeTrim(inner_cls())
    s = _stream(rt, vals)
    assert rt.lbound(s, A, B, N, 0.01) == rt.lbound(s, A, B + 1e6, N, 0.01)
    assert rt.rbound(s, A, B, N, 0.01) == rt.rbound(s, A - 1e6, B, N, 0.01)


@pytest.mark.parametrize("inner_cls", BOUNDERS)
def test_tighter_when_observed_range_small(inner_cls):
    """The point of RangeTrim: big win when (MAX-MIN) << (b-a)."""
    rng = np.random.default_rng(7)
    vals = rng.uniform(45, 55, 2000)  # observed range ~10, catalog range 200
    inner = inner_cls()
    rt = RangeTrim(inner_cls())
    s_plain = from_values(vals)
    s_rt = _stream(rt, vals)
    w_plain = inner.rbound(s_plain, A, B, N, 0.005) - inner.lbound(
        s_plain, A, B, N, 0.005
    )
    w_rt = rt.rbound(s_rt, A, B, N, 0.005) - rt.lbound(s_rt, A, B, N, 0.005)
    assert w_rt < w_plain


def test_empty_and_single_sample():
    rt = RangeTrim(EmpiricalBernsteinSerfling())
    s = rt.init_state()
    assert rt.lbound(s, A, B, N, 0.05) == A
    assert rt.rbound(s, A, B, N, 0.05) == B
    s = rt.update_state(s, 10.0)
    # One sample: both trimmed states are empty -> full-range bounds.
    assert rt.lbound(s, A, B, N, 0.05) == A
    assert rt.rbound(s, A, B, N, 0.05) == B


def test_duplicates_handled():
    rt = RangeTrim(HoeffdingSerfling())
    vals = [5.0, 5.0, 3.0, 3.0, 7.0, 7.0]
    s = _stream(rt, vals)
    ci_stream = rt.ci(s, A, B, N, 0.01)
    ci_batch = _batch_ci("hoeffding", vals, 0.01)
    assert ci_stream[0] == pytest.approx(ci_batch[0])
    assert ci_stream[1] == pytest.approx(ci_batch[1])


@pytest.mark.parametrize("inner_cls", BOUNDERS)
@pytest.mark.parametrize("delta", [0.3, 0.1])
def test_coverage_preserved(inner_cls, delta):
    """Theorem 2: RangeTrim CIs still fail with probability < delta."""
    rng = np.random.default_rng(9)
    pop = np.clip(rng.normal(60, 30, 4000), A, B)
    mu = pop.mean()
    rt = RangeTrim(inner_cls())
    failures = 0
    trials = 250
    for _ in range(trials):
        sample = rng.choice(pop, 200, replace=False)
        s = _stream(rt, sample)
        lo, hi = rt.ci(s, A, B, len(pop), delta)
        if not (lo <= mu <= hi):
            failures += 1
    assert failures / trials <= delta


def test_uses_n_minus_one():
    """Algorithm 4 line 12: the inner bounder sees dataset size N-1."""
    rng = np.random.default_rng(10)
    vals = rng.normal(30, 10, 300)
    inner = HoeffdingSerfling()
    rt = RangeTrim(HoeffdingSerfling())
    s = _stream(rt, vals)
    rest = from_values(sorted(vals)[:-1])  # the sample minus its max
    expected_lo = inner.lbound(rest, A, max(vals), N - 1, 0.01)
    assert rt.lbound(s, A, B, N, 0.01) == pytest.approx(expected_lo, rel=1e-12)
