"""Self time: a span's duration minus the union of its children."""
import time
import types

import pytest

from perfbench.spans import Tracer, self_times


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [5, 6]; [5, 6] has a child.
    own = self_times([0, 1, 5, 5.5], [10, 3, 6, 5.8], [-1, 0, 0, 2])
    assert own == pytest.approx([7.0, 2.0, 0.7, 0.3])


def test_overlapping_children_counted_once():
    # children [1, 4], [2, 5] and [3, 4] overlap; their union is [1, 5].
    own = self_times([0, 1, 2, 3], [10, 4, 5, 4], [-1, 0, 0, 0])
    assert own[0] == pytest.approx(6.0)


def test_children_clipped_to_parent_and_order_free():
    # the child starting before its parent and the later-listed earlier
    # child: only [0, 2] and [4, 10] of the parent are covered.
    own = self_times([4, 0, -1], [12, 10, 2], [1, -1, 1])
    assert own[1] == pytest.approx(2.0)


def test_tracer_wraps_and_restores():
    mod = types.ModuleType("m")

    def leaf():
        time.sleep(0.01)

    def outer():
        mod.leaf()
        time.sleep(0.01)

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "outer", "outer")
    with tracer.span("request"):
        mod.outer()
    tracer.unwrap_all()
    assert mod.leaf is leaf and mod.outer is outer

    layers, children = tracer.drain()
    assert {n: t.calls for n, t in layers.items()} == {"request": 1, "outer": 1, "leaf": 1}
    out = layers["outer"]
    assert out.own == pytest.approx(out.total - layers["leaf"].total)
    assert children[("request", "outer")] == pytest.approx(out.total)
    assert tracer.drain() == ({}, {})
