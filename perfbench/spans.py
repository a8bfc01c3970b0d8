"""In-memory spans for the benchmark's traced runs.

A span is a name, a start, an end and the span that caused it (its
parent). Spans come from two places, both in the benchmark's own files:
``Tracer.span`` around the benchmark's calls, and ``Tracer.wrap``, which
replaces a public function or method *as the calling module sees it*
(e.g. ``repro.fastframe.engine.n_plus``) with a wrapper that records a
span around each call.

The workloads drain the tracer after every request, folding that
request's spans into per-layer totals, so a traced run of a workload
that makes millions of calls keeps one request's spans in memory, not
all of them.
"""
from __future__ import annotations

import functools
import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class LayerTotals:
    """Calls, inclusive seconds and self seconds of one span name."""

    calls: int = 0
    total: float = 0.0
    own: float = 0.0

    def add(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.total += other.total
        self.own += other.own


def self_times(start, end, parent) -> np.ndarray:
    """Per span: its duration minus the part of it its children cover.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Children are clipped to their parent's interval, and where children
    overlap the overlap is counted once (the union of their intervals).
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = [0.0] * len(start)
    reach = [-math.inf] * len(start)  # furthest end covered so far, per parent
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    # Visiting children in start order makes each parent's covered set
    # one growing union: only the part past ``reach`` is new.
    for i in np.argsort(start, kind="stable").tolist():
        p = par[i]
        if p < 0:
            continue
        hi = min(e[i], e[p])
        lo = max(s[i], s[p], reach[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return (end - start) - np.asarray(covered)


class Tracer:
    """Records spans and installs span-recording wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``owner`` is a module or a class; ``attr`` must be defined on it
        directly (not inherited), so that unwrapping restores it exactly.
        """
        orig = vars(owner)[attr]
        nid = self._id(name)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(i)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def drain(self):
        """Fold the recorded spans into totals and forget them.

        Returns ``(layers, children)``: per span name its
        :class:`LayerTotals`, and per ``(parent name, child name)`` the
        seconds the child spans took.
        """
        if self._stack:
            raise RuntimeError("drain() inside an open span")
        names = np.array(self._name, dtype=np.int64)
        start = np.array(self._start, dtype=np.float64)
        end = np.array(self._end, dtype=np.float64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = end - start
        own = self_times(start, end, parent)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own_s = np.bincount(names, weights=own, minlength=k)
        layers = {
            n: LayerTotals(int(calls[i]), float(total[i]), float(own_s[i]))
            for i, n in enumerate(self.names)
            if calls[i]
        }
        has_parent = parent >= 0
        pairs = names[parent[has_parent]] * k + names[has_parent]
        pair_total = np.bincount(pairs, weights=dur[has_parent], minlength=k * k)
        children = {
            (self.names[c // k], self.names[c % k]): float(pair_total[c])
            for c in np.flatnonzero(pair_total).tolist()
        }
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        return layers, children
