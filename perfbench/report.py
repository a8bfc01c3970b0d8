"""What a workload hands back, and how it becomes the reported metrics.

Every workload is a closed loop with one client: the next request is sent
only when the previous one has returned. Requests are grouped in fixed
*passes* (the same requests in the same order, with the same inputs), and
the loop runs whole passes, so every count per request is the same on
every run of one seed, however many passes fit in the time.

Latencies are summarised per request first: each request of the pass
gets the median of its latencies over the passes, and the latency
metrics are taken over those medians. So the tail is the same quantile
of the same number of values on every run, however many passes fit.

Each request is followed by its *exact baseline*: a plain Spark query
computing the same aggregate exactly. The gated time metric,
``speedup_vs_exact``, is relative to it, because on a shared host the
machine's speed drifts and moves both times alike; the latencies in
seconds and relative to the baseline are reported too.
"""
from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Sample:
    """One request: its latency, the work it did, and whether it failed."""

    position: int  # index of the request in its pass
    latency: float
    exact: float  # seconds of the request's exact baseline
    rows: int
    blocks: int
    traced: bool
    error: Optional[str] = None


@dataclass
class Outcome:
    """A workload's setup time, its requests, and its traced measurements."""

    setup_s: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    per_layer: Dict[str, float] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)
    #: Untimed checks that are not requests: None if passed, else the error.
    checks: List[Optional[str]] = field(default_factory=list)

    def latencies(self, traced: bool) -> List[float]:
        return [s.latency for s in self.samples if s.traced == traced]


class ClosedLoop:
    """Sends whole passes of requests, one request at a time.

    ``run_pass(traced)`` sends one pass. With tracing, passes alternate
    untraced and traced, starting untraced, and at least one of each is
    run, so that the tracing overhead can be measured.
    """

    def __init__(self, run_pass: Callable[[bool], None], trace: bool):
        self.run_pass = run_pass
        self.trace = trace
        self.passes = 0

    def run(self, seconds: float) -> None:
        """Run whole passes until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        min_passes = 2 if self.trace else 1
        while self.passes < min_passes or time.perf_counter() < deadline:
            self.run_pass(self.trace and self.passes % 2 == 1)
            self.passes += 1


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``. With ten samples or fewer
    no such percentile exists, and the maximum is returned as p100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * k / (n - 1), n


def tracing_overhead(outcome: Outcome) -> float:
    """Mean traced latency over mean untraced latency, minus one."""
    traced, untraced = outcome.latencies(True), outcome.latencies(False)
    return (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0


def peak_rss_mb() -> float:
    """Peak resident set size of this Python process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def request_medians(
    samples: List[Sample], value: Callable[[Sample], float] = lambda s: s.latency
) -> List[float]:
    """Each request's median ``value`` over the passes, in pass order."""
    by_position: Dict[int, List[float]] = {}
    for s in samples:
        by_position.setdefault(s.position, []).append(value(s))
    return [statistics.median(by_position[i]) for i in sorted(by_position)]


def end_to_end(outcome: Outcome) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics from the untraced requests, plus what they rest on.

    The first dict holds the metrics BENCHMARK.json declares; the second
    the other metrics printed and what the tail rests on.
    """
    untraced = [s for s in outcome.samples if not s.traced]
    lat = request_medians(untraced)
    exact = request_medians(untraced, lambda s: s.exact)
    rel = request_medians(untraced, lambda s: s.latency / s.exact)
    tail_s, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": outcome.setup_s,
        "speedup_vs_exact": sum(exact) / sum(lat),
        "rows_per_query": sum(s.rows for s in untraced) / len(untraced),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_vs_exact": statistics.median(rel),
        "latency_tail_vs_exact": tail(rel)[0],
        "exact_p50_s": statistics.median(exact),
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "untraced_passes": len(untraced) // n,
        "blocks_per_query": sum(s.blocks for s in untraced) / len(untraced),
        "failed_frac": sum(s.error is not None for s in untraced) / len(untraced),
    }
    return metrics, extra
