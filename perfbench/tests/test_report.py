"""Latency summaries: a fixed number of values, however many passes ran."""
import pytest

from perfbench.report import Outcome, Sample, end_to_end, request_medians, tail


def samples(latencies_per_pass, exact=1.0):
    return [
        Sample(i, lat, exact, rows=1, blocks=1, traced=False)
        for lats in latencies_per_pass
        for i, lat in enumerate(lats)
    ]


def test_request_medians_are_per_position():
    passes = [[1.0, 10.0, 5.0], [3.0, 30.0, 5.0], [2.0, 20.0, 50.0]]
    assert request_medians(samples(passes)) == [2.0, 20.0, 5.0]


@pytest.mark.parametrize("n_passes", [1, 2, 5])
def test_tail_rank_does_not_depend_on_pass_count(n_passes):
    one_pass = [float(i) for i in range(59)]
    value, pct, n = tail(request_medians(samples([one_pass] * n_passes)))
    assert (value, n) == (48.0, 59)
    assert pct == pytest.approx(100 * 48 / 58)


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_exact_relative_metrics():
    out = Outcome(setup_s=1.0, samples=samples([[1.0, 4.0, 2.0], [3.0, 4.0, 2.0]], exact=2.0))
    metrics, extra = end_to_end(out)
    # Per-request medians: latency 2, 4, 2; relative to the exact time 1, 2, 1.
    assert metrics["speedup_vs_exact"] == pytest.approx(6.0 / 8.0)
    assert extra["latency_p50_vs_exact"] == pytest.approx(1.0)
    assert extra["latency_tail_vs_exact"] == pytest.approx(2.0)
    assert extra["latency_p50_s"] == pytest.approx(2.0)
