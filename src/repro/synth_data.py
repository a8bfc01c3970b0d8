"""Synthetic FLIGHTS data at a configurable scale factor.

SF=1.0 is 6 M rows. Tests use SF<=0.01; the Table 5/6 job
(``jobs/run_table56.py``) defaults to SF=0.6. The
generator is deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_N_FLIGHTS_PER_SF = 6_000_000

#: (code, frequency weight, base mean delay (min), departure-time slope).
#: Rare regional carriers have the largest mean delays and the strongest
#: departure-time effect — this reproduces the FLIGHTS features the paper's
#: results hinge on: sparse groups bottleneck GROUP BY queries (active
#: scanning), sparse groups see few outliers (RangeTrim), and later
#: departures spread the airline means apart (F-q3).
FLIGHT_AIRLINES = [
    ("WN", 18.0, 11.0, 8.0),
    ("AA", 15.0, 9.0, 10.0),
    ("DL", 13.0, 7.5, 12.0),
    ("UA", 11.0, 10.5, 9.0),
    ("US", 9.0, 8.0, 1.0),
    ("NW", 7.0, 0.5, 0.0),
    ("CO", 6.0, 10.0, 9.0),
    ("MQ", 5.0, 13.0, 8.0),
    ("OO", 4.0, 15.0, 9.0),
    ("XE", 3.5, 17.0, 10.0),
    ("YV", 3.0, 24.0, 12.0),
    ("HP", 2.5, 12.0, 5.0),
    ("F9", 2.0, 28.0, 14.0),
    ("HA", 1.5, 52.0, 10.0),
]

_N_AIRPORTS = 60
#: Airports with a strongly negative additive delay offset — their average
#: departure delay comes out negative (the F-q5 answer set). They are given
#: low Zipf ranks (sparse) so F-q5 is bottlenecked on sparse groups, the
#: regime where the paper's active scanning shines (Table 6).
_NEGATIVE_OFFSET_AIRPORTS = {37: -20.0, 41: -21.5, 46: -19.0, 52: -22.5, 57: -24.0}
_ORD_IDX = 1  # dense airport with a high positive offset (F-q1 / F-q4 / F-q8)

FLIGHT_DELAY_MIN = -60.0  # physical floor: flights leave at most 60 min early


def _airport_table(rng: np.random.Generator):
    """Deterministic airport codes, Zipf weights, and delay offsets."""
    codes = []
    for i in range(_N_AIRPORTS):
        c1, c2, c3 = i // 26, i % 26, (7 * i + 3) % 26
        codes.append(chr(65 + c1) + chr(65 + c2) + chr(65 + c3))
    codes[_ORD_IDX] = "ORD"
    ranks = np.arange(1, _N_AIRPORTS + 1, dtype=np.float64)
    weights = 1.0 / ranks**1.05
    weights /= weights.sum()
    # Positive offsets stay >= 3.3 so every non-negative airport's mean
    # sits well above zero (the F-q5 threshold is resolvable without a
    # full per-group scan at reproduction scale), and <= 12 so ORD
    # (offset 18) is the clear F-q8 winner.
    offsets = rng.uniform(3.3, 9.0, _N_AIRPORTS)
    offsets[_ORD_IDX] = 18.0
    for idx, off in _NEGATIVE_OFFSET_AIRPORTS.items():
        offsets[idx] = off
    return codes, weights, offsets


def flights(spark: SparkSession, *, sf: float = 0.01, seed: int = 7) -> DataFrame:
    """Synthetic FLIGHTS-lite table (paper Table 3 substitute).

    Columns mirror the attributes the paper extracts from the public
    FLIGHTS dataset: Origin (airport), Airline (carrier), DepDelay
    (minutes, the aggregated measure), DepTime (minutes after midnight),
    DayOfWeek (1-7). SF=1.0 is ~6 M rows (the paper used 606 M).

    DepDelay = airline base + airport offset + day-of-week effect +
    airline-specific departure-time slope + Gaussian noise, plus a rare
    exponential outlier tail (~3 per 10k rows) that stretches the global
    MAX to several hundred minutes. The catalog range bounds (true
    MIN/MAX) are therefore far wider than any one group's effective
    range, which is precisely the regime where the paper's PMA/PHOS
    pathologies bite and RangeTrim pays off.
    """
    n = max(1, int(_N_FLIGHTS_PER_SF * sf))
    g = _rng(seed)

    air_w = np.array([w for _, w, _, _ in FLIGHT_AIRLINES])
    air_w = air_w / air_w.sum()
    air_idx = g.choice(len(FLIGHT_AIRLINES), n, p=air_w)
    air_base = np.array([b for _, _, b, _ in FLIGHT_AIRLINES])[air_idx]
    air_slope = np.array([s for _, _, _, s in FLIGHT_AIRLINES])[air_idx]
    airline = np.array([c for c, _, _, _ in FLIGHT_AIRLINES])[air_idx]

    codes, ap_w, ap_off = _airport_table(_rng(seed + 1))
    ap_idx = g.choice(_N_AIRPORTS, n, p=ap_w)
    origin = np.array(codes)[ap_idx]

    dow = g.integers(1, 8, n)
    dow_eff = np.array([0.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0])[dow]

    dep_time = g.integers(300, 1440, n)  # 05:00 .. 23:59
    t_frac = (dep_time - 300.0) / 1140.0

    noise = g.normal(0.0, 18.0, n)
    # Rare heavy tail, truncated at +600: stretches the catalog MAX far
    # beyond any group's effective range without making per-group means
    # unestimable at reproduction scale.
    outlier = (g.random(n) < 5e-5) * np.minimum(g.exponential(180.0, n), 600.0)
    delay = (
        air_base
        + ap_off[ap_idx]
        + dow_eff
        + air_slope * (t_frac - 0.5) * 2.0
        + noise
        + outlier
    )
    delay = np.maximum(delay, FLIGHT_DELAY_MIN).round(2)

    pdf = pd.DataFrame(
        {
            "Origin": origin,
            "Airline": airline,
            "DepDelay": delay,
            "DepTime": dep_time.astype("int64"),
            "DayOfWeek": dow.astype("int64"),
        }
    )
    return spark.createDataFrame(pdf)

