"""Tests for scramble construction (Definition 4)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.experiments.ground_truth import flights_pandas
from repro.fastframe.scramble import (
    DEFAULT_BLOCK_SIZE,
    build_scramble,
    build_store,
    scramble_from_store,
    shuffle,
)
from tests.conftest import frame_scramble


def test_block_size_default_matches_paper(scramble):
    assert scramble.block_size == DEFAULT_BLOCK_SIZE == 25


def test_scramble_preserves_multiset(scramble, flights_pdf):
    """The shuffle must not lose, duplicate, or alter any tuple."""

    def sorted_rows(df):
        return df.sort_values(list(df.columns), ignore_index=True)

    pd.testing.assert_frame_equal(
        sorted_rows(flights_pandas(scramble)), sorted_rows(flights_pdf)
    )


def test_scramble_actually_shuffles(scramble):
    """A prefix of the scramble must not be a prefix of the source order."""
    head = flights_pandas(scramble).head(1000)
    # The source generator draws DepTime uniformly; a random prefix keeps
    # that distribution, while a sorted or clustered layout would not.
    assert head.DepTime.std() > 200


def _assert_same_store(a, b):
    assert a.values == b.values
    assert a.columns.keys() == b.columns.keys()
    for name, col in a.columns.items():
        got = b.columns[name]
        assert (got.dtype, got.tobytes()) == (col.dtype, col.tobytes()), name


def test_scramble_deterministic_in_seed(flights_df):
    s1 = build_scramble(flights_df, seed=99)
    s2 = build_scramble(flights_df, seed=99)
    _assert_same_store(s1.store, s2.store)


def test_spark_build_equals_numpy_shuffle(scramble, flights_rows):
    """The Spark build is the generator's rows, shuffled and coded
    without Spark: the same store, catalog and blocks."""
    sc = scramble_from_store(build_store(shuffle(flights_rows, scramble.seed)))
    _assert_same_store(sc.store, scramble.store)
    assert sc.catalog == scramble.catalog
    assert (sc.n_rows, sc.n_blocks) == (scramble.n_rows, scramble.n_blocks)


def test_build_scramble_runs_one_spark_job(spark, flights_df):
    """One job collects the rows; the source DataFrame is kept, not copied."""
    ctx = spark.sparkContext
    ctx.setJobGroup("build-scramble-jobs", "build_scramble")
    try:
        sc = build_scramble(flights_df, seed=3)
    finally:
        ctx.setLocalProperty("spark.jobGroup.id", None)
    # Job events reach the status tracker through the listener bus.
    ctx._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(ctx.statusTracker().getJobIdsForGroup("build-scramble-jobs")) == 1
    assert sc.df is flights_df


def test_scramble_independent_of_source_partitions(spark):
    """The same rows in the same order give the same scramble, whether
    the source holds them in one partition or split over three."""
    rows = [(float(i), "abc"[i % 3]) for i in range(300)]

    def store(n_partitions):
        rdd = spark.sparkContext.parallelize(rows, n_partitions)
        sc = build_scramble(spark.createDataFrame(rdd, "x double, s string"), seed=5)
        return sc.store

    _assert_same_store(store(1), store(3))


def test_rows_per_block_accounts_for_partial_tail(scramble):
    rpb = scramble.rows_per_block
    assert rpb.sum() == scramble.n_rows
    assert (rpb[:-1] == scramble.block_size).all()
    assert 1 <= rpb[-1] <= scramble.block_size


def test_store_matches_scramble_rows(scramble, flights_pdf):
    """The column store holds the source rows in the seed's permutation."""
    perm = np.random.default_rng(scramble.seed).permutation(len(flights_pdf))
    pdf = flights_pdf.iloc[perm]
    store = scramble.store
    assert set(store.columns) == set(pdf.columns)
    for name, col in store.columns.items():
        assert col.shape == (scramble.n_rows,)
        if name in store.values:
            col = np.asarray(store.values[name], dtype=object)[col]
        assert np.array_equal(col, pdf[name].to_numpy()), name


def test_scramble_without_spark_equals_spark_build(scramble):
    """The Spark scramble's rows, decoded from its store in order and
    built without Spark, give the same store, catalog and blocks."""
    sc = frame_scramble(pa.table(flights_pandas(scramble)), seed=scramble.seed)
    assert sc.df is None
    _assert_same_store(sc.store, scramble.store)
    assert sc.catalog == scramble.catalog
    assert (sc.n_rows, sc.n_blocks) == (scramble.n_rows, scramble.n_blocks)


def test_store_rejects_nulls():
    with pytest.raises(ValueError, match="NULL"):
        build_store(pa.table({"x": pa.array([1.0, None])}))


def test_prefix_is_uniform_sample(scramble, flights_pdf):
    """Scanning a scramble prefix = without-replacement sampling: the
    prefix mean should be within a Hoeffding bound of the true mean."""
    m = 5000
    prefix = flights_pandas(scramble).head(m)
    mu, rng = flights_pdf.DepDelay.mean(), np.ptp(flights_pdf.DepDelay)
    eps = rng * np.sqrt(np.log(2 / 1e-6) / (2 * m))
    assert abs(prefix.DepDelay.mean() - mu) < eps
