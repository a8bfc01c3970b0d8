"""Tests for scramble construction (Definition 4)."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro.fastframe.scramble import (
    DEFAULT_BLOCK_SIZE,
    build_scramble,
    build_store,
    scramble_from_store,
    shuffle,
)
from repro.oracle import assert_equivalent
from tests.conftest import frame_scramble


def test_block_size_default_matches_paper(scramble):
    assert scramble.block_size == DEFAULT_BLOCK_SIZE == 25


def test_row_ids_are_a_permutation(scramble):
    ids = scramble.df.select("row_id").toPandas()["row_id"].to_numpy()
    assert len(ids) == scramble.n_rows
    assert np.array_equal(np.sort(ids), np.arange(scramble.n_rows))


def test_block_ids_consistent(scramble):
    pdf = scramble.df.select("row_id", "block_id").toPandas()
    assert (pdf.block_id == pdf.row_id // scramble.block_size).all()
    assert pdf.block_id.max() == scramble.n_blocks - 1


def test_scramble_preserves_multiset(scramble, flights_pdf):
    """The shuffle must not lose, duplicate, or alter any tuple."""
    got = scramble.df.groupBy("Airline").agg(
        F.count(F.lit(1)).alias("n"), F.sum("DepDelay").alias("s")
    )
    assert_equivalent(
        got,
        "SELECT Airline, COUNT(*) AS n, SUM(DepDelay) AS s "
        "FROM flights GROUP BY Airline",
        flights=flights_pdf,
    )


def test_scramble_actually_shuffles(scramble):
    """A prefix of the scramble must not be a prefix of the source order."""
    head = scramble.df.filter(F.col("row_id") < 1000).select("DepTime").toPandas()
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


def test_spark_build_equals_numpy_shuffle(scramble, flights_pdf):
    """The Spark build is the generator's rows, shuffled and coded
    without Spark: the same store, catalog and blocks."""
    rows = pa.Table.from_pandas(flights_pdf, preserve_index=False)
    sc = scramble_from_store(build_store(shuffle(rows, scramble.seed)))
    _assert_same_store(sc.store, scramble.store)
    assert sc.catalog == scramble.catalog
    assert (sc.n_rows, sc.n_blocks) == (scramble.n_rows, scramble.n_blocks)


def test_build_scramble_runs_one_spark_job(spark, flights_df):
    """One job collects the rows; the Spark copy is left uncached."""
    ctx = spark.sparkContext
    ctx.setJobGroup("build-scramble-jobs", "build_scramble")
    try:
        sc = build_scramble(flights_df, seed=3)
    finally:
        ctx.setLocalProperty("spark.jobGroup.id", None)
    # Job events reach the status tracker through the listener bus.
    ctx._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(ctx.statusTracker().getJobIdsForGroup("build-scramble-jobs")) == 1
    assert not sc.df.storageLevel.useMemory


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


def test_store_matches_scramble_rows(scramble):
    """The column store holds the scramble's rows in row_id order."""
    pdf = scramble.df.orderBy("row_id").toPandas()
    store = scramble.store
    assert set(store.columns) == set(pdf.columns) - {"row_id", "block_id"}
    for name, col in store.columns.items():
        assert col.shape == (scramble.n_rows,)
        if name in store.values:
            col = np.asarray(store.values[name], dtype=object)[col]
        assert np.array_equal(col, pdf[name].to_numpy()), name


def test_scramble_without_spark_equals_spark_build(scramble):
    """The Spark scramble's rows, read in row_id order and built without
    Spark, give the same store, catalog and blocks."""
    rows = scramble.df.orderBy("row_id").drop("row_id", "block_id").toPandas()
    sc = frame_scramble(rows, seed=scramble.seed)
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
    prefix = (
        scramble.df.filter(F.col("row_id") < m).select("DepDelay").toPandas()
    )
    mu, rng = flights_pdf.DepDelay.mean(), np.ptp(flights_pdf.DepDelay)
    eps = rng * np.sqrt(np.log(2 / 1e-6) / (2 * m))
    assert abs(prefix.DepDelay.mean() - mu) < eps
