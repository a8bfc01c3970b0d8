"""Shared fixtures for Spark-backed tests.

Everything heavy is session-scoped: one tiny FLIGHTS table (SF=0.005,
~30K rows) and one scramble built from it, reused by the catalog /
scramble / bitmap / engine / query tests. The root conftest provides
the SparkSession fixture. ``frame_scramble`` builds a scramble of a
pandas frame's rows without Spark.
"""
from __future__ import annotations

import pyarrow as pa
import pytest

from repro.fastframe.scramble import build_scramble, build_store, scramble_from_store
from repro.synth_data import flights, flights_frame

TEST_SF = 0.005
TEST_SEED = 7


def frame_scramble(pdf, **kw):
    """A scramble of ``pdf``'s rows in their order, built without Spark."""
    table = pa.Table.from_pandas(pdf, preserve_index=False)
    return scramble_from_store(build_store(table), **kw)


@pytest.fixture(scope="session")
def flights_df(spark):
    df = flights(spark, sf=TEST_SF, seed=TEST_SEED)
    df = df.persist()
    df.count()
    return df


@pytest.fixture(scope="session")
def flights_pdf():
    """``flights_df``'s rows, as the generator draws them."""
    return flights_frame(sf=TEST_SF, seed=TEST_SEED)


@pytest.fixture(scope="session")
def scramble(flights_df):
    return build_scramble(flights_df, seed=TEST_SEED + 1)
