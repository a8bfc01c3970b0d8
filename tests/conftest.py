"""Shared fixtures for Spark-backed tests.

Everything heavy is session-scoped: one tiny FLIGHTS table (SF=0.005,
~30K rows) and one scramble built from it, reused by the catalog /
scramble / bitmap / engine / query tests. The root conftest provides
the SparkSession fixture. ``frame_scramble`` builds a scramble of an
Arrow table's rows without Spark.
"""
from __future__ import annotations

import pyarrow as pa
import pytest

from repro.fastframe.scramble import build_scramble, build_store, scramble_from_store
from repro.synth_data import flights, flights_table

TEST_SF = 0.005
TEST_SEED = 7


def frame_scramble(table: pa.Table, **kw):
    """A scramble of ``table``'s rows in their order, built without Spark."""
    return scramble_from_store(build_store(table), **kw)


@pytest.fixture(scope="session")
def flights_df(spark):
    df = flights(spark, sf=TEST_SF, seed=TEST_SEED)
    df = df.persist()
    df.count()
    return df


@pytest.fixture(scope="session")
def flights_rows():
    """``flights_df``'s rows, as the generator draws them."""
    return flights_table(sf=TEST_SF, seed=TEST_SEED)


@pytest.fixture(scope="session")
def flights_pdf(flights_rows):
    """``flights_rows`` as pandas, strings as ``object``."""
    return flights_rows.to_pandas()


@pytest.fixture(scope="session")
def scramble(flights_df):
    return build_scramble(flights_df, seed=TEST_SEED + 1)
