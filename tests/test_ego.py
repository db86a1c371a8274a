"""Tests for ego-network extraction — checked against DuckDB SQL oracles."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.ego import adjacency, ego_edges
from repro.oracle import assert_equivalent
from repro.socialnet.generator import NetConfig, generate, to_spark


@pytest.fixture(scope="module")
def net():
    return generate(NetConfig(n_nodes=250, seed=17))


@pytest.fixture(scope="module")
def edges_df(spark, net):
    df = spark.createDataFrame(net.edges[["src", "dst"]]).cache()
    df.count()
    return df


def test_adjacency_oracle(spark, net, edges_df):
    """Symmetrized adjacency equals the SQL union of both directions."""
    adj = adjacency(edges_df).select("ego", "member")
    assert_equivalent(
        adj,
        "SELECT src AS ego, dst AS member FROM e "
        "UNION ALL SELECT dst AS ego, src AS member FROM e",
        e=net.edges[["src", "dst"]],
    )


def test_ego_edges_oracle(spark, net, edges_df):
    """The triangle join equals the SQL definition of ego-network edges:
    (ego,src) and (ego,dst) are friendships and (src,dst) ∈ E."""
    ee = ego_edges(edges_df)
    assert_equivalent(
        ee,
        """
        WITH adj AS (
            SELECT src AS ego, dst AS member FROM e
            UNION ALL SELECT dst AS ego, src AS member FROM e
        )
        SELECT a1.ego AS ego, e.src AS src, e.dst AS dst
        FROM e
        JOIN adj a1 ON a1.member = e.src
        JOIN adj a2 ON a2.member = e.dst AND a2.ego = a1.ego
        """,
        e=net.edges[["src", "dst"]],
    )


def test_ego_not_in_own_network(spark, edges_df):
    """Paper Sec. IV-A: the ego node is excluded from its ego network."""
    ee = ego_edges(edges_df)
    bad = ee.filter((F.col("ego") == F.col("src")) | (F.col("ego") == F.col("dst")))
    assert bad.count() == 0


def test_ego_edges_canonical(spark, edges_df):
    ee = ego_edges(edges_df)
    assert ee.filter(F.col("src") >= F.col("dst")).count() == 0


def test_ego_edges_are_triangles(spark, net, edges_df):
    """Every (ego, src, dst) row corresponds to a triangle in G."""
    sample = ego_edges(edges_df).limit(200).collect()
    eset = set(zip(net.edges["src"], net.edges["dst"]))

    def has(a, b):
        return (min(a, b), max(a, b)) in eset

    for r in sample:
        assert has(r.ego, r.src) and has(r.ego, r.dst) and has(r.src, r.dst)


def test_adjacency_carries_label(spark, net):
    df = spark.createDataFrame(net.edges)  # includes label
    adj = adjacency(df)
    assert "label" in adj.columns
    assert adj.count() == 2 * len(net.edges)
