"""Tests for ego-network extraction — checked against a DuckDB SQL oracle."""
import pytest

from repro.core.communities import ego_edge_rows, member_records
from repro.oracle import assert_equivalent
from repro.socialnet.generator import INTERACTION_DIMS, NetConfig, generate


@pytest.fixture(scope="module")
def net():
    return generate(NetConfig(n_nodes=250, seed=17))


def test_ego_edges_oracle(spark, net):
    """Phase I's ego edges equal the SQL definition of ego-network edges:
    (ego,src) and (ego,dst) are friendships and (src,dst) ∈ E, with the
    edge's interaction counters, zero when it has no interactions row
    (a third of the rows are dropped to exercise that)."""
    e = net.edges[["src", "dst"]]
    inter = net.interactions[net.interactions["src"] % 3 != 0]
    assert len(inter) < len(net.interactions)
    ee = ego_edge_rows(
        member_records(spark.createDataFrame(e), spark.createDataFrame(inter)).toPandas()
    )
    counters = ", ".join(f"coalesce(i.{c}, 0) AS {c}" for c in INTERACTION_DIMS)
    assert_equivalent(
        spark.createDataFrame(ee),
        f"""
        WITH adj AS (
            SELECT src AS ego, dst AS member FROM e
            UNION ALL SELECT dst AS ego, src AS member FROM e
        )
        SELECT a1.ego AS ego, e.src AS src, e.dst AS dst, {counters}
        FROM e
        JOIN adj a1 ON a1.member = e.src
        JOIN adj a2 ON a2.member = e.dst AND a2.ego = a1.ego
        LEFT JOIN i ON i.src = e.src AND i.dst = e.dst
        """,
        e=e,
        i=inter,
    )
