"""Tests for the distributed Phase I (+Eq. 1/3) dataflow: its communities
must be Girvan–Newman's, its member frame must equal a DuckDB SQL
oracle, and its batch-at-once computation must equal one ego at a time."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType

from repro.core import features as FT
from repro.core.communities import (
    _run_egos,
    by_ego,
    ego_edge_rows,
    member_features,
    member_records,
)
from repro.core.girvan_newman import girvan_newman
from repro.oracle import assert_equivalent
from repro.socialnet.generator import INTERACTION_DIMS, USER_FEATURES, NetConfig, generate, to_spark


@pytest.fixture(scope="module")
def net():
    return generate(NetConfig(n_nodes=200, seed=23))


@pytest.fixture(scope="module")
def member_pdf(spark, net):
    edges, inter, users = to_spark(spark, net)
    return member_features(spark, edges, inter, users).toPandas()


def _reference_ego(net, ego):
    """Driver-side reference: ego network and GN for one ego, as
    {member: community id}."""
    e = net.edges
    nbrs = sorted(
        set(e.loc[e["src"] == ego, "dst"]) | set(e.loc[e["dst"] == ego, "src"])
    )
    ee = e[e["src"].isin(nbrs) & e["dst"].isin(nbrs)]
    return girvan_newman(nbrs, list(zip(ee["src"], ee["dst"])))


def test_every_friendship_covered_both_ways(net, member_pdf):
    """Every edge (u,v) must yield member rows (ego=u, v) and (ego=v, u)."""
    pairs = set(zip(member_pdf["ego"], member_pdf["member"]))
    for s, d in zip(net.edges["src"], net.edges["dst"]):
        assert (s, d) in pairs and (d, s) in pairs


def test_member_count_is_twice_edges(net, member_pdf):
    assert len(member_pdf) == 2 * net.n_edges


@pytest.mark.parametrize("ego_rank", [0, 1, 2])
def test_spark_matches_reference(net, member_pdf, ego_rank):
    """Per-ego communities from the Spark UDF are Girvan–Newman's on the
    ego network built on the driver: the same members, and the same
    partition (ids may be permuted). Eq. 1/3 on them is checked by
    :func:`test_member_frame_oracle`."""
    egos = member_pdf["ego"].value_counts().index  # busiest egos first
    ego = int(egos[ego_rank])
    got = member_pdf[member_pdf["ego"] == ego]
    ref = pd.Series(_reference_ego(net, ego))
    assert sorted(got["member"]) == sorted(ref.index)
    got_part = got.groupby("comm_id")["member"].agg(frozenset)
    ref_part = pd.Series(ref.index, index=ref.to_numpy()).groupby(level=0).agg(frozenset)
    assert set(got_part) == set(ref_part)


def test_member_frame_oracle(spark, net):
    """The whole member frame equals DuckDB SQL over the input tables,
    given Spark's comm_id: comm_size, Eq. 3 tightness (1 for a
    singleton), the Eq. 1 shares (0 on zero volume) and ``f_*`` (0 for
    a member without a ``users`` row). A third of the interactions rows
    and a fifth of the users rows are dropped to exercise the zeros.
    Every column is scalar."""
    e = net.edges[["src", "dst"]]
    inter = net.interactions[net.interactions["src"] % 3 != 0]
    users = net.users[net.users["user_id"] % 5 != 0]
    member_df = member_features(
        spark, spark.createDataFrame(e), spark.createDataFrame(inter),
        spark.createDataFrame(users),
    )
    assert not any(isinstance(f.dataType, ArrayType) for f in member_df.schema)
    dims = INTERACTION_DIMS
    counters = ", ".join(f"coalesce(i.{c}, 0) AS {c}" for c in dims)
    same = ", ".join(f"sum(CASE WHEN same THEN {c} ELSE 0 END) AS n_{c}" for c in dims)
    shares = ", ".join(
        f"CASE WHEN v.v_{c} > 0 THEN d.n_{c} / v.v_{c} ELSE 0.0 END AS x_{c}" for c in dims
    )
    feats = ", ".join(f"coalesce(u.{c}, 0.0) AS {c}" for c in USER_FEATURES)
    assert_equivalent(
        member_df,
        f"""
        WITH adj AS (
            SELECT src AS ego, dst AS member FROM e
            UNION ALL SELECT dst AS ego, src AS member FROM e
        ), ee AS (
            SELECT a1.ego AS ego, e.src AS src, e.dst AS dst, {counters}
            FROM e
            JOIN adj a1 ON a1.member = e.src
            JOIN adj a2 ON a2.member = e.dst AND a2.ego = a1.ego
            LEFT JOIN i ON i.src = e.src AND i.dst = e.dst
        ), pair AS (
            SELECT ee.*, ms.comm_id = md.comm_id AS same, ms.comm_id AS comm_id
            FROM ee
            JOIN m ms ON ms.ego = ee.ego AND ms.member = ee.src
            JOIN m md ON md.ego = ee.ego AND md.member = ee.dst
        ), ends AS (
            SELECT ego, src AS member, * EXCLUDE (ego, src, dst) FROM pair
            UNION ALL SELECT ego, dst AS member, * EXCLUDE (ego, src, dst) FROM pair
        ), deg AS (
            SELECT ego, member, count(*) AS fe,
                   count(*) FILTER (WHERE same) AS fc, {same}
            FROM ends GROUP BY ego, member
        ), vol AS (
            SELECT ego, comm_id, {", ".join(f"sum({c}) AS v_{c}" for c in dims)}
            FROM pair WHERE same GROUP BY ego, comm_id
        ), sz AS (
            SELECT ego, comm_id, count(*) AS comm_size FROM m GROUP BY ego, comm_id
        )
        SELECT m.ego AS ego, m.member AS member, m.comm_id AS comm_id,
               sz.comm_size AS comm_size,
               CASE WHEN sz.comm_size = 1 THEN 1.0
                    WHEN d.fe > 0 THEN d.fc / d.fe * d.fc / (sz.comm_size - 1)
                    ELSE 0.0 END AS tightness,
               {shares}, {feats}
        FROM m
        JOIN sz ON sz.ego = m.ego AND sz.comm_id = m.comm_id
        LEFT JOIN deg d ON d.ego = m.ego AND d.member = m.member
        LEFT JOIN vol v ON v.ego = m.ego AND v.comm_id = m.comm_id
        LEFT JOIN u ON u.user_id = m.member
        """,
        e=e, i=inter, u=users,
        m=member_df.select("ego", "member", "comm_id").toPandas(),
    )


def test_tightness_bounds(member_pdf):
    assert member_pdf["tightness"].between(0, 1).all()


def test_share_features_bounds(member_pdf):
    for c in FT.X_COLS:
        assert member_pdf[c].between(0, 1 + 1e-9).all(), c


def test_comm_sizes_oracle(spark, member_pdf):
    """The UDF's comm_size is one value per (ego, comm_id): its member count."""
    sizes = spark.createDataFrame(
        member_pdf[["ego", "comm_id", "comm_size"]]
    ).select("ego", "comm_id", F.col("comm_size").alias("size")).distinct()
    assert_equivalent(
        sizes,
        "SELECT ego, comm_id, count(*) AS size FROM m GROUP BY ego, comm_id",
        m=member_pdf[["ego", "member", "comm_id"]],
    )


def test_singletons_have_tightness_one(member_pdf):
    singles = member_pdf[member_pdf["comm_size"] == 1]
    assert (singles["tightness"] == 1.0).all()


def test_member_missing_from_users_gets_zero_features(spark, net):
    """A friend with no users-table row still gets a member row in every
    ego network (2|E| rows in all), with f_* = 0; every other member
    keeps its own features."""
    edges, inter, users = to_spark(spark, net)
    missing = int(net.edges[["src", "dst"]].stack().value_counts().index[0])
    pdf = member_features(
        spark, edges, inter, users.where(F.col("user_id") != missing)
    ).toPandas()
    assert len(pdf) == 2 * net.n_edges
    want = net.users.set_index("user_id")[USER_FEATURES]
    want.loc[missing] = 0.0
    n_friends = (net.edges[["src", "dst"]] == missing).to_numpy().sum()
    assert (pdf["member"] == missing).sum() == n_friends
    assert np.array_equal(pdf[USER_FEATURES].to_numpy(), want.loc[pdf["member"]].to_numpy())


def _collected(df, key):
    """``df`` as pandas in ``key`` order."""
    return df.toPandas().sort_values(key, ignore_index=True)


def test_outputs_independent_of_shuffle_partitions(spark):
    """Member rows must not change with the number of shuffle partitions
    (AQE coalescing off, so 8 really means 8)."""
    net = generate(NetConfig(n_nodes=120, seed=37))
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    saved = {c: spark.conf.get(c) for c in keys}
    runs = []
    try:
        spark.conf.set("spark.sql.adaptive.coalescePartitions.enabled", "false")
        for n in (1, 8):
            spark.conf.set("spark.sql.shuffle.partitions", n)
            edges, inter, users = to_spark(spark, net)
            runs.append(_collected(member_features(spark, edges, inter, users), ["ego", "member"]))
    finally:
        for c, v in saved.items():
            spark.conf.set(c, v)
    pd.testing.assert_frame_equal(*runs, check_exact=True)


def test_egos_straddling_arrow_batches(spark, net):
    """With 5-row Arrow batches most egos' rows span several batches;
    carrying each into the next batch must give the member frame of
    the default batch size, byte for byte, and the last ego of each
    task must be flushed."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    edges, inter, users = to_spark(spark, net)
    want = _collected(member_features(spark, edges, inter, users), ["ego", "member"])
    saved = spark.conf.get(key)
    try:
        spark.conf.set(key, 5)
        got = _collected(member_features(spark, edges, inter, users), ["ego", "member"])
    finally:
        spark.conf.set(key, saved)
    assert len(got) == 2 * net.n_edges
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_without_users_every_member_gets_zero_features(spark, net):
    """``users=None`` gives the member frame of a users table whose f_*
    are all 0.0, byte for byte."""
    edges, inter, users = to_spark(spark, net)
    zeros = users.select("user_id", *(F.lit(0.0).alias(c) for c in USER_FEATURES))
    want = _collected(member_features(spark, edges, inter, zeros), ["ego", "member"])
    got = _collected(member_features(spark, edges, inter), ["ego", "member"])
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_phase1_shuffles_four_times(spark, net):
    """Phase I's plan has four Exchanges: the two sides of the
    interactions join, the per-node aggregation and the repartition by
    ego."""
    edges, inter, users = to_spark(spark, net)
    plan = member_features(spark, edges, inter, users)._jdf.queryExecution().executedPlan()
    assert sum("Exchange" in line for line in plan.toString().splitlines()) <= 4


def test_phase1_pass_named_in_plan(spark, net):
    """Phase I's ``mapInPandas`` function is named, so its plan node
    (and the Spark UI stage) says which Python pass it is."""
    edges, inter, users = to_spark(spark, net)
    plan = member_features(spark, edges, inter, users)._jdf.queryExecution().executedPlan()
    assert "MapInPandas _phase1_egos(" in plan.toString()


def _degenerate_records(spark):
    """Member records of egos 9000 (three friends, no edge among them),
    9010 (a triangle, a pair and an isolated friend) and 9100 (85 friends
    in a clique, 3570 edges: above Girvan–Newman's ``max_edges``, so its
    components are kept), with random interaction counters."""
    g = np.random.default_rng(5)
    clique = np.arange(9200, 9285)
    pairs = [(9000, f) for f in (9001, 9002, 9003)]
    pairs += [(9010, f) for f in range(9011, 9017)]
    pairs += [(9011, 9012), (9011, 9013), (9012, 9013), (9014, 9015)]
    pairs += [(9100, int(f)) for f in clique]
    pairs += [(int(a), int(b)) for i, a in enumerate(clique) for b in clique[i + 1:]]
    e = pd.DataFrame(pairs, columns=["src", "dst"])
    inter = e.assign(**{c: g.poisson(1.0, len(e)) for c in INTERACTION_DIMS})
    users = pd.DataFrame({"user_id": np.unique(e.to_numpy())})
    users = users.assign(**{c: g.random(len(users)) for c in USER_FEATURES})
    rec = member_records(
        spark.createDataFrame(e), spark.createDataFrame(inter), spark.createDataFrame(users)
    ).toPandas()
    return rec[rec["ego"].isin([9000, 9010, 9100])]


def test_batch_pass_equals_one_ego_at_a_time(spark, net):
    """``_run_egos`` on one batch mixing an ego without internal edges,
    one with an isolated member, one above GN's ``max_edges`` and
    ordinary ones equals its concatenated one-ego calls, exact values
    and dtypes included; each ego's members arrive in shuffled order."""
    edges, inter, users = to_spark(spark, net)
    rec = member_records(edges, inter, users).toPandas()
    ordinary = rec["ego"].value_counts().index[[0, 1, 50, 100, 150]]
    batch = pd.concat([rec[rec["ego"].isin(ordinary)], _degenerate_records(spark)])
    batch = batch.sample(frac=1.0, random_state=0)
    batch = batch.sort_values("ego", kind="stable", ignore_index=True)
    sizes = ego_edge_rows(batch)["ego"].value_counts()
    assert 9000 not in sizes.index and sizes[9100] > 3000

    got = _run_egos(batch)
    want = pd.concat(
        [_run_egos(rows) for _, rows in batch.groupby("ego", sort=True)], ignore_index=True
    )
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    assert len(got) == len(batch)
    by = got.set_index(["ego", "member"])
    assert (by.loc[9000, "comm_size"] == 1).all()
    assert by.loc[(9010, 9016), "comm_size"] == 1 and by.loc[(9010, 9016), "tightness"] == 1.0
    assert (by.loc[9100, "comm_size"] == 85).all()


def test_by_ego_skips_empty_batches():
    """Empty batches, the first one included, are skipped; ``fn`` still
    sees whole egos and every row once."""
    pdf = pd.DataFrame({"ego": [1, 1, 2, 3, 3], "v": range(5)})
    empty = pdf.iloc[:0]
    seen = []
    out = list(by_ego([empty, pdf.iloc[:1], empty, pdf.iloc[1:4], empty, pdf.iloc[4:]],
                      lambda p: seen.append(p["ego"].tolist()) or p))
    assert seen == [[1, 1, 2], [3, 3]]
    pd.testing.assert_frame_equal(pd.concat(out, ignore_index=True), pdf)
    assert list(by_ego([empty], len)) == []
