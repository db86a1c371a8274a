"""Phase I + all per-ego Phase II feature work, as one Spark dataflow.

The paper's parallel unit is the ego network: "each node is parsed
separately in a streaming scheme in all three phases" (Sec. V-D). We
express that as one cogrouped pandas UDF: for every ego, Spark delivers
(a) the member list with each member's individual features and (b) the
ego-network edges with their interaction counters; the UDF runs
Girvan–Newman, the Eq. 1 / Eq. 3 feature computation and Algorithm 1
locally and emits one row per (ego, member). Each local community's
feature matrix and pooled vector ride on the row of its first member
in Algorithm 1's order, so :func:`community_frame` is a narrow
projection of the member frame, with no second shuffle.

This replaces the GraphX/pregel sketch of the original system — GN is
not a message-passing fixpoint, so the natural Spark formulation is
partitioned per-ego local computation over the triangle-join output
(see DESIGN.md, substitutions).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import features as FT
from repro.core.ego import adjacency, ego_edges
from repro.core.girvan_newman import girvan_newman
from repro.socialnet.generator import INTERACTION_DIMS, USER_FEATURES

#: Output schema of the per-ego UDF (one row per ego-network member).
MEMBER_SCHEMA = (
    "ego long, member long, comm_id int, comm_size int, tightness double, "
    + ", ".join(f"{c} double" for c in FT.X_COLS)
    + ", matrix array<double>, pooled array<double>"
)


def _ego_udf(members: pd.DataFrame, eedges: pd.DataFrame, k: int) -> pd.DataFrame:
    """Runs inside an executor for ONE ego network."""
    nodes = members["member"].to_numpy()
    pairs = list(zip(eedges["src"].to_numpy(), eedges["dst"].to_numpy()))
    comm_of = girvan_newman(list(nodes), pairs)
    feats = FT.community_member_features(nodes, comm_of, eedges)
    feats.insert(0, "ego", int(members["ego"].iloc[0]))

    # in member order, so that the pooled vector's sums (and their last
    # bits) do not depend on the order Spark delivers the members in
    comm_feats = pd.concat(
        [feats, members[USER_FEATURES].reset_index(drop=True)], axis=1
    ).sort_values("member")
    matrix, pooled = [None] * len(feats), [None] * len(feats)
    for _, pdf in comm_feats.groupby("comm_id", sort=False):
        # Algorithm 1's first member: highest tightness, lowest id on ties
        head = pdf["tightness"].idxmax()
        matrix[head] = FT.build_matrix(pdf, k).ravel().tolist()
        pooled[head] = FT.pooled_vector(pdf).tolist()
    feats["matrix"] = matrix
    feats["pooled"] = pooled
    return feats


def member_features(
    spark: SparkSession,
    edges: DataFrame,
    interactions: DataFrame,
    users: DataFrame | None = None,
    k: int = 20,
) -> DataFrame:
    """Distributed Phase I + Eq. 1/3 + Algorithm 1: one row per (ego, member).

    Columns: ego, member, comm_id (per-ego GN community), comm_size,
    tightness, the 8 Eq.-1 interaction-share features ``x_*``, and the
    community's flattened k×(|I|+|f|) ``matrix`` and mean/std ``pooled``
    vector — set on one member row per community, null on the others.
    Every friend of every node appears exactly once per ego — LoCEC's
    guarantee that *every edge* later receives dense features.

    ``users`` supplies the individual features ``f_*``; a member without
    a row there (every member, when ``users`` is None) gets zeros.
    """
    members = adjacency(edges.select("src", "dst"))
    if users is None:
        members = members.select("*", *(F.lit(0.0).alias(c) for c in USER_FEATURES))
    else:
        members = members.join(
            users.select(F.col("user_id").alias("member"), *USER_FEATURES),
            on="member",
            how="left",
        ).na.fill({c: 0.0 for c in USER_FEATURES})
    ee = ego_edges(edges).join(interactions, on=["src", "dst"], how="left").na.fill(
        {c: 0 for c in INTERACTION_DIMS}
    )
    return (
        members.groupBy("ego")
        .cogroup(ee.groupBy("ego"))
        .applyInPandas(lambda m, e: _ego_udf(m, e, k), schema=MEMBER_SCHEMA)
    )


def community_frame(member_df: DataFrame) -> DataFrame:
    """(ego, comm_id, size, matrix, pooled): one row per local community,
    projected from :func:`member_features`'s output without a shuffle."""
    return member_df.where(F.col("pooled").isNotNull()).select(
        "ego", "comm_id", F.col("comm_size").alias("size"), "matrix", "pooled"
    )

