"""Phase I and each community's member rows, as one Spark dataflow.

The paper's parallel unit is the ego network: "each node is parsed
separately in a streaming scheme in all three phases" (Sec. V-D). We
express that as one cogrouped pandas UDF: for every ego, Spark delivers
(a) the member list with each member's individual features and (b) the
ego-network edges with their interaction counters; the UDF runs
Girvan–Newman and the Eq. 1 / Eq. 3 feature computation locally and
emits one row per (ego, member). Each local community's member rows,
from which Phase II builds each model's input, ride on the row of its
first member, so :func:`community_frame` is a narrow projection of the
member frame, with no second shuffle.

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
    + ", rows array<double>"
)


def _ego_udf(members: pd.DataFrame, eedges: pd.DataFrame) -> pd.DataFrame:
    """Runs inside an executor for ONE ego network."""
    # in member order, so that each community's rows (and the last bits of
    # sums over them) do not depend on the order Spark delivers members in
    members = members.sort_values("member", ignore_index=True)
    nodes = members["member"].tolist()
    pairs = list(zip(eedges["src"].tolist(), eedges["dst"].tolist()))
    comm_of = girvan_newman(nodes, pairs)
    feats = FT.community_member_features(nodes, comm_of, eedges)
    feats.insert(0, "ego", int(members["ego"].iloc[0]))

    vals = pd.concat([feats, members[USER_FEATURES]], axis=1)[FT.ROW_COLS].to_numpy(float)
    rows = [None] * len(feats)
    # each community's rows ride on its first member
    for idx in feats.groupby("comm_id").indices.values():
        rows[idx[0]] = vals[idx].ravel().tolist()
    feats["rows"] = rows
    return feats


def member_features(
    spark: SparkSession,
    edges: DataFrame,
    interactions: DataFrame,
    users: DataFrame | None = None,
) -> DataFrame:
    """Distributed Phase I + Eq. 1/3: one row per (ego, member).

    Columns: ego, member, comm_id (per-ego GN community), comm_size,
    tightness, the 8 Eq.-1 interaction-share features ``x_*``, and the
    community's member ``rows`` — one ``features.ROW_COLS`` row per
    member, in member-id order, flattened — set on the community's
    first member row and null on the others. Every friend of every node
    appears exactly once per ego — LoCEC's guarantee that *every edge*
    later receives dense features.

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
        .applyInPandas(_ego_udf, schema=MEMBER_SCHEMA)
    )


def community_frame(member_df: DataFrame) -> DataFrame:
    """(ego, comm_id, size, rows): one row per local community,
    projected from :func:`member_features`'s output without a shuffle."""
    return member_df.where(F.col("rows").isNotNull()).select(
        "ego", "comm_id", F.col("comm_size").alias("size"), "rows"
    )

