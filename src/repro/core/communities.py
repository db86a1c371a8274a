"""Phase I and each community's member rows, as one Spark dataflow.

The paper's parallel unit is the ego network: "each node is parsed
separately in a streaming scheme in all three phases" (Sec. V-D). We
express that as one shuffle and one pandas pass per task: every ego's
member rows (each member with its individual features) and ego-network
edge rows (with their interaction counters) go, as one frame, to one of
``P = defaultParallelism`` tasks by a hash of the ego, sorted by ego
there. Each task streams its rows ego by ego and runs Girvan–Newman and
the Eq. 1 / Eq. 3 feature computation on each ego network in turn,
emitting one row per (ego, member), so every core runs one Python task.
Each local community's member rows, from which Phase II builds each
model's input, ride on the row of its first member, so
:func:`community_frame` is a narrow projection of the member frame,
with no second shuffle.

This replaces the GraphX/pregel sketch of the original system — GN is
not a message-passing fixpoint, so the natural Spark formulation is
partitioned per-ego local computation over the triangle-join output
(see DESIGN.md, substitutions).
"""
from __future__ import annotations

import numpy as np
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


def _egos_udf(batches):
    """Runs inside an executor over one partition's rows, sorted by ego:
    :func:`_ego_udf` on each ego network in turn, at most one output
    frame per input batch. An ego whose rows straddle a batch boundary is carried
    into the next batch, and the last ego is flushed at the end, so
    memory holds one batch plus one ego."""
    carry = None
    for pdf in batches:
        if carry is not None:
            pdf = pd.concat([carry, pdf], ignore_index=True)
        ego = pdf["ego"].to_numpy()
        # the first row of the batch's last ego, which may go on in the next
        last = int(np.searchsorted(ego, ego[-1]))
        if last:
            yield _run_egos(pdf.iloc[:last])
        carry = pdf.iloc[last:]
    if carry is not None:
        yield _run_egos(carry)


def _run_egos(pdf: pd.DataFrame) -> pd.DataFrame:
    """:func:`_ego_udf` over every ego of ``pdf``, which holds each of
    its egos' member and edge rows in full."""
    out = []
    for _, rows in pdf.groupby("ego", sort=False):
        edge = rows["is_edge"].to_numpy()
        out.append(_ego_udf(
            rows.loc[~edge, ["ego", "member", *USER_FEATURES]],
            rows.loc[edge, ["src", "dst", *INTERACTION_DIMS]],
        ))
    return pd.concat(out, ignore_index=True)


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
    # one frame of both kinds of row; the other kind's columns hold
    # zeros, not nulls, so that no id or counter arrives as a float
    zero = F.lit(0)
    rows = members.select(
        "ego", F.lit(False).alias("is_edge"), "member",
        zero.alias("src"), zero.alias("dst"), *USER_FEATURES,
        *(zero.alias(c) for c in INTERACTION_DIMS),
    ).unionByName(ee.select(
        "ego", F.lit(True).alias("is_edge"), zero.alias("member"),
        "src", "dst", *(F.lit(0.0).alias(c) for c in USER_FEATURES),
        *INTERACTION_DIMS,
    ))
    P = spark.sparkContext.defaultParallelism
    return (
        rows.repartition(P, "ego")
        .sortWithinPartitions("ego")
        .mapInPandas(_egos_udf, schema=MEMBER_SCHEMA)
    )


def community_frame(member_df: DataFrame) -> DataFrame:
    """(ego, comm_id, size, rows): one row per local community,
    projected from :func:`member_features`'s output without a shuffle."""
    return member_df.where(F.col("rows").isNotNull()).select(
        "ego", "comm_id", F.col("comm_size").alias("size"), "rows"
    )

