"""Phase I and each community's member rows, as one Spark dataflow.

The paper's parallel unit is the ego network: "each node is parsed
separately in a streaming scheme in all three phases" (Sec. V-D). We
build one record per node: its friends, its individual features, and
the other end and interaction counters of each edge it is the ``src``
of. Each record is copied to the ego network of every friend, and the
copies go to one of ``P = defaultParallelism`` tasks by a hash of the
ego, sorted by ego there. Each task streams its egos one by one: ego
v's edges are its members' edges whose other end is also a member of
v, and Girvan–Newman and the Eq. 1 / Eq. 3 feature computation run on
each ego network in turn, emitting one row per (ego, member), so every
core runs one Python task. Each local community's member rows, from
which Phase II builds each model's input, ride on the row of its first
member, so :func:`community_frame` is a narrow projection, and Phase II
inference walks the same partitions ego by ego through :func:`by_ego`.

This replaces the GraphX/pregel sketch of the original system — GN is
not a message-passing fixpoint, so the natural Spark formulation is
partitioned per-ego local computation over per-node records (see
DESIGN.md, substitutions).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import features as FT
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


def by_ego(batches, fn):
    """``fn`` on whole egos, at most once per Arrow batch of one task,
    whose rows must be sorted by ego. An ego whose rows straddle a batch
    boundary is carried into the next batch, and the last ego is flushed
    at the end, so memory holds one batch plus one ego."""
    carry = None
    for pdf in batches:
        if carry is not None:
            pdf = pd.concat([carry, pdf], ignore_index=True)
        ego = pdf["ego"].to_numpy()
        # the first row of the batch's last ego, which may go on in the next
        last = int(np.searchsorted(ego, ego[-1]))
        if last:
            yield fn(pdf.iloc[:last])
        carry = pdf.iloc[last:]
    if carry is not None:
        yield fn(carry)


def _run_egos(pdf: pd.DataFrame) -> pd.DataFrame:
    """:func:`_ego_udf` over every ego of ``pdf``, which holds each of
    its egos' member records in full, in ego order."""
    eedges = ego_edge_rows(pdf)
    edge_ego = eedges["ego"].to_numpy()
    out = []
    for ego, rows in pdf.groupby("ego", sort=False):
        lo, hi = np.searchsorted(edge_ego, [ego, ego + 1])
        out.append(_ego_udf(rows[["ego", "member", *USER_FEATURES]], eedges.iloc[lo:hi]))
    return pd.concat(out, ignore_index=True)


def ego_edge_rows(pdf: pd.DataFrame) -> pd.DataFrame:
    """(ego, src, dst, i_*): the edges of every ego network in ``pdf``.

    ``pdf`` holds :func:`member_records` rows, all of each of its egos'
    members. Member a of ego v contributes each edge (a, b) it is the
    ``src`` of whose ``dst`` b is also a member of v, so each edge
    among v's friends comes once, and edges at v itself never do.
    Rows keep ``pdf``'s ego order.
    """
    n = pdf["dst"].map(len).to_numpy()
    ego = np.repeat(pdf["ego"].to_numpy(), n)
    dst = np.concatenate(pdf["dst"].to_numpy())
    keep = pd.MultiIndex.from_arrays([ego, dst]).isin(
        pd.MultiIndex.from_arrays([pdf["ego"], pdf["member"]])
    )
    return pd.DataFrame({
        "ego": ego[keep],
        "src": np.repeat(pdf["member"].to_numpy(), n)[keep],
        "dst": dst[keep],
        **{c: np.concatenate(pdf[c].to_numpy())[keep] for c in INTERACTION_DIMS},
    })


def member_records(
    edges: DataFrame, interactions: DataFrame, users: DataFrame | None = None
) -> DataFrame:
    """(ego, member, f_*, dst, i_*): member's record in ego's network.

    One record per node — its ``f_*`` (zeros without a ``users`` row),
    and the ``dst`` and ``i_*`` counters of each edge it is the ``src``
    of, as arrays in one order — copied to the ego network of each of
    its friends. An edge without an ``interactions`` row has zero
    counters.
    """
    if users is None:
        users = edges.sparkSession.createDataFrame(
            [], "user_id long, " + ", ".join(f"{c} double" for c in USER_FEATURES)
        )
    e = edges.select("src", "dst").join(interactions, ["src", "dst"], "left").na.fill(0)
    rows = (
        e.select(F.col("src").alias("node"), F.col("dst").alias("friend"),
                 F.struct("dst", *INTERACTION_DIMS).alias("edge"))
        .unionByName(edges.select(F.col("dst").alias("node"), F.col("src").alias("friend")),
                     allowMissingColumns=True)
        .unionByName(users.select(F.col("user_id").alias("node"), *USER_FEATURES),
                     allowMissingColumns=True)
    )
    return rows.groupBy("node").agg(
        F.collect_list("friend").alias("friends"),
        # one struct per edge, so that dst and its counters stay aligned
        F.collect_list("edge").alias("edges"),
        *(F.coalesce(F.first(c, ignorenulls=True), F.lit(0.0)).alias(c) for c in USER_FEATURES),
    ).select(
        F.explode("friends").alias("ego"), F.col("node").alias("member"), *USER_FEATURES,
        F.col("edges.dst").alias("dst"), *(F.col(f"edges.{c}").alias(c) for c in INTERACTION_DIMS),
    )


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
    P = spark.sparkContext.defaultParallelism
    return (
        member_records(edges, interactions, users)
        .repartition(P, "ego")
        .sortWithinPartitions("ego")
        .mapInPandas(lambda batches: by_ego(batches, _run_egos), schema=MEMBER_SCHEMA)
    )


def community_frame(member_df: DataFrame) -> DataFrame:
    """(ego, comm_id, size, rows): one row per local community,
    projected from :func:`member_features`'s output without a shuffle."""
    return member_df.where(F.col("rows").isNotNull()).select(
        "ego", "comm_id", F.col("comm_size").alias("size"), "rows"
    )

