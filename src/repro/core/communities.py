"""Phase I as one Spark dataflow: one row per (ego, member).

The paper's parallel unit is the ego network: "each node is parsed
separately in a streaming scheme in all three phases" (Sec. V-D). We
build one record per node: its friends, its individual features, and
the other end and interaction counters of each edge it is the ``src``
of. Each record is copied to the ego network of every friend, and the
copies go to one of ``P = defaultParallelism`` tasks by a hash of the
ego, sorted by ego there, so every core runs one Python task. Each
task streams its Arrow batches, each cut to whole egos: ego v's edges
are its members' edges whose other end is also a member of v.
Girvan–Newman runs on each ego network in turn, the only per-ego call;
the edges, the Eq. 1 / Eq. 3 features and one output frame are built
once per batch, one row per (ego, member), carrying the member's
Eq. 1/3 features and its own ``f_*``. A local community is the set of
its member rows; Phase II groups them with :func:`features.communities`
as it walks the same partitions ego by ego through :func:`by_ego`.

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

#: Phase I's output schema (one row per ego-network member).
MEMBER_SCHEMA = (
    "ego long, member long, comm_id int, comm_size int, tightness double, "
    + ", ".join(f"{c} double" for c in FT.X_COLS + USER_FEATURES)
)


def by_ego(batches, fn):
    """``fn`` on whole egos, at most once per Arrow batch of one task,
    whose rows must be sorted by ego. An ego whose rows straddle a batch
    boundary is carried into the next batch, and the last ego is flushed
    at the end, so memory holds one batch plus one ego. Empty batches
    are skipped."""
    carry = None
    for pdf in batches:
        if pdf.empty:
            continue
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
    """GN and Eq. 1/3 on every ego network of ``pdf``, which holds
    :func:`member_records` rows, all of each of its egos' members, in
    ego order. Returns one :data:`MEMBER_SCHEMA` row per (ego, member),
    in (ego, member) order.

    Girvan–Newman runs ego by ego; Eq. 1/3 runs once over the batch, on
    communities numbered across all its egos.
    """
    pdf = pdf.sort_values(["ego", "member"], kind="stable", ignore_index=True)
    ego, member = pdf["ego"].to_numpy(), pdf["member"].to_numpy()
    eedges = ego_edge_rows(pdf)
    edge_ego = eedges["ego"].to_numpy()

    # each edge's two endpoints as row indices, by their (ego, member) key
    egos, start = np.unique(ego, return_index=True)
    nodes = np.unique(member)

    def key(e, m):
        return np.searchsorted(egos, e) * len(nodes) + np.searchsorted(nodes, m)

    ends = np.searchsorted(key(ego, member), key(
        np.tile(edge_ego, 2), np.concatenate([eedges["src"], eedges["dst"]])
    ))
    src, dst = ends[: len(eedges)], ends[len(eedges):]

    # GN per ego, on its members' row indices, which keep member order
    bounds = np.append(start, len(pdf))
    edge_bounds = np.append(np.searchsorted(edge_ego, egos), len(edge_ego))
    comm_id = np.empty(len(pdf), dtype=np.int64)
    n_comms = np.empty(len(egos), dtype=np.int64)
    for g in range(len(egos)):
        lo, hi = bounds[g], bounds[g + 1]
        e = slice(edge_bounds[g], edge_bounds[g + 1])
        pairs = zip((src[e] - lo).tolist(), (dst[e] - lo).tolist())
        comm_of = girvan_newman(range(hi - lo), list(pairs))
        comm_id[lo:hi] = [comm_of[i] for i in range(hi - lo)]
        n_comms[g] = comm_id[lo:hi].max() + 1
    # communities numbered across the batch
    comm = comm_id + np.repeat(np.cumsum(n_comms) - n_comms, np.diff(bounds))

    size, tight, x = FT.eq1_eq3(comm, src, dst, eedges[INTERACTION_DIMS].to_numpy(dtype=float))
    return pd.DataFrame({
        "ego": ego, "member": member, "comm_id": comm_id, "comm_size": size, "tightness": tight,
        **dict(zip(FT.X_COLS, x.T)), **{c: pdf[c].to_numpy(dtype=float) for c in USER_FEATURES},
    })


def _phase1_egos(batches):
    """Phase I's per-task pass: :func:`_run_egos` over each task's egos."""
    return by_ego(batches, _run_egos)


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
    tightness, the 8 Eq.-1 interaction-share features ``x_*`` and the
    member's individual features ``f_*``. Every friend of every node
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
        .mapInPandas(_phase1_egos, schema=MEMBER_SCHEMA)
    )

