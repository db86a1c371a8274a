"""End-to-end LoCEC (paper Algorithm 2) with per-phase timing.

``run_locec`` wires the three phases over Spark DataFrames:

- Phase I  (*division*):    ego networks + Girvan–Newman communities,
  with every member's Eq. 1/3 features built in the same pass,
- Phase II (*aggregation*): community labels + CommCNN/GBDT, trained
  on the one labeled-community collect Table V also uses and run ego by
  ego on Phase I's partitions, each member row with its community's r^C,
- Phase III (*combination*): Eq. 4 edge features, paired from those
  member rows in one aggregation, + logistic regression,

forcing materialization at each phase boundary so the wall-clock split
reported for Table VI attributes time to the right phase, the same way
the paper reports per-phase running hours.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core import comm_classify as CC
from repro.core import edge_features as EF
from repro.core.communities import member_features


@dataclass
class LocecResult:
    """Artifacts of one end-to-end run (Spark frames + models).

    ``member_df`` (Phase I), ``member_results`` (Phase II: each member
    row with its community's ``p_*`` and ``emb``) and ``edge_pred``
    stay cached until :meth:`unpersist`; meanwhile a run on the same
    inputs reads Phase I from the cache.
    """

    member_df: DataFrame
    member_results: DataFrame
    edge_pred: DataFrame
    comm_model: object
    edge_model: object
    timings: dict = field(default_factory=dict)  # seconds per phase
    train_time: float = 0.0

    def unpersist(self) -> None:
        """Release every frame the run cached."""
        for v in vars(self).values():
            if isinstance(v, DataFrame):
                v.unpersist(blocking=True)


def _check_rows(what: str, got: int, want: int, *cached: DataFrame) -> None:
    """A phase boundary's row-count invariant; on failure the ``cached``
    frames are released before it raises."""
    if got != want:
        for df in cached:
            df.unpersist()
        raise ValueError(f"{got} {what} rows, expected {want}")


def run_locec(
    spark: SparkSession,
    edges: DataFrame,
    interactions: DataFrame,
    users: DataFrame,
    train_edges: DataFrame,
    variant: str = "cnn",
    k: int = 20,
    seed: int = 0,
    cnn_epochs: int = 40,
    gbdt_rounds: int = 40,
    lr_epochs: int = 300,
) -> LocecResult:
    """Run LoCEC over the whole network.

    ``train_edges`` — (src, dst, label) the *visible* labeled edges
    (the paper's survey set / the train split). They drive both the
    Phase II community labels and the Phase III LR fit; inference
    covers every edge of the network.

    ``variant`` — "cnn" (LoCEC-CNN) or "xgb" (LoCEC-XGB).

    Raises ``ValueError`` unless Phase I emits 2|E| member rows (each
    edge once in each endpoint's ego network) and Phase III predicts
    |E| edges.
    """
    timings: dict = {}

    # ---- Phase I: division -----------------------------------------
    t0 = time.perf_counter()
    member_df = member_features(spark, edges, interactions, users).cache()
    n_edges = edges.coalesce(1).count()  # one task, no shuffle
    _check_rows("member", member_df.count(), 2 * n_edges, member_df)
    timings["phase1"] = time.perf_counter() - t0

    # ---- Phase II: aggregation -------------------------------------
    t0 = time.perf_counter()
    labeled = CC.labeled_communities(member_df, train_edges)

    t_train0 = time.perf_counter()
    comm_model = CC.train_community_model(
        labeled, variant=variant, k=k, seed=seed,
        cnn_epochs=cnn_epochs, gbdt_rounds=gbdt_rounds,
    )
    train_time = time.perf_counter() - t_train0

    member_results = CC.classify_communities(spark, member_df, comm_model).cache()
    member_results.count()
    # model training is reported separately (paper Table VI "Training")
    timings["phase2"] = time.perf_counter() - t0 - train_time

    # ---- Phase III: combination ------------------------------------
    t0 = time.perf_counter()
    # counting the cached frame computes every edge's features, so an
    # edge without both member rows raises here
    feats = EF.edge_features(member_results).cache()
    feats.count()

    t_train0 = time.perf_counter()
    train_feats = feats.join(train_edges, on=["src", "dst"]).toPandas()
    edge_model = EF.train_edge_model(train_feats, seed=seed, epochs=lr_epochs)
    lr_train = time.perf_counter() - t_train0
    train_time += lr_train

    edge_pred = EF.classify_edges(spark, feats, edge_model).cache()
    n_pred = edge_pred.count()
    feats.unpersist()
    _check_rows("predicted edge", n_pred, n_edges, member_df, member_results, edge_pred)
    timings["phase3"] = time.perf_counter() - t0 - lr_train
    timings["total"] = timings["phase1"] + timings["phase2"] + timings["phase3"]

    return LocecResult(
        member_df=member_df,
        member_results=member_results,
        edge_pred=edge_pred,
        comm_model=comm_model,
        edge_model=edge_model,
        timings=timings,
        train_time=train_time,
    )
