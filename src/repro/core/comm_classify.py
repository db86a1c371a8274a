"""Phase II — community classification (paper Sec. IV-B).

Phase I (:func:`repro.core.communities.member_features`) emits one row
per (ego, member); :func:`repro.core.features.communities` groups them
into local communities, each with its member array, from which each
model below builds its own input. This module then runs:

1. :func:`community_labels` — ground-truth labels for the communities
   that contain labeled edges: the majority relationship type between
   the ego and the community's labeled members (paper Sec. V-C).
   :func:`labeled_communities` collects the labeled communities' member
   rows to the driver, the one collect both ``run_locec`` and Table V
   train on.
2. :func:`train_community_model` — driver-side training of CommCNN or
   the GBDT on the labeled communities (the paper trains its model
   beforehand on the survey set, then broadcasts it to 100 servers).
3. :func:`classify_communities` — distributed inference, ego by ego on
   Phase I's partitions: every member row leaves with its community's
   class probabilities and Phase III embedding ``r^C`` (softmax vector
   for CommCNN, leaf values for GBDT — paper Sec. IV-C). Every model,
   Phase III's LR included, ships one way, through one executor-
   inference helper: its ``get_params`` arrays are broadcast and
   rebuilt on each executor with ``from_params``. The fitted model
   alone fixes its input and embedding; only training takes the
   variant.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import features as FT
from repro.core.communities import by_ego
from repro.ml.cnn import CNNConfig, CommCNN
from repro.ml.gbdt import GBDT
from repro.socialnet.generator import LABEL_TO_IDX, MAJOR_TYPES

IDX_TO_LABEL = {i: t for t, i in LABEL_TO_IDX.items()}

PROB_COLS = [f"p_{t}" for t in MAJOR_TYPES]
MEMBER_RESULT_SCHEMA = (
    "ego long, member long, tightness double, "
    + ", ".join(f"{c} double" for c in PROB_COLS)
    + ", emb array<double>"
)


def community_labels(member_df: DataFrame, labeled_edges: DataFrame) -> DataFrame:
    """(ego, comm_id, label, n_votes) by majority vote of labeled
    ego↔member edges.

    ``labeled_edges``: (src, dst, label) restricted to the labels the
    experiment is allowed to see (the train split). A community gets a
    label when at least one of its members has a labeled edge to the
    ego; ties break deterministically by label name. ``n_votes`` (the
    total labeled ego↔member edges behind the decision) is carried so
    callers can require a denser vote base — the paper derives
    community ground truth from *surveyed users'* ego networks, where
    most member edges carry labels (Sec. V-C).
    """
    # both sides of each labeled edge, from one scan of it
    sides = labeled_edges.select(
        F.explode(F.array(
            F.struct(F.col("src").alias("ego"), F.col("dst").alias("member")),
            F.struct(F.col("dst").alias("ego"), F.col("src").alias("member")),
        )).alias("side"),
        "label",
    ).select("side.*", "label")
    votes = (
        member_df.select("ego", "member", "comm_id")
        .join(sides, on=["ego", "member"])
        .groupBy("ego", "comm_id", "label")
        .agg(F.count("*").alias("n"))
    )
    # the most votes, ties to the smallest label; and the votes' total
    return votes.groupBy("ego", "comm_id").agg(
        F.min(F.struct(-F.col("n"), F.col("label"))).label.alias("label"),
        F.sum("n").alias("n_votes"),
    )


def labeled_communities(member_df: DataFrame, labeled_edges: DataFrame) -> pd.DataFrame:
    """(ego, comm_id, size, label, n_votes, rows) of every community with
    a :func:`community_labels` label: its member rows, collected to the
    driver and grouped by :func:`features.communities` in (ego, comm_id)
    order, so that the row order (Table V's random split reads it) does
    not depend on Spark's plan."""
    members = member_df.join(
        community_labels(member_df, labeled_edges), on=["ego", "comm_id"]
    ).toPandas()
    return FT.communities(members)[0]


def _model_input(rows: pd.Series, model) -> np.ndarray:
    """``model``'s input for a batch of communities' member arrays:
    Algorithm 1's k×(|I|+|f|) matrices for CommCNN, mean/std pooled
    vectors for the GBDT."""
    if isinstance(model, CommCNN):
        return np.stack([FT.top_k_matrix(r, model.cfg.k) for r in rows])
    return np.stack([FT.mean_std(r) for r in rows])


def train_community_model(
    labeled: pd.DataFrame,
    variant: str,
    k: int = 20,
    seed: int = 0,
    cnn_epochs: int = 40,
    gbdt_rounds: int = 40,
):
    """Train the Phase II classifier on collected labeled communities.

    ``labeled`` is a pandas frame with columns ego, comm_id, rows (each
    community's member array) and label (strings from MAJOR_TYPES).
    Rows are put in (ego, comm_id) order first, so the model does not
    depend on the order in which Spark collected them. ``variant`` picks
    the model: "cnn" (CommCNN over top-``k`` matrices) or "xgb" (GBDT
    over pooled vectors). Returns the fitted model.
    """
    if labeled.empty:
        raise ValueError("no community has a train label")
    labeled = labeled.sort_values(["ego", "comm_id"])
    if variant == "cnn":
        model = CommCNN(
            CNNConfig(k=k, width=FT.MATRIX_WIDTH, n_classes=len(MAJOR_TYPES),
                      epochs=cnn_epochs, seed=seed)
        )
    elif variant == "xgb":
        model = GBDT(n_classes=len(MAJOR_TYPES), n_rounds=gbdt_rounds)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    X = _model_input(labeled["rows"], model)
    y = labeled["label"].map(LABEL_TO_IDX).to_numpy()
    return model.fit(X, y)


def predict_communities(model, pdf: pd.DataFrame) -> pd.DataFrame:
    """(ego, comm_id, p_*, emb) for the communities in ``pdf`` (columns
    ego, comm_id, rows, as :func:`features.communities` gives them); the
    fitted ``model`` fixes its own input."""
    X = _model_input(pdf["rows"], model)
    probs = model.predict_proba(X)
    # r^C (paper Sec. IV-C): CommCNN's softmax vector, XGBoost's leaf values
    emb = probs if isinstance(model, CommCNN) else model.leaf_values(X)
    out = pd.DataFrame({"ego": pdf["ego"], "comm_id": pdf["comm_id"]})
    for i, c in enumerate(PROB_COLS):
        out[c] = probs[:, i]
    out["emb"] = [row.tolist() for row in emb]
    return out


def predict_members(model, pdf: pd.DataFrame) -> pd.DataFrame:
    """(ego, member, tightness, p_*, emb) for every member row of ``pdf``,
    which holds each of its egos in full: each community is predicted
    once, from its member rows, and its results go to each of them."""
    comms, comm_of = FT.communities(pdf)
    res = predict_communities(model, comms)
    return pdf[["ego", "member", "tightness"]].assign(
        **{c: res[c].to_numpy()[comm_of] for c in PROB_COLS + ["emb"]}
    )


def _infer_on_executors(
    spark: SparkSession, frame: DataFrame, model, task, schema: str
) -> DataFrame:
    """``task(model, batches)`` over each task's Arrow batches of
    ``frame``, in at most one task per core, a pass named after ``task``
    in query plans: ``model``'s ``get_params`` arrays are broadcast and
    rebuilt once per task with ``from_params``."""
    cls = type(model)
    sc = spark.sparkContext
    bc = sc.broadcast(model.get_params())

    def infer(batches):
        return task(cls.from_params(bc.value), batches)

    infer.__name__ = task.__name__
    return frame.coalesce(sc.defaultParallelism).mapInPandas(infer, schema=schema)


def classify_communities(spark: SparkSession, member_df: DataFrame, model) -> DataFrame:
    """Distributed Phase II inference over Phase I's own partitions:
    :func:`predict_members` ego by ego over ``member_df``, one row per
    (ego, member) carrying its community's ``p_*`` and ``emb``."""
    return _infer_on_executors(spark, member_df, model, _phase2_members, MEMBER_RESULT_SCHEMA)


def _phase2_members(model, batches):
    """Phase II's per-task pass: :func:`predict_members` ego by ego."""
    return by_ego(batches, lambda pdf: predict_members(model, pdf))
