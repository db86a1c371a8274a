"""Phase III — edge labeling (paper Sec. IV-C, Eq. 4).

For edge <u, v>: ``C_u`` is u's local community inside *v's* ego
network and ``C_v`` is v's community inside *u's* ego network. The
edge feature vector is

    f_<u,v> = [tightness(u, C_u), tightness(v, C_v), r^{C_u}, r^{C_v}]

assembled here from the edge's two Phase II member rows (u in v's ego
network and v in u's, each with its community's r^C) in one
aggregation, then classified by a multinomial logistic regression
trained on the labeled edges: a driver-side fit, and distributed
inference of :func:`predict_edges` through Phase II's one executor-
inference helper (broadcast ``get_params`` arrays).

The divide–aggregate–combine guarantee holds by construction: every
edge endpoint is a member of the other endpoint's ego network, so every
edge has exactly two member rows and gets a dense feature vector;
:func:`edge_features` raises if one is missing.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.comm_classify import IDX_TO_LABEL, PROB_COLS, _infer_on_executors
from repro.ml.logreg import LogisticRegression
from repro.socialnet.generator import LABEL_TO_IDX, MAJOR_TYPES

EDGE_PRED_SCHEMA = (
    "src long, dst long, "
    + ", ".join(f"{c} double" for c in PROB_COLS)
    + ", pred string"
)


def edge_features(member_results: DataFrame) -> DataFrame:
    """Eq. 4 features for every edge (src, dst), src < dst.

    Each Phase II member row (ego, member, tightness, emb) is one side
    of the edge between them: one aggregation pairs the two rows of
    each edge. Side u is the row with ego = dst (tightness(u, C_u),
    r^{C_u}); side v the row with ego = src. ``features`` raises when
    an edge has other than two member rows, so a missing side is never
    paired with itself.
    """
    side = F.struct("tightness", "emb")
    pairs = member_results.groupBy(
        F.least("ego", "member").alias("src"),
        F.greatest("ego", "member").alias("dst"),
    ).agg(
        F.max_by(side, "ego").alias("u"),
        F.min_by(side, "ego").alias("v"),
        F.count("*").alias("n"),
    )
    eq4 = F.concat(
        F.array("u.tightness", "v.tightness"), F.col("u.emb"), F.col("v.emb")
    )
    unpaired = F.raise_error(F.format_string(
        "edge (%d, %d) has %d member rows, not 2", "src", "dst", "n"
    ))
    return pairs.select(
        "src", "dst", F.when(F.col("n") == 2, eq4).otherwise(unpaired).alias("features")
    )


def _feature_matrix(features: pd.Series) -> np.ndarray:
    """The LR's input: one Eq. 4 ``features`` vector per row."""
    return np.stack([np.asarray(f) for f in features])


def train_edge_model(
    feat_pdf: pd.DataFrame, seed: int = 0, epochs: int = 300
) -> LogisticRegression:
    """Fit the Phase III LR on collected labeled-edge features.

    ``feat_pdf``: columns src, dst, features (list<double>) and label
    (strings from MAJOR_TYPES). Rows are put in (src, dst) order first:
    full-batch Adam's sums depend on row order, and the model must not
    depend on the order in which Spark collected them.
    """
    feat_pdf = feat_pdf.sort_values(["src", "dst"])
    X = _feature_matrix(feat_pdf["features"])
    y = feat_pdf["label"].map(LABEL_TO_IDX).to_numpy()
    return LogisticRegression(n_classes=len(MAJOR_TYPES), seed=seed, epochs=epochs).fit(X, y)


def predict_edges(model: LogisticRegression, pdf: pd.DataFrame) -> pd.DataFrame:
    """(src, dst, p_*, pred) for the edges in ``pdf`` (columns src, dst,
    features); ``pred`` is the most probable type."""
    probs = model.predict_proba(_feature_matrix(pdf["features"]))
    out = pd.DataFrame({"src": pdf["src"], "dst": pdf["dst"]})
    for i, c in enumerate(PROB_COLS):
        out[c] = probs[:, i]
    out["pred"] = [IDX_TO_LABEL[i] for i in probs.argmax(axis=1)]
    return out


def classify_edges(
    spark: SparkSession, feats: DataFrame, model: LogisticRegression
) -> DataFrame:
    """Distributed Phase III inference: :func:`predict_edges` over every
    edge of ``feats``."""
    return _infer_on_executors(spark, feats, model, _phase3_edges, EDGE_PRED_SCHEMA)


def _phase3_edges(model: LogisticRegression, batches):
    """Phase III's per-task pass: :func:`predict_edges` per Arrow batch."""
    return (predict_edges(model, pdf) for pdf in batches)
