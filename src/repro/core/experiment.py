"""Experiment harness shared by jobs and tests.

Mirrors the paper's evaluation protocol (Sec. V-B): a sub-graph in
which ~40% of edges carry ground-truth labels; the labeled edges are
split 80/20 into train/test; methods see train labels only and are
scored on the test edges with per-type and overall P/R/F1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.ml.metrics import prf_table
from repro.socialnet.generator import (
    MAJOR_TYPES,
    NetConfig,
    SocialNetwork,
    generate,
    to_spark,
)


@dataclass
class Experiment:
    """One dataset + labeled split, in both pandas and Spark form."""

    net: SocialNetwork
    edges: DataFrame
    interactions: DataFrame
    users: DataFrame
    labeled: pd.DataFrame  # all visible-label edges (src, dst, label)
    train: pd.DataFrame
    test: pd.DataFrame

    def train_df(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.train)


def make_experiment(
    spark: SparkSession,
    n_nodes: int = 3000,
    seed: int = 7,
    labeled_frac: float = 0.4,
    train_frac: float = 0.8,
    split_seed: int = 1,
) -> Experiment:
    """Generate a network and the paper-style labeled split.

    ``labeled_frac`` of the major-type edges are marked as having
    ground truth (the paper's 40%-labeled sub-graph); of those,
    ``train_frac`` go to train and the rest to test.
    """
    net = generate(NetConfig(n_nodes=n_nodes, seed=seed))
    edges, inter, users = to_spark(spark, net)
    major = net.edges[net.edges["label"].isin(MAJOR_TYPES)].reset_index(drop=True)
    labeled = major.sample(frac=labeled_frac, random_state=split_seed)
    train = labeled.sample(frac=train_frac, random_state=split_seed + 1)
    test = labeled.drop(train.index).reset_index(drop=True)
    return Experiment(
        net=net,
        edges=edges,
        interactions=inter,
        users=users,
        labeled=labeled.reset_index(drop=True),
        train=train.reset_index(drop=True),
        test=test,
    )


def score_edge_predictions(
    test: pd.DataFrame, pred: pd.DataFrame, pred_col: str = "pred"
) -> pd.DataFrame:
    """Join predictions onto the test split and emit the P/R/F1 table.

    Missing predictions (a method abstaining on an edge) are scored as
    wrong for recall purposes, matching the paper's evaluation over all
    test edges.
    """
    m = test.merge(pred[["src", "dst", pred_col]], on=["src", "dst"], how="left")
    m[pred_col] = m[pred_col].fillna("__none__")
    return prf_table(m["label"], m[pred_col], MAJOR_TYPES)
