"""One function per reproduced table (I, II, IV, V, VI).

Jobs under ``jobs/`` and the smoke tests in ``tests/test_tables.py``
both call these, so the numbers in EXPERIMENTS.md come from exactly the
code a reader runs. Tables IV and VI release ``run_locec``'s cached
frames once they are read; Table V trains on ``run_locec``'s collect,
:func:`comm_classify.labeled_communities`. The paper's reference
numbers are recorded in ``PAPER_*`` constants for side-by-side printing.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.economix import Economix
from repro.baselines.probwp import ProbWP
from repro.baselines.xgboost_edge import XGBoostEdge
from repro.core import comm_classify as CC
from repro.core.communities import member_features
from repro.core.experiment import Experiment, make_experiment, score_edge_predictions
from repro.core.locec import run_locec
from repro.ml.metrics import prf_table
from repro.socialnet.generator import MAJOR_TYPES, NetConfig, generate
from repro.socialnet.groups import group_name_table
from repro.socialnet.survey import PAPER_FIRST_RATIOS, SurveyConfig, run_survey, survey_table

# ------------------------------------------------------------------ #
# paper reference numbers (for EXPERIMENTS.md side-by-side)
# ------------------------------------------------------------------ #
PAPER_TABLE2 = pd.DataFrame(
    {
        "type": ["family", "colleague", "schoolmate"],
        "precision": [0.705, 0.821, 0.934],
        "recall": [0.014, 0.005, 0.008],
        "f1": [0.027, 0.010, 0.016],
    }
)

PAPER_TABLE4_OVERALL = {
    "ProbWP": 0.793,
    "Economix": 0.754,
    "XGBoost": 0.674,
    "LoCEC-XGB": 0.850,
    "LoCEC-CNN": 0.916,
}

PAPER_TABLE5_OVERALL = {"LoCEC-XGB": 0.882, "LoCEC-CNN": 0.927}

#: paper Table VI: hours per phase on 100 servers, full WeChat graph
PAPER_TABLE6_HOURS = {
    "training": 4.5, "phase1": 46.5, "phase2": 15.3, "phase3": 7.4, "total": 73.7,
}


# ------------------------------------------------------------------ #
# Table I — survey relationship-type ratios
# ------------------------------------------------------------------ #
def table1(n_nodes: int = 3000, seed: int = 7, n_surveyed: int = 400) -> pd.DataFrame:
    """First/second-category ratios of a simulated survey vs. paper."""
    net = generate(NetConfig(n_nodes=n_nodes, seed=seed))
    survey = run_survey(net, SurveyConfig(seed=seed + 1, n_surveyed=n_surveyed))
    tab = survey_table(survey)
    tab["paper_first_ratio"] = tab["first_category"].map(PAPER_FIRST_RATIOS)
    return tab


# ------------------------------------------------------------------ #
# Table II — group-name rule-mining P/R/F1
# ------------------------------------------------------------------ #
def table2(n_nodes: int = 3000, seed: int = 7) -> pd.DataFrame:
    """Rule-based group-name classification vs. ground-truth edges."""
    net = generate(NetConfig(n_nodes=n_nodes, seed=seed))
    mine = group_name_table(net)
    paper = PAPER_TABLE2.rename(
        columns={c: f"paper_{c}" for c in ("precision", "recall", "f1")}
    )
    return mine.merge(paper, on="type")


# ------------------------------------------------------------------ #
# Table IV — edge classification, 5 methods
# ------------------------------------------------------------------ #
def table4(
    spark: SparkSession,
    n_nodes: int = 3000,
    seed: int = 7,
    labeled_frac: float = 0.4,
    cnn_epochs: int = 60,
    methods: tuple = ("ProbWP", "Economix", "XGBoost", "LoCEC-XGB", "LoCEC-CNN"),
    experiment: Experiment | None = None,
) -> pd.DataFrame:
    """Per-type and overall P/R/F1 for every comparative method."""
    ex = experiment or make_experiment(
        spark, n_nodes=n_nodes, seed=seed, labeled_frac=labeled_frac
    )
    out = []
    for name in methods:
        t0 = time.perf_counter()
        if name == "ProbWP":
            pred = ProbWP(top_k=10).fit(spark, ex.edges, ex.train).predict(ex.test)
        elif name == "Economix":
            pred = Economix().fit(ex.net.edges, ex.net.interactions, ex.train).predict(ex.test)
        elif name == "XGBoost":
            pred = XGBoostEdge().fit(ex.net.users, ex.net.interactions, ex.train).predict(ex.test)
        elif name in ("LoCEC-XGB", "LoCEC-CNN"):
            variant = "cnn" if name.endswith("CNN") else "xgb"
            res = run_locec(
                spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
                variant=variant, cnn_epochs=cnn_epochs,
            )
            pred = res.edge_pred.toPandas()
            res.unpersist()
        else:
            raise ValueError(name)
        tab = score_edge_predictions(ex.test, pred)
        tab.insert(0, "algorithm", name)
        tab["seconds"] = time.perf_counter() - t0
        out.append(tab)
    res = pd.concat(out, ignore_index=True)
    res["paper_overall_f1"] = res.apply(
        lambda r: PAPER_TABLE4_OVERALL[r["algorithm"]] if r["type"] == "overall" else np.nan,
        axis=1,
    )
    return res


# ------------------------------------------------------------------ #
# Table V — community classification, LoCEC-XGB vs LoCEC-CNN
# ------------------------------------------------------------------ #
def table5(
    spark: SparkSession,
    n_nodes: int = 3000,
    seed: int = 7,
    cnn_epochs: int = 60,
    train_frac: float = 0.8,
    min_votes: int = 3,
    experiment: Experiment | None = None,
) -> pd.DataFrame:
    """80/20 split over ground-truth-labeled local communities.

    Community ground truth = majority relationship type between the ego
    and the community's labeled members (paper Sec. V-C), derived from
    the experiment's full labeled edge set. Communities whose vote base
    is thinner than ``min_votes`` labeled edges are excluded — the
    paper's communities come from surveyed users' ego networks, where
    most member edges carry survey labels, so its ground truth is
    dense; a majority vote of one labeled edge would be noise, not
    ground truth.
    """
    ex = experiment or make_experiment(spark, n_nodes=n_nodes, seed=seed)
    member_df = member_features(spark, ex.edges, ex.interactions, ex.users).cache()
    labeled = CC.labeled_communities(member_df, spark.createDataFrame(ex.labeled))
    labeled = labeled[labeled["n_votes"] >= min_votes]

    g = np.random.default_rng(seed)
    is_train = g.random(len(labeled)) < train_frac
    train_pd, test_pd = labeled[is_train], labeled[~is_train]

    out = []
    for name, variant in (("LoCEC-XGB", "xgb"), ("LoCEC-CNN", "cnn")):
        model = CC.train_community_model(
            train_pd, variant=variant, k=20, seed=seed, cnn_epochs=cnn_epochs
        )
        probs = CC.predict_communities(model, test_pd)[CC.PROB_COLS].to_numpy()
        tab = prf_table(
            test_pd["label"].to_numpy(), np.array(MAJOR_TYPES)[probs.argmax(axis=1)],
            MAJOR_TYPES,
        )
        tab.insert(0, "algorithm", name)
        tab["paper_overall_f1"] = [
            np.nan, np.nan, np.nan, PAPER_TABLE5_OVERALL[name]
        ]
        out.append(tab)
    member_df.unpersist()
    return pd.concat(out, ignore_index=True)


# ------------------------------------------------------------------ #
# Table VI — running time per phase + scalability
# ------------------------------------------------------------------ #
def table6(
    spark: SparkSession,
    n_nodes: int = 3000,
    seed: int = 7,
    cnn_epochs: int = 30,
    experiment: Experiment | None = None,
) -> pd.DataFrame:
    """Phase-split wall clock of one LoCEC-CNN run (paper's Table VI).

    Absolute times are local-machine seconds, not 100-server hours; the
    comparable quantity is the *share* of time per phase (Phase I
    dominates, then Phase II, then Phase III).
    """
    ex = experiment or make_experiment(spark, n_nodes=n_nodes, seed=seed)
    res = run_locec(
        spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
        variant="cnn", cnn_epochs=cnn_epochs,
    )
    res.unpersist()
    t, paper = res.timings, PAPER_TABLE6_HOURS
    rows = [
        {"stage": s, "seconds": t[s], "share": t[s] / t["total"],
         "paper_hours": paper[s], "paper_share": paper[s] / paper["total"]}
        for s in ("phase1", "phase2", "phase3", "total")
    ]
    rows.append({"stage": "training", "seconds": res.train_time, "share": np.nan,
                 "paper_hours": paper["training"], "paper_share": np.nan})
    return pd.DataFrame(rows)
