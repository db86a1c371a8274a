"""Smoke tests for the table harnesses at reduced scale.

Full-scale table runs live in jobs/; these tests verify the harnesses
produce well-formed tables with the paper's qualitative shape.
"""
import numpy as np
import pytest

from repro.core import tables as T
from repro.core.experiment import make_experiment
from repro.socialnet.generator import MAJOR_TYPES


def test_table1_shape_and_ratios():
    tab = T.table1(n_nodes=800, seed=7, n_surveyed=200)
    assert {"first_category", "first_ratio", "second_category",
            "second_ratio", "paper_first_ratio"} <= set(tab.columns)
    assert len(tab) == 17  # 4 first categories × their second categories
    firsts = tab.drop_duplicates("first_category")
    for _, r in firsts.iterrows():
        assert abs(r["first_ratio"] - r["paper_first_ratio"]) < 0.10


def test_table2_shape_and_regime():
    tab = T.table2(n_nodes=1200, seed=7)
    assert set(tab["type"]) == set(MAJOR_TYPES)
    assert {"precision", "recall", "f1", "paper_precision"} <= set(tab.columns)
    fired = tab[tab["recall"] > 0]
    assert (fired["precision"] > 0.5).all()
    assert (tab["recall"] < 0.10).all()  # paper: recall ≤ 0.014


@pytest.fixture(scope="module")
def small_ex(spark):
    return make_experiment(spark, n_nodes=320, seed=7)


def test_table4_fast_methods(spark, small_ex):
    tab = T.table4(
        spark, methods=("Economix", "XGBoost"), experiment=small_ex
    )
    assert len(tab) == 8  # 2 methods × (3 types + overall)
    overall = tab[tab["type"] == "overall"].set_index("algorithm")
    assert (overall["f1"] > 0.4).all()
    assert overall.loc["XGBoost", "paper_overall_f1"] == 0.674


def test_table5_small(spark, small_ex):
    tab = T.table5(spark, cnn_epochs=6, min_votes=2, experiment=small_ex)
    assert set(tab["algorithm"]) == {"LoCEC-XGB", "LoCEC-CNN"}
    overall = tab[tab["type"] == "overall"]
    assert (overall["f1"] > 0.4).all()


def test_table6_small(spark, small_ex):
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    start = persistent().size()
    tab = T.table6(spark, cnn_epochs=4, experiment=small_ex)
    # run_locec's cached frames are released: a later run redoes Phase I
    assert persistent().size() == start
    stages = tab.set_index("stage")
    assert stages.loc["total", "seconds"] == pytest.approx(
        stages.loc[["phase1", "phase2", "phase3"], "seconds"].sum()
    )
    assert np.isclose(stages.loc["total", "share"], 1.0)
    # the paper's Table VI shape: division is the most expensive phase
    assert stages.loc["phase1", "seconds"] > stages.loc["phase3", "seconds"]
    assert stages.loc["phase1", "paper_hours"] == 46.5
