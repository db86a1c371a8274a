"""Tests for the three comparative baselines."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.economix import Economix, edge_word_matrix, _BUCKETS
from repro.baselines.probwp import ProbWP, minhash_signatures
from repro.baselines.xgboost_edge import XGBoostEdge
from repro.core.experiment import make_experiment, score_edge_predictions
from repro.socialnet.generator import (
    INTERACTION_DIMS,
    MAJOR_TYPES,
    NetConfig,
    generate,
)


@pytest.fixture(scope="module")
def ex(spark):
    return make_experiment(spark, n_nodes=400, seed=7)


# ----------------------------- ProbWP ------------------------------ #
def test_minhash_estimates_jaccard(spark):
    """Signature agreement approximates neighbor-set Jaccard."""
    # two nodes with heavily overlapping neighborhoods + one disjoint
    rows = []
    for nb in range(10, 30):
        rows.append((0, nb))
        if nb < 28:
            rows.append((1, nb))  # |∩|=18, |∪|=20 → J=0.9
    for nb in range(50, 70):
        rows.append((2, nb))  # J(0,2)=0
    edges = spark.createDataFrame(pd.DataFrame(rows, columns=["src", "dst"]))
    sigs = minhash_signatures(spark, edges, n_hashes=64, seed=0)
    sig = sigs.set_index("node")
    s0 = sig.loc[0].to_numpy()
    s1 = sig.loc[1].to_numpy()
    s2 = sig.loc[2].to_numpy()
    assert (s0 == s1).mean() > 0.6
    assert (s0 == s2).mean() < 0.2


def test_minhash_deterministic(spark, ex):
    a = minhash_signatures(spark, ex.edges, seed=3).sort_values("node").reset_index(drop=True)
    b = minhash_signatures(spark, ex.edges, seed=3).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_probwp_independent_of_shuffle_partitions(spark, ex):
    """ProbWP breaks similarity ties by signature row, so its predictions
    must not change with the number of shuffle partitions (AQE
    coalescing off, so 8 really means 8)."""
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    saved = {c: spark.conf.get(c) for c in keys}
    preds = []
    try:
        spark.conf.set("spark.sql.adaptive.coalescePartitions.enabled", "false")
        for n in (1, 8):
            spark.conf.set("spark.sql.shuffle.partitions", n)
            preds.append(ProbWP(top_k=10).fit(spark, ex.edges, ex.train).predict(ex.test))
    finally:
        for c, v in saved.items():
            spark.conf.set(c, v)
    pd.testing.assert_frame_equal(*preds)


def test_probwp_paper_hash_count_default():
    assert ProbWP().n_hashes == 20  # paper: "number of min-hash functions is set to 20"


def test_probwp_predicts_known_types(spark, ex):
    m = ProbWP(top_k=10).fit(spark, ex.edges, ex.train)
    pred = m.predict(ex.test.head(50))
    assert len(pred) == 50
    assert set(pred["pred"].dropna()).issubset(set(MAJOR_TYPES))


def test_probwp_beats_chance(spark, ex):
    m = ProbWP(top_k=10).fit(spark, ex.edges, ex.train)
    tab = score_edge_predictions(ex.test, m.predict(ex.test))
    assert tab[tab["type"] == "overall"]["f1"].iloc[0] > 0.45


def test_probwp_degrades_with_few_labels(spark, ex):
    """Paper Fig. 11: label propagation collapses at low label rates."""
    tiny_train = ex.train.sample(frac=0.05, random_state=0)
    m_full = ProbWP(top_k=10).fit(spark, ex.edges, ex.train)
    m_tiny = ProbWP(top_k=10).fit(spark, ex.edges, tiny_train)
    f_full = score_edge_predictions(ex.test, m_full.predict(ex.test))
    f_tiny = score_edge_predictions(ex.test, m_tiny.predict(ex.test))
    assert (
        f_tiny[f_tiny["type"] == "overall"]["f1"].iloc[0]
        < f_full[f_full["type"] == "overall"]["f1"].iloc[0]
    )


# ----------------------------- Economix ---------------------------- #
def test_edge_word_matrix_buckets():
    inter = pd.DataFrame(
        [[0, 1] + [0] * len(INTERACTION_DIMS)],
        columns=["src", "dst"] + INTERACTION_DIMS,
    )
    inter.loc[0, "i_msg"] = 1  # count 1 → bucket 0
    inter.loc[0, "i_repost"] = 9  # log2(9)≈3.17 → bucket 3
    W = edge_word_matrix(inter)
    assert W.shape == (1, len(INTERACTION_DIMS) * _BUCKETS)
    assert W[0, 0] == 1.0  # i_msg dim 0 bucket 0
    repost_dim = INTERACTION_DIMS.index("i_repost")
    assert W[0, repost_dim * _BUCKETS + 3] == 1.0
    assert W.sum() == 2.0


def test_edge_word_matrix_zero_edge_empty_doc():
    inter = pd.DataFrame(
        [[0, 1] + [0] * len(INTERACTION_DIMS)],
        columns=["src", "dst"] + INTERACTION_DIMS,
    )
    assert edge_word_matrix(inter).sum() == 0.0


def test_economix_fit_predict(ex):
    m = Economix().fit(ex.net.edges, ex.net.interactions, ex.train)
    pred = m.predict(ex.test)
    assert len(pred) == len(ex.test)
    assert set(pred["pred"]).issubset(set(MAJOR_TYPES))


def test_economix_improves_with_labels(ex):
    tiny = ex.train.sample(frac=0.08, random_state=0)
    f_tiny = score_edge_predictions(
        ex.test, Economix().fit(ex.net.edges, ex.net.interactions, tiny).predict(ex.test)
    )
    f_full = score_edge_predictions(
        ex.test, Economix().fit(ex.net.edges, ex.net.interactions, ex.train).predict(ex.test)
    )
    assert (
        f_full[f_full["type"] == "overall"]["f1"].iloc[0]
        > f_tiny[f_tiny["type"] == "overall"]["f1"].iloc[0]
    )


# ----------------------------- XGBoost ----------------------------- #
def test_xgboost_edge_fit_predict(ex):
    m = XGBoostEdge(n_rounds=15).fit(ex.net.users, ex.net.interactions, ex.train)
    pred = m.predict(ex.test)
    assert len(pred) == len(ex.test)
    assert set(pred["pred"]).issubset(set(MAJOR_TYPES))


def test_xgboost_edge_user_features_symmetric(ex):
    """Undirected edges: the endpoint-feature part uses symmetric
    combinations (sum and |diff|), so swapping endpoints is a no-op."""
    m = XGBoostEdge(n_rounds=5).fit(ex.net.users, ex.net.interactions, ex.train)
    pairs = ex.test.head(20)[["src", "dst"]].reset_index(drop=True)
    a = m._features(pairs)
    swapped = pd.DataFrame({"src": pairs["dst"], "dst": pairs["src"]})
    b = m._features(swapped)
    assert np.allclose(a[:, :8], b[:, :8])


def test_xgboost_edge_zero_interaction_pairs_get_zero_features(ex):
    m = XGBoostEdge(n_rounds=5).fit(ex.net.users, ex.net.interactions, ex.train)
    # a fabricated non-edge pair has no interaction row → zeros
    pairs = pd.DataFrame({"src": [0], "dst": [ex.net.n_nodes - 1]})
    f = m._features(pairs)
    assert (f[:, 16:] == 0).all()


def test_xgboost_edge_beats_chance(ex):
    m = XGBoostEdge().fit(ex.net.users, ex.net.interactions, ex.train)
    tab = score_edge_predictions(ex.test, m.predict(ex.test))
    assert tab[tab["type"] == "overall"]["f1"].iloc[0] > 0.45
