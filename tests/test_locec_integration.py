"""End-to-end integration tests of Algorithm 2 (both variants)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import edge_features as EF
from repro.core import locec
from repro.core.experiment import make_experiment, score_edge_predictions
from repro.core.locec import run_locec
from repro.socialnet.generator import INTERACTION_DIMS, MAJOR_TYPES, USER_FEATURES


@pytest.fixture(scope="module")
def ex(spark):
    return make_experiment(spark, n_nodes=350, seed=7)


@pytest.fixture(scope="module")
def result_xgb(spark, ex):
    return run_locec(
        spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
        variant="xgb", gbdt_rounds=20, lr_epochs=150,
    )


@pytest.fixture(scope="module")
def result_cnn(spark, ex):
    return run_locec(
        spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
        variant="cnn", cnn_epochs=12, lr_epochs=150,
    )


def test_all_edges_predicted(ex, result_xgb):
    assert result_xgb.edge_pred.count() == ex.net.n_edges


def test_python_stages_run_one_task_per_core(spark, result_xgb):
    """Phase I, Phase II inference and Phase III inference each run in
    one task per core, whatever the shuffle-partition count (64 here)."""
    P = spark.sparkContext.defaultParallelism
    for df in (result_xgb.member_df, result_xgb.member_results, result_xgb.edge_pred):
        assert df.rdd.getNumPartitions() == P


def test_python_passes_named_in_plans(result_xgb):
    """Each of the three Python passes has its own name in the plan."""
    frames = {"_phase1_egos": result_xgb.member_df,
              "_phase2_members": result_xgb.member_results,
              "_phase3_edges": result_xgb.edge_pred}
    for name, df in frames.items():
        plan = df._jdf.queryExecution().analyzed().toString()
        assert plan.startswith(f"MapInPandas {name}("), plan[:80]


def test_predictions_are_major_types(result_xgb):
    preds = {r.pred for r in result_xgb.edge_pred.select("pred").distinct().collect()}
    assert preds.issubset(set(MAJOR_TYPES))


def test_timings_recorded(result_xgb):
    t = result_xgb.timings
    assert set(t) == {"phase1", "phase2", "phase3", "total"}
    assert all(v > 0 for v in t.values())
    assert t["total"] == pytest.approx(t["phase1"] + t["phase2"] + t["phase3"])


def test_xgb_beats_chance_clearly(ex, result_xgb):
    tab = score_edge_predictions(ex.test, result_xgb.edge_pred.toPandas())
    overall = tab[tab["type"] == "overall"].iloc[0]
    assert overall["f1"] > 0.6  # way above the ~0.33 chance level


def test_cnn_beats_chance_clearly(ex, result_cnn):
    tab = score_edge_predictions(ex.test, result_cnn.edge_pred.toPandas())
    overall = tab[tab["type"] == "overall"].iloc[0]
    assert overall["f1"] > 0.55  # few epochs at tiny scale — floor only


def test_variants_share_phase1(result_xgb, result_cnn):
    """Phase I is variant-independent: identical member partitions."""
    a = result_xgb.member_df.toPandas().sort_values(["ego", "member"])
    b = result_cnn.member_df.toPandas().sort_values(["ego", "member"])
    assert np.array_equal(a["comm_id"].to_numpy(), b["comm_id"].to_numpy())


def test_embedding_kinds_differ(result_xgb, result_cnn):
    """r^C is leaf values for XGB (high-dim) vs softmax (|L|) for CNN."""
    xgb_emb = len(result_xgb.member_results.first().emb)
    cnn_emb = len(result_cnn.member_results.first().emb)
    assert cnn_emb == len(MAJOR_TYPES)
    assert xgb_emb > cnn_emb


def test_probability_columns_valid(result_cnn):
    pdf = result_cnn.edge_pred.toPandas()
    probs = pdf[[f"p_{t}" for t in MAJOR_TYPES]].to_numpy()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_result_frames_hold_every_cached_frame(spark):
    """Unpersisting the returned frames releases everything the run cached.

    Its own small network: frames with the same plan as the fixtures'
    would share their cache entries.
    """
    ex = make_experiment(spark, n_nodes=150, seed=11)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    start = persistent().size()
    res = run_locec(
        spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
        variant="xgb", gbdt_rounds=2, lr_epochs=10,
    )
    assert persistent().size() > start
    res.unpersist()
    assert persistent().size() == start


@pytest.mark.parametrize("variant", ["xgb", "cnn"])
def test_edge_predictions_independent_of_shuffle_partitions(spark, variant):
    """Edge predictions, and the Phase II member rows they come from,
    must not change with the number of shuffle partitions (AQE
    coalescing off, so the count is really used)."""
    ex = make_experiment(spark, n_nodes=150, seed=11)
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    saved = {c: spark.conf.get(c) for c in keys}
    runs = []
    try:
        spark.conf.set("spark.sql.adaptive.coalescePartitions.enabled", "false")
        for n in (1, 7, 64):
            spark.conf.set("spark.sql.shuffle.partitions", n)
            res = run_locec(
                spark, ex.edges, ex.interactions, ex.users, ex.train_df(spark),
                variant=variant, gbdt_rounds=3, cnn_epochs=2, lr_epochs=20,
            )
            runs.append((
                res.edge_pred.toPandas().sort_values(["src", "dst"], ignore_index=True),
                res.member_results.toPandas().sort_values(["ego", "member"], ignore_index=True),
            ))
            # the next run has the same plans and would read these caches
            res.unpersist()
    finally:
        for c, v in saved.items():
            spark.conf.set(c, v)
    prob_cols = [f"p_{t}" for t in MAJOR_TYPES]
    (first, first_members), *rest = runs
    for other, members in rest:
        pd.testing.assert_frame_equal(
            first[["src", "dst", "pred"]], other[["src", "dst", "pred"]]
        )
        assert np.abs(first[prob_cols].to_numpy() - other[prob_cols].to_numpy()).max() <= 1e-12
        cols = ["ego", "member", "tightness"]
        pd.testing.assert_frame_equal(first_members[cols], members[cols], check_exact=True)
        assert np.abs(
            first_members[prob_cols].to_numpy() - members[prob_cols].to_numpy()
        ).max() <= 1e-12


@pytest.mark.parametrize("variant", ["xgb", "cnn"])
def test_triangle_free_network_predicts_every_edge_once(spark, variant):
    """Two 7-leaf stars joined by the path 0–20–10 have no triangles, so
    every ego network has members but no internal edges and every local
    community is a singleton; the train labels leave out one class."""
    pairs = [(0, i) for i in range(1, 8)] + [(10, i) for i in range(11, 18)]
    edges = pd.DataFrame(pairs + [(0, 20), (10, 20)], columns=["src", "dst"])
    g = np.random.default_rng(0)
    inter = edges.assign(**{c: g.integers(0, 6, len(edges)) for c in INTERACTION_DIMS})
    users = pd.DataFrame({"user_id": np.unique(edges[["src", "dst"]])})
    users = users.assign(**{c: g.random(len(users)) for c in USER_FEATURES})
    train = edges.iloc[: len(pairs)].assign(label=["colleague"] * 7 + ["family"] * 7)
    res = run_locec(
        spark, spark.createDataFrame(edges), spark.createDataFrame(inter),
        spark.createDataFrame(users), spark.createDataFrame(train),
        variant=variant, gbdt_rounds=3, cnn_epochs=2, lr_epochs=20,
    )
    pred = res.edge_pred.toPandas()
    res.unpersist()
    assert len(pred) == len(edges)
    assert not pred.duplicated(["src", "dst"]).any()
    assert set(zip(pred["src"], pred["dst"])) == set(zip(edges["src"], edges["dst"]))


def _star_network_with_isolated_edge(spark):
    """A 7-leaf star plus the isolated edge 30–31, whose endpoints are
    each other's only friend; returns ``run_locec``'s inputs."""
    edges = pd.DataFrame([(0, i) for i in range(1, 8)] + [(30, 31)], columns=["src", "dst"])
    g = np.random.default_rng(0)
    inter = edges.assign(**{c: g.integers(0, 6, len(edges)) for c in INTERACTION_DIMS})
    users = pd.DataFrame({"user_id": np.unique(edges[["src", "dst"]])})
    users = users.assign(**{c: g.random(len(users)) for c in USER_FEATURES})
    train = edges.iloc[:6].assign(label=["colleague"] * 3 + ["family"] * 3)
    return [spark.createDataFrame(f) for f in (edges, inter, users, train)]


def test_lost_member_rows_raise(spark, monkeypatch):
    """Phase I losing both member rows of an edge must raise, not
    predict |E| - 1 edges: the Eq. 4 guard only sees edges with rows."""
    member_features = locec.member_features

    def lossy(*args):
        return member_features(*args).where(
            ~(F.col("ego").isin(30, 31) & F.col("member").isin(30, 31))
        )

    monkeypatch.setattr(locec, "member_features", lossy)
    with pytest.raises(ValueError, match="14 member rows, expected 16"):
        run_locec(spark, *_star_network_with_isolated_edge(spark),
                  variant="xgb", gbdt_rounds=2, lr_epochs=10)


def test_lost_edge_predictions_raise(spark, monkeypatch):
    """Phase III inference losing an edge must raise."""
    classify_edges = EF.classify_edges
    monkeypatch.setattr(
        EF, "classify_edges", lambda *args: classify_edges(*args).where(F.col("src") != 30)
    )
    with pytest.raises(ValueError, match="7 predicted edge rows, expected 8"):
        run_locec(spark, *_star_network_with_isolated_edge(spark),
                  variant="xgb", gbdt_rounds=2, lr_epochs=10)
