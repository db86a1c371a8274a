"""Tests for Phase III: Eq. 4 edge features and the LR edge classifier."""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import SparkRuntimeException
from pyspark.sql import functions as F

from repro.core import comm_classify as CC
from repro.core import edge_features as EF
from repro.core import features as FT
from repro.core.communities import member_features
from repro.socialnet.generator import MAJOR_TYPES, NetConfig, generate, to_spark


@pytest.fixture(scope="module")
def phase2(spark):
    """The cached member frame, its labelled communities, an xgb model
    and the cached Phase II member frame it gives."""
    net = generate(NetConfig(n_nodes=220, seed=31))
    edges, inter, users = to_spark(spark, net)
    member_df = member_features(spark, edges, inter, users).cache()
    labeled = CC.labeled_communities(
        member_df, spark.createDataFrame(net.edges[net.edges["label"].isin(MAJOR_TYPES)])
    )
    model = CC.train_community_model(labeled, variant="xgb", k=10, gbdt_rounds=5)
    member_res = CC.classify_communities(spark, member_df, model).cache()
    return net, edges, member_df, labeled, model, member_res


@pytest.fixture(scope="module")
def setup(phase2):
    """Eq. 4 features from the Phase II member frame, and the oracle's
    per-community results: a driver-side predict of every community."""
    net, edges, member_df, labeled, model, member_res = phase2
    feats = EF.edge_features(member_res).cache()
    feats.count()
    comm_res = CC.predict_communities(model, FT.communities(member_df.toPandas())[0])
    return net, edges, member_df, comm_res, feats


def _member_results(member_df, comm_res) -> pd.DataFrame:
    """(ego, member) → tightness and the embedding of the member's
    community in that ego network, joined in pandas."""
    return (
        member_df.select("ego", "member", "comm_id", "tightness").toPandas()
        .merge(comm_res[["ego", "comm_id", "emb"]], on=["ego", "comm_id"])
        .set_index(["ego", "member"])
    )


def _exchanges_above_cache(plan) -> int:
    """Exchanges in a physical plan, leaving out those inside the plans
    of the cached frames it reads."""
    name = plan.nodeName()
    if name == "InMemoryTableScan":
        return 0
    if name == "AdaptiveSparkPlan":
        return _exchanges_above_cache(plan.executedPlan())
    kids = plan.children()
    return (name == "Exchange") + sum(
        _exchanges_above_cache(kids.apply(i)) for i in range(kids.size())
    )


def test_every_edge_has_features(setup):
    """LoCEC's guarantee: the divide-aggregate-combine pipeline gives a
    dense feature vector to EVERY edge (paper Sec. IV-C)."""
    net, edges, member_df, comm_res, feats = setup
    assert feats.count() == net.n_edges


def test_feature_vector_width(setup):
    net, edges, member_df, comm_res, feats = setup
    emb_len = len(_member_results(member_df, comm_res)["emb"].iloc[0])
    row = feats.first()
    assert len(row.features) == 2 + 2 * emb_len  # Eq. 4 layout


def test_eq4_layout_tightness_then_embeddings(setup):
    """features = [tight_u, tight_v, r^{C_u}, r^{C_v}] for one edge."""
    net, edges, member_df, comm_res, feats = setup
    r = feats.first()
    mr = _member_results(member_df, comm_res)
    u_side = mr.loc[(r.dst, r.src)]  # C_u: u's community in v's ego net
    v_side = mr.loc[(r.src, r.dst)]
    f = np.asarray(r.features)
    assert f[0] == pytest.approx(u_side["tightness"])
    assert f[1] == pytest.approx(v_side["tightness"])
    emb_len = len(u_side["emb"])
    assert np.allclose(f[2 : 2 + emb_len], np.asarray(u_side["emb"]))
    assert np.allclose(f[2 + emb_len :], np.asarray(v_side["emb"]))


def test_features_match_two_join_oracle(setup):
    """Every edge's features equal, exactly, the two-join definition of
    Eq. 4: u = row (ego=dst, member=src), v = row (ego=src, member=dst)."""
    net, edges, member_df, comm_res, feats = setup
    mr = _member_results(member_df, comm_res)
    got = feats.toPandas()
    assert sorted(zip(got["src"], got["dst"])) == sorted(
        zip(net.edges["src"], net.edges["dst"])
    )
    for src, dst, f in zip(got["src"], got["dst"], got["features"]):
        u, v = mr.loc[(dst, src)], mr.loc[(src, dst)]
        want = [u["tightness"], v["tightness"], *u["emb"], *v["emb"]]
        assert list(f) == want, (src, dst)


def test_missing_member_row_fails_naming_the_edge(phase2):
    """An edge with one member row must raise, not be paired with itself."""
    net, edges, member_df, labeled, model, member_res = phase2
    src, dst = (int(x) for x in net.edges[["src", "dst"]].iloc[0])
    dropped = member_res.filter(~((F.col("ego") == dst) & (F.col("member") == src)))
    broken = EF.edge_features(dropped).cache()
    try:
        msg = rf"edge \({src}, {dst}\) has 1 member rows, not 2"
        with pytest.raises(SparkRuntimeException, match=msg):
            broken.count()
    finally:
        broken.unpersist()


def test_phase3_shuffles_once(spark, phase2):
    """Eq. 4 reads the cached Phase II member frame through one Exchange,
    its aggregation's: no join on (ego, comm_id) is left."""
    net, edges, member_df, labeled, model, _ = phase2
    # a frame of its own: Eq. 4 over the fixture's would read ``setup``'s cache
    member_res = CC.classify_communities(spark, member_df, model).cache()
    try:
        plan = EF.edge_features(member_res)._jdf.queryExecution().executedPlan()
        assert _exchanges_above_cache(plan) == 1
    finally:
        member_res.unpersist()


@pytest.mark.parametrize("variant", ["xgb", "cnn"])
def test_phase2_egos_straddling_arrow_batches(spark, phase2, variant):
    """With 5-row Arrow batches the Phase II pass carries most egos
    across batches; the Eq. 4 features must equal those of the default
    batch size, exactly for GBDT and within 1e-12 for CommCNN, whose
    BLAS sums may round differently with the batch's shape."""
    net, edges, member_df, labeled, *_ = phase2
    model = CC.train_community_model(
        labeled, variant=variant, k=10, cnn_epochs=2, gbdt_rounds=5
    )

    def features():
        return (
            EF.edge_features(CC.classify_communities(spark, member_df, model))
            .toPandas()
            .sort_values(["src", "dst"], ignore_index=True)
        )

    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    want = features()
    saved = spark.conf.get(key)
    try:
        spark.conf.set(key, 5)
        got = features()
    finally:
        spark.conf.set(key, saved)
    assert len(got) == net.n_edges
    pd.testing.assert_frame_equal(got[["src", "dst"]], want[["src", "dst"]])
    diff = np.abs(np.stack(got["features"]) - np.stack(want["features"])).max()
    assert diff == 0.0 if variant == "xgb" else diff <= 1e-12


def test_train_edge_model_and_classify(spark, setup):
    net, edges, member_df, comm_res, feats = setup
    train = net.edges[net.edges["label"].isin(MAJOR_TYPES)].sample(
        frac=0.5, random_state=0
    )
    fpdf = feats.join(
        spark.createDataFrame(train), on=["src", "dst"]
    ).toPandas()
    model = EF.train_edge_model(fpdf, epochs=100)
    pred = EF.classify_edges(spark, feats, model).toPandas()
    assert len(pred) == net.n_edges
    assert set(pred["pred"]).issubset(set(MAJOR_TYPES))
    probs = pred[[f"p_{t}" for t in MAJOR_TYPES]].to_numpy()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    # argmax consistency between probs and pred column
    am = probs.argmax(axis=1)
    assert all(MAJOR_TYPES[i] == p for i, p in zip(am, pred["pred"]))


def test_distributed_lr_matches_driver(spark, setup):
    net, edges, member_df, comm_res, feats = setup
    train = net.edges[net.edges["label"].isin(MAJOR_TYPES)].sample(
        frac=0.5, random_state=1
    )
    fpdf = feats.join(spark.createDataFrame(train), on=["src", "dst"]).toPandas()
    model = EF.train_edge_model(fpdf, epochs=50)
    dist = (
        EF.classify_edges(spark, feats, model)
        .toPandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    local_feats = feats.toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
    local = EF.predict_edges(model, local_feats)
    assert np.allclose(
        dist[CC.PROB_COLS].to_numpy(), local[CC.PROB_COLS].to_numpy(), atol=1e-9
    )
    assert dist["pred"].tolist() == local["pred"].tolist()


def test_edge_model_ignores_row_order(spark, setup):
    """Full-batch Adam's sums depend on row order, so the LR must not
    depend on the order in which Spark collected the labeled edges."""
    net, edges, member_df, comm_res, feats = setup
    train = net.edges[net.edges["label"].isin(MAJOR_TYPES)].sample(
        frac=0.5, random_state=2
    )
    fpdf = feats.join(spark.createDataFrame(train), on=["src", "dst"]).toPandas()
    X = np.stack([np.asarray(f) for f in fpdf["features"]])
    shuffled = fpdf.sample(frac=1.0, random_state=3)
    a = EF.train_edge_model(fpdf, epochs=50).predict_proba(X)
    b = EF.train_edge_model(shuffled, epochs=50).predict_proba(X)
    assert np.array_equal(a, b)
