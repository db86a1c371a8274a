"""Tests for Phase II: community labels, train + distributed inference
over the member rows."""
import numpy as np
import pandas as pd
import pytest

from repro.core import comm_classify as CC
from repro.core import features as FT
from repro.core.communities import member_features
from repro.oracle import assert_equivalent
from repro.socialnet.generator import MAJOR_TYPES, NetConfig, generate, to_spark


@pytest.fixture(scope="module")
def setup(spark):
    net = generate(NetConfig(n_nodes=250, seed=29))
    edges, inter, users = to_spark(spark, net)
    member_df = member_features(spark, edges, inter, users).cache()
    member_df.count()
    labeled_edges = spark.createDataFrame(
        net.edges[net.edges["label"].isin(MAJOR_TYPES)]
    )
    labeled = CC.labeled_communities(member_df, labeled_edges)
    comms, _ = FT.communities(member_df.toPandas())
    return net, member_df, labeled, comms


def test_community_labels_majority(spark, setup):
    net, member_df, labeled, comms = setup
    labeled_edges = spark.createDataFrame(
        net.edges[net.edges["label"].isin(MAJOR_TYPES)]
    )
    labels = CC.community_labels(member_df, labeled_edges).toPandas()
    assert set(labels["label"]).issubset(set(MAJOR_TYPES))
    # oracle: recompute majority vote in SQL (ties broken by label asc)
    assert_equivalent(
        spark.createDataFrame(labels),
        """
        WITH sides AS (
            SELECT src AS ego, dst AS member, label FROM le
            UNION ALL SELECT dst AS ego, src AS member, label FROM le
        ), votes AS (
            SELECT m.ego, m.comm_id, s.label, count(*) AS n
            FROM m JOIN sides s ON s.ego = m.ego AND s.member = m.member
            GROUP BY m.ego, m.comm_id, s.label
        ), ranked AS (
            SELECT ego, comm_id, label,
                   row_number() OVER (PARTITION BY ego, comm_id
                                      ORDER BY n DESC, label ASC) AS rk,
                   sum(n) OVER (PARTITION BY ego, comm_id) AS n_votes
            FROM votes
        )
        SELECT ego, comm_id, label, n_votes FROM ranked WHERE rk = 1
        """,
        le=net.edges[net.edges["label"].isin(MAJOR_TYPES)],
        m=member_df.select("ego", "member", "comm_id").toPandas(),
    )


@pytest.mark.parametrize("variant", ["xgb", "cnn"])
def test_train_and_distributed_inference_agree(spark, setup, variant):
    """The ego-by-ego mapInPandas pass with broadcast weights must give
    every member row what a driver-side predict of its community gives."""
    net, member_df, labeled, comms = setup
    model = CC.train_community_model(
        labeled, variant=variant, k=10, seed=0, cnn_epochs=3, gbdt_rounds=5
    )
    dist = (
        CC.classify_communities(spark, member_df, model)
        .toPandas()
        .sort_values(["ego", "member"], ignore_index=True)
    )
    local = (
        member_df.select("ego", "member", "comm_id", "tightness").toPandas()
        .merge(CC.predict_communities(model, comms), on=["ego", "comm_id"])
        .sort_values(["ego", "member"], ignore_index=True)
    )
    assert len(dist) == 2 * net.n_edges
    cols = ["ego", "member", "tightness"]
    pd.testing.assert_frame_equal(dist[cols], local[cols], check_exact=True)
    assert np.allclose(
        dist[CC.PROB_COLS].to_numpy(), local[CC.PROB_COLS].to_numpy(), atol=1e-9
    )
    # embeddings agree too (r^C used by Phase III)
    for a, b in zip(dist["emb"], local["emb"]):
        assert np.allclose(np.asarray(a), np.asarray(b), atol=1e-9)


@pytest.mark.parametrize("variant", ["xgb", "cnn"])
def test_predict_members_ignores_member_order(setup, variant):
    """Every member gets the same results, bit for bit, whatever order
    its ego's member rows come in."""
    net, member_df, labeled, comms = setup
    model = CC.train_community_model(
        labeled, variant=variant, k=10, seed=0, cnn_epochs=3, gbdt_rounds=5
    )
    pdf = member_df.toPandas()
    shuffled = pdf.sample(frac=1.0, random_state=7).sort_values("ego", kind="stable")
    assert not np.array_equal(shuffled["member"], pdf["member"])
    got, want = (
        CC.predict_members(model, p).sort_values(["ego", "member"], ignore_index=True)
        for p in (shuffled, pdf)
    )
    pd.testing.assert_frame_equal(got, want, check_exact=True)


@pytest.mark.parametrize("variant", ["xgb", "cnn"])
def test_training_ignores_row_order(spark, setup, variant):
    """The model must not depend on the order Spark collects rows in."""
    net, member_df, labeled, comms = setup

    def probs(frame):
        model = CC.train_community_model(
            frame, variant=variant, k=10, seed=0, cnn_epochs=3, gbdt_rounds=5
        )
        return CC.predict_communities(model, labeled)[CC.PROB_COLS]

    shuffled = labeled.sample(frac=1.0, random_state=5)
    assert np.array_equal(probs(labeled).to_numpy(), probs(shuffled).to_numpy())


def test_probs_are_distributions(spark, setup):
    net, member_df, labeled, comms = setup
    model = CC.train_community_model(labeled, variant="xgb", k=10, gbdt_rounds=5)
    out = CC.classify_communities(spark, member_df, model).toPandas()
    s = out[CC.PROB_COLS].sum(axis=1)
    assert np.allclose(s, 1.0, atol=1e-6)


def test_empty_train_set_fails_clearly():
    empty = pd.DataFrame(columns=["ego", "comm_id", "size", "rows", "label"])
    for variant in ("xgb", "cnn"):
        with pytest.raises(ValueError, match="no community has a train label"):
            CC.train_community_model(empty, variant=variant, k=10)


def test_label_to_idx_fixed_order():
    assert CC.LABEL_TO_IDX == {"colleague": 0, "family": 1, "schoolmate": 2}
