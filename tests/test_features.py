"""Tests for Eq. 1 / Eq. 3 / Algorithm 1 — including the paper's own
worked tightness example from Fig. 7."""
import numpy as np
import pandas as pd
import pytest

from repro.core.features import (
    MATRIX_WIDTH,
    ROW_COLS,
    X_COLS,
    communities,
    eq1_eq3,
    mean_std,
    top_k_matrix,
)
from repro.socialnet.generator import INTERACTION_DIMS, USER_FEATURES


def _one_ego(members, comm_of, ego_edges):
    """:func:`eq1_eq3` on one ego network: ``members`` (isolated ones
    included), ``comm_of`` {member: community id}, and ``ego_edges``
    (src, dst, ``i_*``) among the members. One row per member: member,
    comm_id, comm_size, tightness, x_*."""
    members = np.asarray(members)
    comm_ids = np.array([comm_of[u] for u in members])
    node_idx = pd.Index(members)
    size, tight, x = eq1_eq3(
        np.unique(comm_ids, return_inverse=True)[1],
        node_idx.get_indexer(ego_edges["src"]),
        node_idx.get_indexer(ego_edges["dst"]),
        ego_edges[INTERACTION_DIMS].to_numpy(dtype=float),
    )
    return pd.DataFrame({
        "member": members, "comm_id": comm_ids, "comm_size": size, "tightness": tight,
        **dict(zip(X_COLS, x.T)),
    })


def _edges(rows):
    """rows: (src, dst, i_msg, ...) — remaining dims filled with 0."""
    recs = []
    for r in rows:
        rec = {"src": r[0], "dst": r[1]}
        for i, c in enumerate(INTERACTION_DIMS):
            rec[c] = r[2 + i] if len(r) > 2 + i else 0
        recs.append(rec)
    return pd.DataFrame(recs, columns=["src", "dst"] + INTERACTION_DIMS)


def paper_fig7_ego_network():
    """U1's ego network from paper Fig. 7: friends U2..U6, communities
    C1 = {U2, U3, U4}, C2 = {U5, U6}, plus the cross edge U4–U6."""
    members = np.array([2, 3, 4, 5, 6])
    edges = _edges([(2, 3), (2, 4), (3, 4), (5, 6), (4, 6)])
    comm_of = {2: 0, 3: 0, 4: 0, 5: 1, 6: 1}
    return members, comm_of, edges


def test_paper_tightness_example():
    members, comm_of, edges = paper_fig7_ego_network()
    f = _one_ego(members, comm_of, edges).set_index("member")
    # paper: tightness(U2, C1) = tightness(U3, C1) = 2/2 × 2/2 = 1
    assert f.loc[2, "tightness"] == pytest.approx(1.0)
    assert f.loc[3, "tightness"] == pytest.approx(1.0)
    # paper: tightness(U4, C1) = 2/3 × 2/2 = 0.67
    assert f.loc[4, "tightness"] == pytest.approx(2 / 3, abs=1e-9)


def test_tightness_cross_community_member():
    members, comm_of, edges = paper_fig7_ego_network()
    f = _one_ego(members, comm_of, edges).set_index("member")
    # U6 connects to U5 (in C2) and U4 (outside): 1/2 × 1/1 = 0.5
    assert f.loc[6, "tightness"] == pytest.approx(0.5)
    assert f.loc[5, "tightness"] == pytest.approx(1.0)


def test_singleton_community_tightness_one():
    members = np.array([1, 2, 3])
    comm_of = {1: 0, 2: 1, 3: 2}
    f = _one_ego(members, comm_of, _edges([])).set_index("member")
    assert (f["tightness"] == 1.0).all()  # Eq. 3 special case |C| = 1
    assert (f["comm_size"] == 1).all()


def test_interact_shares_hand_computed():
    """Eq. 1 on a 3-member community: member share = incident volume /
    community volume per dimension."""
    members = np.array([1, 2, 3])
    comm_of = {1: 0, 2: 0, 3: 0}
    # msg counts: (1,2)=4, (1,3)=2, (2,3)=0 → total 6
    edges = _edges([(1, 2, 4), (1, 3, 2), (2, 3, 0)])
    f = _one_ego(members, comm_of, edges).set_index("member")
    assert f.loc[1, "x_i_msg"] == pytest.approx(6 / 6)
    assert f.loc[2, "x_i_msg"] == pytest.approx(4 / 6)
    assert f.loc[3, "x_i_msg"] == pytest.approx(2 / 6)


def test_interact_zero_volume_dimension_is_zero():
    members = np.array([1, 2])
    comm_of = {1: 0, 2: 0}
    edges = _edges([(1, 2, 0)])  # all dims zero
    f = _one_ego(members, comm_of, edges)
    assert (f[X_COLS].to_numpy() == 0).all()


def test_interact_ignores_other_community_edges():
    """Volume from a different community must not leak into Eq. 1."""
    members = np.array([1, 2, 3, 4])
    comm_of = {1: 0, 2: 0, 3: 1, 4: 1}
    edges = _edges([(1, 2, 2), (3, 4, 8), (2, 3, 100)])  # cross edge loud
    f = _one_ego(members, comm_of, edges).set_index("member")
    assert f.loc[1, "x_i_msg"] == pytest.approx(1.0)  # 2/2
    assert f.loc[3, "x_i_msg"] == pytest.approx(1.0)  # 8/8


def test_member_rows_complete():
    members, comm_of, edges = paper_fig7_ego_network()
    f = _one_ego(members, comm_of, edges)
    assert sorted(f["member"]) == sorted(members)
    sizes = f.groupby("comm_id")["member"].transform("size")
    assert (f["comm_size"] == sizes).all()


def _comm_feats(n, seed=0):
    g = np.random.default_rng(seed)
    df = pd.DataFrame(g.random((n, len(X_COLS))), columns=X_COLS)
    for c in USER_FEATURES:
        df[c] = g.random(n)
    df["member"] = np.arange(n)
    df["tightness"] = g.random(n)
    return df


def _rows(df):
    """``df``'s members as a community's member array, in ``df``'s order."""
    return df[ROW_COLS].to_numpy(dtype=float)


def test_build_matrix_shape_and_padding():
    df = _comm_feats(5)
    m = top_k_matrix(_rows(df), k=8)
    assert m.shape == (8, MATRIX_WIDTH)
    assert (m[5:] == 0).all()  # zero-padded rows


def test_build_matrix_truncates_to_top_k():
    df = _comm_feats(30)
    m = top_k_matrix(_rows(df), k=10)
    assert m.shape == (10, MATRIX_WIDTH)
    kept = df.sort_values(["tightness", "member"], ascending=[False, True]).head(10)
    assert m[0] == pytest.approx(
        kept.iloc[0][X_COLS + USER_FEATURES].to_numpy(dtype=float)
    )


def test_build_matrix_sorted_by_tightness_desc():
    df = _comm_feats(6)
    df["tightness"] = [0.1, 0.9, 0.5, 0.9, 0.2, 0.0]
    m = top_k_matrix(_rows(df), k=6)
    order = df.sort_values(["tightness", "member"], ascending=[False, True])
    assert np.allclose(m, order[X_COLS + USER_FEATURES].to_numpy(dtype=float))


def test_build_matrix_tie_break_deterministic():
    df = _comm_feats(4)
    df["tightness"] = 0.5
    a = top_k_matrix(_rows(df), k=4)
    # communities() puts members back in member order, however they arrive
    shuffled = df.sample(frac=1.0, random_state=3).sort_values("member")
    b = top_k_matrix(_rows(shuffled), k=4)
    assert np.allclose(a, b)


def test_pooled_vector_mean_std():
    df = _comm_feats(7)
    v = mean_std(_rows(df))
    cols = X_COLS + USER_FEATURES
    expect = np.concatenate(
        [df[cols].mean().to_numpy(), df[cols].std(ddof=0).to_numpy()]
    )
    assert v == pytest.approx(expect)


def test_pooled_vector_width():
    assert len(mean_std(_rows(_comm_feats(3)))) == 2 * MATRIX_WIDTH


def test_communities_group_member_rows():
    """One row per (ego, comm_id), in that order, with its size, the
    per-community columns and the member array in member order, however
    the member rows arrive; ``comm_of`` maps each row to its community."""
    df = _comm_feats(6)
    df["ego"] = [7, 7, 3, 7, 3, 7]
    df["comm_id"] = [1, 0, 0, 1, 0, 1]
    df["comm_size"] = df.groupby(["ego", "comm_id"])["member"].transform("size")
    df["label"] = df["ego"].astype(str) + "/" + df["comm_id"].astype(str)
    rows = df.sample(frac=1.0, random_state=2).reset_index(drop=True)
    comms, comm_of = communities(rows)
    assert list(comms.columns) == ["ego", "comm_id", "size", "label", "rows"]
    assert comms[["ego", "comm_id", "size", "label"]].values.tolist() == [
        [3, 0, 2, "3/0"], [7, 0, 1, "7/0"], [7, 1, 3, "7/1"]
    ]
    for c in comms.itertuples():
        want = df[(df["ego"] == c.ego) & (df["comm_id"] == c.comm_id)]
        assert np.array_equal(c.rows, _rows(want.sort_values("member")))
    assert np.array_equal(comms["label"].to_numpy()[comm_of], rows["label"].to_numpy())
    empty, none = communities(rows.iloc[:0])
    assert empty.empty and len(none) == 0
