"""Tests for the planted-circle social-network generator."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro.socialnet.generator import (
    ALL_TYPES,
    COLLEAGUE,
    FAMILY,
    INTERACTION_DIMS,
    INTERACTION_RATES,
    MAJOR_TYPES,
    OTHER,
    SCHOOLMATE,
    USER_FEATURES,
    NetConfig,
    SocialNetwork,
    generate,
    to_spark,
)


@pytest.fixture(scope="module")
def net() -> SocialNetwork:
    return generate(NetConfig(n_nodes=1200, seed=7))


def test_node_count(net):
    assert net.n_nodes == 1200
    assert list(net.users["user_id"]) == list(range(1200))


def test_edges_canonical_orientation(net):
    assert (net.edges["src"] < net.edges["dst"]).all()


def test_edges_unique(net):
    assert not net.edges.duplicated(["src", "dst"]).any()


def test_edge_endpoints_in_range(net):
    assert net.edges[["src", "dst"]].to_numpy().max() < net.n_nodes
    assert net.edges[["src", "dst"]].to_numpy().min() >= 0


def test_labels_are_known_types(net):
    assert set(net.edges["label"]).issubset(set(ALL_TYPES))


def test_deterministic_in_seed():
    a = generate(NetConfig(n_nodes=300, seed=5))
    b = generate(NetConfig(n_nodes=300, seed=5))
    pd.testing.assert_frame_equal(a.edges, b.edges)
    pd.testing.assert_frame_equal(a.interactions, b.interactions)
    pd.testing.assert_frame_equal(a.users, b.users)


def test_different_seeds_differ():
    a = generate(NetConfig(n_nodes=300, seed=5))
    b = generate(NetConfig(n_nodes=300, seed=6))
    assert not a.edges.equals(b.edges)


def test_type_ratios_match_paper_table1(net):
    """Generator calibration: ratios near Table I (±6 points)."""
    ratios = net.edge_type_ratios()
    paper = {FAMILY: 0.28, COLLEAGUE: 0.41, SCHOOLMATE: 0.15, OTHER: 0.16}
    for t, expect in paper.items():
        assert abs(ratios[t] - expect) < 0.06, (t, ratios[t], expect)


def test_colleague_largest_major_type(net):
    ratios = net.edge_type_ratios()
    assert ratios[COLLEAGUE] == max(ratios[t] for t in MAJOR_TYPES)


def test_interaction_sparsity_near_sixty_percent(net):
    """Paper Sec. I: ~60% of pairs have zero interactions."""
    zero = (net.interactions[INTERACTION_DIMS].sum(axis=1) == 0).mean()
    assert 0.55 < zero < 0.70


def test_interactions_cover_every_edge(net):
    assert len(net.interactions) == net.n_edges
    merged = net.edges.merge(net.interactions, on=["src", "dst"])
    assert len(merged) == net.n_edges


def test_interaction_counts_nonnegative_ints(net):
    v = net.interactions[INTERACTION_DIMS].to_numpy()
    assert (v >= 0).all()
    assert np.issubdtype(v.dtype, np.integer)


def test_interaction_composition_follows_rates(net):
    """Active pairs of each type should echo the Fig.-3-shaped rates:
    colleagues like articles more than family; schoolmates interact on
    games more than both."""
    m = net.edges.merge(net.interactions, on=["src", "dst"])
    active = m[m[INTERACTION_DIMS].sum(axis=1) > 0]

    def mean_dim(t, col):
        sub = active[active["label"] == t]
        return sub[col].mean()

    assert mean_dim(COLLEAGUE, "i_like_art") > mean_dim(FAMILY, "i_like_art")
    assert mean_dim(SCHOOLMATE, "i_like_game") > mean_dim(FAMILY, "i_like_game")
    assert mean_dim(SCHOOLMATE, "i_com_game") > mean_dim(COLLEAGUE, "i_com_game")


def test_user_features_present_and_bounded(net):
    for c in USER_FEATURES:
        assert c in net.users.columns
        assert net.users[c].between(0, 1).all(), c


def test_every_user_in_a_household(net):
    fam = net.circles[net.circles["ctype"] == FAMILY]
    # partitioning drops <2-member remainders, so allow a small tail
    assert fam["user_id"].nunique() >= net.n_nodes * 0.98


def test_household_members_unique(net):
    fam = net.circles[net.circles["ctype"] == FAMILY]
    assert not fam.duplicated(["user_id"]).any()


def test_circle_sizes_within_config(net):
    cfg = net.config
    sizes = net.circles.groupby(["circle_id", "ctype"]).size().reset_index(name="n")
    fam = sizes[sizes["ctype"] == FAMILY]["n"]
    assert fam.min() >= 2 and fam.max() <= max(cfg.household_sizes)
    dept = sizes[sizes["ctype"] == COLLEAGUE]["n"]
    if len(dept):
        assert dept.max() <= cfg.dept_size_hi


def test_principal_type_priority():
    """An edge in both a family and a colleague circle is family."""
    # craft a tiny net where overlap is forced: everyone in one household
    cfg = NetConfig(
        n_nodes=6, seed=1, household_sizes=(6,), household_probs=(1.0,),
        p_family_edge=1.0, dept_membership_probs=(0.0, 1.0, 0.0),
        dept_size_lo=6, dept_size_hi=6, p_colleague_edge=1.0,
        p_school_member=0.0, other_edges_per_node=0.0,
        p_guest={FAMILY: 0.0, COLLEAGUE: 0.0, SCHOOLMATE: 0.0},
    )
    net = generate(cfg)
    assert (net.edges["label"] == FAMILY).all()


def test_family_circles_share_city_often(net):
    fam = net.circles[net.circles["ctype"] == FAMILY].merge(
        net.users, on="user_id"
    )
    # households dominated by one city value (0.55 stay prob → modal share > random)
    modal = fam.groupby("circle_id")["f_city"].agg(lambda s: s.value_counts().iloc[0] / len(s))
    assert modal.mean() > 0.5


def test_schoolmates_share_age_cohort(net):
    cls = net.circles[net.circles["ctype"] == SCHOOLMATE].merge(net.users, on="user_id")
    spread = cls.groupby("circle_id")["f_age"].std().mean()
    overall = net.users["f_age"].std()
    assert spread < overall / 2


def test_guest_edges_labeled_other():
    """With guests forced on and no random ties, other-edges exist and
    attach a high-degree outsider to one circle."""
    cfg = NetConfig(
        n_nodes=40, seed=3, other_edges_per_node=0.0,
        p_guest={FAMILY: 1.0, COLLEAGUE: 1.0, SCHOOLMATE: 1.0},
    )
    net = generate(cfg)
    assert (net.edges["label"] == OTHER).sum() > 0


def test_rates_table_covers_all_types():
    assert set(INTERACTION_RATES) == set(ALL_TYPES)
    for t, r in INTERACTION_RATES.items():
        assert len(r) == len(INTERACTION_DIMS)


def test_to_spark_roundtrip(spark, net):
    edges, inter, users = to_spark(spark, net)
    assert edges.count() == net.n_edges
    assert inter.count() == net.n_edges
    assert users.count() == net.n_nodes
    assert set(inter.columns) == {"src", "dst", *INTERACTION_DIMS}


def _digest(df: pd.DataFrame) -> str:
    """sha256 of a frame's index kind and length, column order, dtypes
    and values."""
    h = hashlib.sha256(f"{type(df.index).__name__} {len(df)}\n".encode())
    for c in df.columns:
        col = df[c].to_numpy()
        h.update(f"{c} {col.dtype}\n".encode())
        h.update("\n".join(col).encode() if col.dtype == object else col.tobytes())
    return h.hexdigest()


LARGE_CIRCLES = {"dept_size_lo": 20, "dept_size_hi": 24, "class_size_lo": 20, "class_size_hi": 24}


@pytest.mark.parametrize("cfg,want", [
    (NetConfig(n_nodes=300, seed=1), {
        "edges": "c0b7de1cc75e0a30eba32f0ecfba34a99215f06aa66c904fec06f81928c7614d",
        "users": "1fc17dca112465b6403f8e14c79a8b701b66b3bc1f4e190d5020202448088618",
        "interactions": "3e2b35eb04c97f93a296b30ce43caea0f7260a4143acc613b4e92232cb4a6108",
        "circles": "e3a9465a68b4d6522c66e4d3e134b9fc9812ccdfa086777fab162b8b7bc5c769",
    }),
    (NetConfig(n_nodes=200, seed=1, **LARGE_CIRCLES), {
        "edges": "ec0c5e0f6de94db08b6b84a61b4b227f8ff8825deec18eefaf175c32d8ae44f9",
        "users": "ed4c550f1d293a9c725a68144b72d734e30ab4aeb87aadeb5063aad20d0d190c",
        "interactions": "f323b850ddf46afe64891a29b0c6ea0d06c163d0a2321c131298f685534fa156",
        "circles": "7bfd69f2d782ad36dcdac0d026288d750a84b2ae7ee2b157dd22a4fe110593b6",
    }),
], ids=["default_n300", "large_circles_n200"])
def test_generated_frames_are_golden(cfg, want):
    """The four frames are byte-identical to the ones recorded from the
    per-circle DataFrame generator that the array one replaced (same RNG
    draws, values, dtypes and column order), so a rewrite cannot change
    the data silently."""
    net = generate(cfg)
    assert {f: _digest(getattr(net, f)) for f in want} == want
