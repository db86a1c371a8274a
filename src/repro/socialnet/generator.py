"""Synthetic social network with planted relationship circles.

This is the repo's stand-in for the WeChat graph used in the paper
(Section II / V). Real WeChat data is proprietary; we generate a network
that plants the three structural facts the paper's method exploits:

1. Users belong to *circles* — households (family), company departments
   (colleague), school classes (schoolmate) — and edges inside a circle
   are dense while cross-circle edges are rare random "other" ties.
   Hence, inside an ego network, friends of the same type cluster
   together (paper Fig. 5).
2. Pairwise interaction counts are *type-indicative* (family pairs like
   and comment on pictures, colleagues on articles, schoolmates on
   games — paper Fig. 3) but *sparse*: ~60% of connected pairs have
   zero interactions over the observation window (paper Section I).
3. Survey first-category ratios approximate Table I
   (family 28% / colleague 41% / schoolmate 15% / other 16%).

Everything is deterministic in ``seed``. Generation runs in numpy on
the driver (the network is the *input* of the reproduced system; the
contribution under test is the Spark dataflow that consumes it): each
circle, guest and the residual ties add one block of edge arrays, and
each pandas frame is built once from the concatenated arrays. The
frames are exported to Spark via :func:`to_spark`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

# Relationship type labels (paper focuses on the three major types; the
# residual "other" ties exist in the graph but are not classification
# targets in Tables IV/V).
FAMILY = "family"
COLLEAGUE = "colleague"
SCHOOLMATE = "schoolmate"
OTHER = "other"
MAJOR_TYPES = [COLLEAGUE, FAMILY, SCHOOLMATE]  # fixed class order everywhere
LABEL_TO_IDX = {t: i for i, t in enumerate(MAJOR_TYPES)}  # class index of a label
ALL_TYPES = MAJOR_TYPES + [OTHER]

# Interaction dimensions |I| = 8 (paper: messaging, liking/commenting on
# moments of three content categories, reposting).
INTERACTION_DIMS = [
    "i_msg",
    "i_like_pic",
    "i_like_art",
    "i_like_game",
    "i_com_pic",
    "i_com_art",
    "i_com_game",
    "i_repost",
]

# Per-type mean interaction counts over the 30-day window, shaped after
# paper Fig. 3: family pairs concentrate on pictures, colleagues on
# articles, schoolmates have the highest game affinity. The major
# dimensions overlap heavily across types on purpose — a single pair's
# counts are ambiguous (plus the per-pair intensity noise below), and
# the type signal lives mostly in *which* minor dimensions are active,
# which only becomes reliable after community-level aggregation. That
# reproduces the paper's finding that raw pairwise features are too
# sparse/noisy for direct classification (Table IV: XGBoost worst).
INTERACTION_RATES = {
    FAMILY: [2.8, 2.4, 0.20, 0.05, 1.5, 0.15, 0.05, 0.30],
    COLLEAGUE: [2.5, 2.0, 1.30, 0.10, 1.2, 1.00, 0.05, 0.45],
    SCHOOLMATE: [2.3, 2.2, 0.90, 0.90, 1.2, 0.60, 0.70, 0.35],
    OTHER: [0.4, 0.3, 0.15, 0.10, 0.15, 0.10, 0.05, 0.10],
}

#: per-pair lognormal intensity spread (σ): some pairs chat constantly,
#: others barely — magnitude alone is not type-indicative.
PAIR_INTENSITY_SIGMA = 0.9

# User-feature columns |f| = 4.
USER_FEATURES = ["f_gender", "f_age", "f_activity", "f_city"]


@dataclass
class NetConfig:
    """Knobs of the planted-circle generator.

    Defaults are calibrated so the measured edge-type ratios land near
    Table I's survey ratios (family 28%, colleague 41%, schoolmate 15%,
    other 16%) — see ``tests/test_generator.py`` and
    ``jobs/table1_survey.py`` for the measured values.
    """

    n_nodes: int = 1000
    seed: int = 7
    # households = extended-kin circles (WeChat "family" includes kin
    # and in-laws, Table I), sizes 3..10; everyone is in exactly one
    household_sizes: tuple = (3, 4, 5, 6, 7)
    household_probs: tuple = (0.30, 0.30, 0.20, 0.12, 0.08)
    p_family_edge: float = 0.85
    # departments: users join 0/1/2 depts (past + current colleagues)
    dept_membership_probs: tuple = (0.30, 0.45, 0.25)
    dept_size_lo: int = 7
    dept_size_hi: int = 15
    p_colleague_edge: float = 0.45
    # school classes: users join 0/1 class
    p_school_member: float = 0.35
    class_size_lo: int = 7
    class_size_hi: int = 13
    p_schoolmate_edge: float = 0.55
    # residual random ties per node (guest edges also land in "other",
    # so this stays small to keep Table I's ~16% "other" share)
    other_edges_per_node: float = 0.28
    # guests: outsiders absorbed into a circle (the paper's Sec. V-C
    # "tour guide" impurity). A guest connects to most circle members
    # and chats along with the group, but their true relationship to
    # the members is "other" and their profile features are unrelated.
    p_guest: dict | None = None  # per-ctype prob of guests joining
    guest_attach: float = 0.45   # fraction of circle members a guest befriends
    guest_rate_scale: float = 0.8  # guests chat along at 0.8× circle rates

    def guest_prob(self, ctype: str) -> float:
        default = {FAMILY: 0.25, COLLEAGUE: 0.60, SCHOOLMATE: 0.50}
        return (self.p_guest or default)[ctype]
    # fraction of connected pairs whose interactions are masked to zero
    p_zero_interaction: float = 0.60


@dataclass
class SocialNetwork:
    """The generated network, as pandas frames plus the circle roster.

    ``edges`` has one row per undirected edge with ``src < dst`` and the
    ground-truth ``label``.  ``interactions`` holds the 8 interaction
    counters for every edge (zero rows included so tests can reason
    about sparsity explicitly).  ``circles`` is the planted roster used
    by the chat-group simulator and by tests that check community
    recovery.
    """

    config: NetConfig
    users: pd.DataFrame  # user_id, f_gender, f_age, f_activity, f_city
    edges: pd.DataFrame  # src, dst, label
    interactions: pd.DataFrame  # src, dst, i_* (8 cols)
    circles: pd.DataFrame  # circle_id, ctype, user_id
    rng_state: int = field(default=0, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.users)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_type_ratios(self) -> pd.Series:
        """Fraction of edges per ground-truth label (drives Table I)."""
        return self.edges["label"].value_counts(normalize=True)


def _partition_into_circles(
    members: np.ndarray, lo: int, hi: int, g: np.random.Generator
) -> list[np.ndarray]:
    """Split ``members`` into contiguous chunks of size U[lo, hi]."""
    g.shuffle(members)
    out, i = [], 0
    while i < len(members):
        size = int(g.integers(lo, hi + 1))
        chunk = members[i : i + size]
        if len(chunk) >= 2:
            out.append(chunk)
        i += size
    return out


def _circle_edges(
    circle: np.ndarray, p: float, g: np.random.Generator
) -> np.ndarray:
    """Sample intra-circle edges: each unordered pair kept with prob p."""
    a, b = np.triu_indices(len(circle), k=1)
    keep = g.random(len(a)) < p
    return np.stack([circle[a[keep]], circle[b[keep]]], axis=1)


def _circle_rates(ctype: str, circle: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per-edge interaction rate vectors with a *coreness gradient*.

    How a member interacts inside a circle correlates with how central
    they are in it, and the shape of that correlation is type-specific:
    core colleagues discuss articles while peripheral ones only
    message; games concentrate in the core clique of a class; families
    interact uniformly regardless of centrality. Mean/std pooling
    never sees member centrality, but the tightness-sorted feature
    matrix exposes the gradient positionally — this is the information
    the paper's CommCNN exploits over the XGBoost pooling variant
    ("taking the mean and deviation reduces the information contained
    in the feature matrix", Sec. IV-B.2).
    """
    base = np.array(INTERACTION_RATES[ctype], dtype=float)
    rates = np.tile(base, (len(e), 1))
    if len(e) == 0 or ctype == FAMILY:
        return rates
    # each endpoint's degree inside the circle
    ends = np.unique(e, return_inverse=True)[1].reshape(e.shape)
    deg = np.bincount(ends.ravel())[ends]
    avgc = (deg[:, 0] + deg[:, 1]) / (2.0 * max(len(circle) - 1, 1))
    if ctype == COLLEAGUE:
        # articles flow among the core, messaging dominates the fringe
        rates[:, 2] *= 0.35 + 1.3 * avgc  # i_like_art
        rates[:, 5] *= 0.35 + 1.3 * avgc  # i_com_art
        rates[:, 0] *= 1.35 - 0.7 * avgc  # i_msg
    elif ctype == SCHOOLMATE:
        # the gaming clique sits in the core of the class
        rates[:, 3] *= 0.25 + 1.5 * avgc  # i_like_game
        rates[:, 6] *= 0.25 + 1.5 * avgc  # i_com_game
    return rates


def generate(config: NetConfig | None = None) -> SocialNetwork:
    """Generate a planted-circle social network (deterministic in seed)."""
    cfg = config or NetConfig()
    g = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    user_ids = np.arange(n, dtype=np.int64)

    # --- circles -----------------------------------------------------
    circles: list[tuple[str, np.ndarray]] = []

    # households: partition everyone
    sizes = np.asarray(cfg.household_sizes)
    probs = np.asarray(cfg.household_probs, dtype=float)
    probs = probs / probs.sum()
    members = user_ids.copy()
    g.shuffle(members)
    i = 0
    while i < n:
        size = int(g.choice(sizes, p=probs))
        chunk = members[i : i + size]
        if len(chunk) >= 2:
            circles.append((FAMILY, chunk))
        i += size

    # departments: 0/1/2 memberships per user
    k_dept = g.choice([0, 1, 2], size=n, p=np.asarray(cfg.dept_membership_probs))
    dept_pool = np.concatenate([np.repeat(user_ids, k_dept)])
    for chunk in _partition_into_circles(dept_pool, cfg.dept_size_lo, cfg.dept_size_hi, g):
        # a user drawn twice could land twice in the same dept; dedupe
        circles.append((COLLEAGUE, np.unique(chunk)))

    # school classes: 0/1 membership
    school_pool = user_ids[g.random(n) < cfg.p_school_member].copy()
    for chunk in _partition_into_circles(school_pool, cfg.class_size_lo, cfg.class_size_hi, g):
        circles.append((SCHOOLMATE, chunk))

    # --- edges -------------------------------------------------------
    p_by_type = {
        FAMILY: cfg.p_family_edge,
        COLLEAGUE: cfg.p_colleague_edge,
        SCHOOLMATE: cfg.p_schoolmate_edge,
    }
    prio = {FAMILY: 0, COLLEAGUE: 1, SCHOOLMATE: 2, OTHER: 3}
    # one (src, dst, priority, rates) block per circle, guest and the
    # residual ties, concatenated once
    blocks = []

    def _block(src, dst, label, rates):
        blocks.append((src, dst, np.full(len(src), prio[label]), rates))

    for ctype, members_ in circles:
        e = _circle_edges(members_, p_by_type[ctype], g)
        if len(e):
            _block(e[:, 0], e[:, 1], ctype, _circle_rates(ctype, members_, e))
        # guests (tour-guide impurity): an outsider who befriends most
        # of the circle and chats along, but is truly an "other" tie
        # with unrelated profile features
        if g.random() < cfg.guest_prob(ctype):
            n_guests = 1 + int(g.random() < 0.5)
            for _ in range(n_guests):
                guest = int(g.integers(0, n))
                if (members_ == guest).any():
                    continue
                n_att = max(2, int(np.ceil(cfg.guest_attach * len(members_))))
                att = g.choice(members_, size=min(n_att, len(members_)), replace=False)
                grates = cfg.guest_rate_scale * np.array(INTERACTION_RATES[ctype])
                _block(np.full(len(att), guest), att, OTHER, np.tile(grates, (len(att), 1)))

    n_other = int(cfg.other_edges_per_node * n)
    oa = g.integers(0, n, n_other)
    ob = g.integers(0, n, n_other)
    mask = oa != ob
    _block(oa[mask], ob[mask], OTHER,
           np.tile(INTERACTION_RATES[OTHER], (int(mask.sum()), 1)))

    src, dst, pri, rates = (np.concatenate(c) for c in zip(*blocks))
    src, dst = np.minimum(src, dst), np.maximum(src, dst)
    # principal-type rule (paper Sec. III): an edge arising in several
    # circles keeps its principal type — family > colleague > schoolmate
    # > other: a stable sort by (src, dst, priority) keeps each pair's
    # first row
    order = np.lexsort((pri, dst, src))
    src, dst = src[order], dst[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    keep = order[first]
    labels = np.array(list(prio), dtype=object)  # the label of each priority
    edges = pd.DataFrame({"src": src[first], "dst": dst[first], "label": labels[pri[keep]]})
    rates = rates[keep]

    # --- user features ----------------------------------------------
    age = g.uniform(18, 70, n)
    # schoolmates share an age cohort; overwrite class members' ages
    for ctype, members_ in circles:
        if ctype == SCHOOLMATE:
            cohort = g.uniform(18, 45)
            age[members_] = np.clip(cohort + g.normal(0, 2.5, len(members_)), 15, 80)
    city = g.integers(0, 20, n).astype(float)
    # households *tend* to share a city (family locality, with movers)
    for ctype, members_ in circles:
        if ctype == FAMILY:
            stay = members_[g.random(len(members_)) < 0.55]
            city[stay] = city[members_[0]]
    users = pd.DataFrame(
        {
            "user_id": user_ids,
            "f_gender": g.integers(0, 2, n).astype(float),
            "f_age": (age / 80.0).round(4),
            "f_activity": g.random(n).round(4),
            "f_city": (city / 20.0).round(4),
        }
    )

    # --- interactions ------------------------------------------------
    intensity = g.lognormal(0.0, PAIR_INTENSITY_SIGMA, len(edges))
    counts = g.poisson(rates * intensity[:, None]).astype(np.int64)
    # sparsity mask: ~60% of connected pairs have zero interactions
    zero = g.random(len(edges)) < cfg.p_zero_interaction
    counts[zero] = 0
    interactions = pd.DataFrame({
        "src": edges["src"].to_numpy(),
        "dst": edges["dst"].to_numpy(),
        **dict(zip(INTERACTION_DIMS, counts.T)),
    })

    sizes = [len(members_) for _, members_ in circles]
    circles_df = pd.DataFrame({
        "circle_id": np.repeat(np.arange(len(circles), dtype=np.int64), sizes),
        "ctype": np.repeat(np.array([c for c, _ in circles], dtype=object), sizes),
        "user_id": np.concatenate([m for _, m in circles]).astype(np.int64),
    })

    return SocialNetwork(
        config=cfg,
        users=users,
        edges=edges,
        interactions=interactions,
        circles=circles_df,
    )


def to_spark(
    spark: SparkSession, net: SocialNetwork
) -> tuple[DataFrame, DataFrame, DataFrame]:
    """Export (edges, interactions, users) as Spark DataFrames."""
    edges = spark.createDataFrame(net.edges)
    inter = spark.createDataFrame(net.interactions)
    users = spark.createDataFrame(net.users)
    return edges, inter, users
