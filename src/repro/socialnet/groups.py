"""Chat groups and the rule-based group-name miner (paper Table II).

The paper observes that WeChat group names are occasionally indicative
of the members' relationship ("Class X in X Middle School", "X
Department in X Company") and that a rule matcher over such names gets
precision > 0.7 at recall < 0.02, because (a) the vast majority of
groups carry uninformative names and (b) ~20% of friend pairs share no
common group at all.

We simulate that regime: each planted circle spawns a chat group with
probability ``p_group_per_circle``; a *small* fraction of those groups
get a type-indicative name, the rest get generic names; groups admit a
couple of random "guest" members (the tour-guide effect, paper Sec.
V-C) so that indicative-name predictions are not trivially perfect.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.ml.metrics import prf_table
from repro.socialnet.generator import COLLEAGUE, FAMILY, SCHOOLMATE, SocialNetwork

# name-fragment pools for generic (non-indicative) group names
_GENERIC_WORDS = [
    "Weekend", "Hiking", "Besties", "Dinner", "Crew", "Squad", "Travel",
    "Poker", "Badminton", "Foodies", "Neighbors", "Gym", "Book", "Club",
    "Friends", "Party", "Karaoke", "Fishing", "Running", "Tea",
]

_INDICATIVE_TEMPLATES = {
    FAMILY: "{} Family Group",
    COLLEAGUE: "{} Department {} Company",
    SCHOOLMATE: "Class {} {} Middle School",
}

# the rule miner's patterns (mirrors the paper's name-matching rules)
_RULES = [
    (FAMILY, re.compile(r"\bFamily\b", re.IGNORECASE)),
    (COLLEAGUE, re.compile(r"\b(Department|Company|Corp)\b", re.IGNORECASE)),
    (SCHOOLMATE, re.compile(r"\b(Class|School|University)\b", re.IGNORECASE)),
]


@dataclass
class GroupConfig:
    seed: int = 11
    p_group_per_circle: float = 0.70  # circles without a group → no-common-group pairs
    p_member_in_group: float = 0.85  # subset membership
    p_indicative_name: dict | None = None  # per-type prob of an indicative name
    n_guests_lo: int = 1  # random outsiders per group (in-laws, partners,
    n_guests_hi: int = 4  # plus-ones) — the source of rule-mining FPs

    def indicative(self, ctype: str) -> float:
        default = {FAMILY: 0.025, COLLEAGUE: 0.012, SCHOOLMATE: 0.030}
        return (self.p_indicative_name or default)[ctype]


def make_groups(net: SocialNetwork, cfg: GroupConfig | None = None) -> pd.DataFrame:
    """Create chat groups from planted circles.

    Group membership = a subset of the circle, PLUS outsiders who are
    friends with many circle members (the generator's absorbed guests —
    the tour guide *is* in the group chat), PLUS a couple of random
    plus-ones. The befriended outsiders are what gives the rule miner
    its sub-1.0 precision, as in paper Table II.

    Returns one row per (group_id, user_id) membership, with the group
    ``name`` and the source circle's type repeated on each row.
    """
    cfg = cfg or GroupConfig()
    g = np.random.default_rng(cfg.seed)
    n = net.n_nodes
    # adjacency for finding circle-attached outsiders
    nbrs: dict = {}
    for s, d in net.edges[["src", "dst"]].itertuples(index=False):
        nbrs.setdefault(int(s), set()).add(int(d))
        nbrs.setdefault(int(d), set()).add(int(s))
    rows = []
    gid = 0
    for (cid, ctype), grp in net.circles.groupby(["circle_id", "ctype"], sort=True):
        if g.random() >= cfg.p_group_per_circle:
            continue
        members = grp["user_id"].to_numpy()
        keep = members[g.random(len(members)) < cfg.p_member_in_group]
        if len(keep) < 2:
            continue
        # outsiders befriended by ≥ a third of the circle join the chat
        mset = set(int(m) for m in members)
        counts: dict = {}
        for m in mset:
            for x in nbrs.get(m, ()):  # noqa: B905
                if x not in mset:
                    counts[x] = counts.get(x, 0) + 1
        attached = np.array(
            [x for x, c in sorted(counts.items()) if c >= max(2, len(mset) / 3)],
            dtype=np.int64,
        )
        guests = g.integers(0, n, int(g.integers(cfg.n_guests_lo, cfg.n_guests_hi)))
        all_members = np.unique(np.concatenate([keep, attached, guests]))
        if g.random() < cfg.indicative(ctype):
            w = g.choice(_GENERIC_WORDS, 2, replace=False)
            name = _INDICATIVE_TEMPLATES[ctype].format(*w)
        else:
            w = g.choice(_GENERIC_WORDS, 2, replace=False)
            name = f"{w[0]} {w[1]}"
        rows.extend(
            {"group_id": gid, "name": name, "ctype": ctype, "user_id": int(u)}
            for u in all_members
        )
        gid += 1
    return pd.DataFrame(rows, columns=["group_id", "name", "ctype", "user_id"])


def classify_name(name: str) -> str | None:
    """Apply the rule miner to one group name; None when no rule fires."""
    for label, pat in _RULES:
        if pat.search(name):
            return label
    return None


def rule_mine_pairs(groups: pd.DataFrame) -> pd.DataFrame:
    """Predict relationship types for friend pairs from group names.

    For every group whose name matches a rule, every unordered member
    pair inherits the predicted type (the paper's rule-based mining).
    Returns (src, dst, pred) with src < dst, deduplicated; if a pair
    occurs in several indicative groups, keep the first prediction.
    """
    preds = []
    for (gid, name), grp in groups.groupby(["group_id", "name"], sort=True):
        label = classify_name(name)
        if label is None:
            continue
        m = np.sort(grp["user_id"].to_numpy())
        a, b = np.triu_indices(len(m), k=1)
        preds.append(pd.DataFrame({"src": m[a], "dst": m[b], "pred": label}))
    if not preds:
        return pd.DataFrame(columns=["src", "dst", "pred"])
    out = pd.concat(preds, ignore_index=True)
    return out.drop_duplicates(["src", "dst"], keep="first").reset_index(drop=True)


def group_name_table(net: SocialNetwork, cfg: GroupConfig | None = None) -> pd.DataFrame:
    """Reproduce Table II: per-type precision/recall/F1 of the rule miner.

    Evaluated against the ground-truth edge labels over *all* friend
    pairs (predictions on non-friend pairs are dropped, mirroring the
    paper's friend-pair evaluation universe).
    """
    groups = make_groups(net, cfg)
    preds = rule_mine_pairs(groups)
    truth = net.edges[["src", "dst", "label"]]
    merged = truth.merge(preds, on=["src", "dst"], how="left")
    types = [FAMILY, COLLEAGUE, SCHOOLMATE]
    return prf_table(merged["label"], merged["pred"], types).iloc[: len(types)]
