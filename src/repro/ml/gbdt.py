"""Multiclass gradient-boosted decision trees — the XGBoost stand-in.

No xgboost wheel is available offline, so this module implements the
same algorithm family from scratch: second-order boosting with a
softmax objective, one regression tree per class per round, exact
greedy splits, and XGBoost's leaf weight ``-G/(H+λ)`` and split gain.

As in XGBoost's column blocks (Chen & Guestrin, KDD 2016, Sec. 4.1),
``fit`` sorts every feature once; each node's per-feature sample order
is its parent's, filtered stably by the split, and one cumulative sum
scores every split of every feature at once. The builder grows each
tree straight into the model's arrays and writes each leaf's value for
its samples as it places them, so boosting never re-walks a tree.

Each tree is stored as heap-ordered arrays: node ``i`` has children
``2i+1`` and ``2i+2``, ``feature == -1`` marks a leaf, and a sample
goes left when ``x[feature] < threshold`` (so NaN goes right). A fitted
:class:`GBDT` is three ``(rounds·classes, 2^(max_depth+1)−1)`` arrays,
shipped to Spark executors through :meth:`GBDT.get_params` like every
other model, and all its trees are walked at once, level by level.

It also exposes :meth:`GBDT.leaf_values` — the per-tree leaf scores of
a sample, concatenated across rounds and classes. LoCEC-XGB (paper
Sec. IV-C) uses these as the community embedding ``r^C`` fed to the
Phase III logistic regression (the Facebook GBDT+LR trick, paper ref
[22]).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.logreg import softmax

LEARNING_RATE = 0.3
REG_LAMBDA = 1.0
GAMMA = 0.0
MIN_CHILD_WEIGHT = 1.0


def _n_nodes(max_depth: int) -> int:
    return 2 ** (max_depth + 1) - 1


def _walk(feature, threshold, value, X, max_depth) -> np.ndarray:
    """(len(X), n_trees) leaf value of every sample in every tree."""
    trees = np.arange(len(feature))
    rows = np.arange(len(X))[:, None]
    node = np.zeros((len(X), len(feature)), dtype=np.int64)
    for _ in range(max_depth):
        f = feature[trees, node]
        right = ~(X[rows, np.maximum(f, 0)] < threshold[trees, node])
        node = np.where(f < 0, node, 2 * node + 1 + right)
    return value[trees, node]


def _best_split(xs, g, h, G, H):
    """Exact greedy split of one node, over all its features at once.

    Row ``f`` of ``xs``, ``g`` and ``h`` lists the node's samples in
    ascending order of feature ``f``; ``G`` and ``H`` are the node's
    sums. Returns ``(feature, threshold, gain)`` at the largest gain:
    the first feature holding it, at that feature's first position.
    """
    base = G * G / (H + REG_LAMBDA)
    Gl = np.cumsum(g, axis=1)[:, :-1]
    Hl = np.cumsum(h, axis=1)[:, :-1]
    Gr, Hr = G - Gl, H - Hl
    valid = (xs[:, 1:] != xs[:, :-1]) & (Hl >= MIN_CHILD_WEIGHT) & (
        Hr >= MIN_CHILD_WEIGHT
    )
    gain = 0.5 * (
        Gl**2 / (Hl + REG_LAMBDA) + Gr**2 / (Hr + REG_LAMBDA) - base
    ) - GAMMA
    gain[~valid] = -np.inf
    f, i = np.unravel_index(np.argmax(gain), gain.shape)  # feature-major
    return int(f), (xs[f, i] + xs[f, i + 1]) / 2, gain[f, i]


def _grow(tree, X, order, idx, g, h, leaf, node=0) -> None:
    """Grow the subtree at heap ``node`` of ``tree = (feature,
    threshold, value)`` on the samples ``idx`` (ascending), whose row
    ``f`` of ``order`` lists them by feature ``f``; write each leaf's
    value into the tree and into ``leaf`` at its samples."""
    feature, threshold, value = tree
    G, H = g[idx].sum(), h[idx].sum()  # in sample order, as at the root
    if 2 * node + 1 < len(feature) and len(idx) >= 2:
        xs = np.take_along_axis(X.T, order, axis=1)
        f, thr, gain = _best_split(xs, g[order], h[order], G, H)
        if gain > 0:
            feature[node], threshold[node] = f, thr
            left = X[:, f] < thr
            keep = left[order]  # stable: ties stay in sample order
            _grow(tree, X, order[keep].reshape(len(order), -1), idx[left[idx]],
                  g, h, leaf, 2 * node + 1)
            _grow(tree, X, order[~keep].reshape(len(order), -1), idx[~left[idx]],
                  g, h, leaf, 2 * node + 2)
            return
    value[node] = leaf[idx] = -G / (H + REG_LAMBDA)


@dataclass
class GBDT:
    """Softmax-objective gradient boosting, one tree per class per round.

    Tree ``r·n_classes + k`` is round ``r``'s tree for class ``k``.
    """

    n_classes: int
    n_rounds: int = 30
    max_depth: int = 3
    feature: np.ndarray | None = field(default=None, init=False, repr=False)
    threshold: np.ndarray | None = field(default=None, init=False, repr=False)
    value: np.ndarray | None = field(default=None, init=False, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBDT":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        Y = np.eye(self.n_classes)[y]
        F = np.zeros((n, self.n_classes))
        shape = (self.n_rounds * self.n_classes, _n_nodes(self.max_depth))
        self.feature = np.full(shape, -1, dtype=np.int64)
        self.threshold = np.zeros(shape)
        self.value = np.zeros(shape)
        order = np.argsort(X.T, axis=1, kind="stable")  # one sort per fit
        leaf = np.empty(n)
        for r in range(self.n_rounds):
            P = softmax(F)
            G = P - Y                      # gradient of softmax CE
            H = np.maximum(P * (1 - P), 1e-6)  # diagonal hessian
            for k in range(self.n_classes):
                i = r * self.n_classes + k
                tree = (self.feature[i], self.threshold[i], self.value[i])
                _grow(tree, X, order, np.arange(n), G[:, k], H[:, k], leaf)
                F[:, k] += LEARNING_RATE * leaf
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        leaves = self.leaf_values(X).reshape(len(X), self.n_rounds, self.n_classes)
        F = np.zeros((len(X), self.n_classes))
        for r in range(self.n_rounds):  # round by round, as in fit
            F += LEARNING_RATE * leaves[:, r]
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.decision_function(X).argmax(axis=1)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-sample concatenated leaf values (rounds × classes dims).

        This is the community embedding ``r^C`` used by LoCEC-XGB in
        Phase III: "the values of the leaf nodes on the final layers of
        generated trees" (paper Sec. IV-C / ref [22]).
        """
        X = np.asarray(X, dtype=np.float64)
        return _walk(self.feature, self.threshold, self.value, X, self.max_depth)

    # --- broadcast-friendly weight export/import ---------------------
    def get_params(self) -> dict:
        """Plain-array params for Spark broadcast to executors."""
        return {"n_classes": self.n_classes, "n_rounds": self.n_rounds,
                "max_depth": self.max_depth, "feature": self.feature,
                "threshold": self.threshold, "value": self.value}

    @classmethod
    def from_params(cls, params: dict) -> "GBDT":
        m = cls(params["n_classes"], params["n_rounds"], params["max_depth"])
        m.feature, m.threshold, m.value = (
            params["feature"], params["threshold"], params["value"])
        return m
