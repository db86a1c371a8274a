"""Multiclass gradient-boosted decision trees — the XGBoost stand-in.

No xgboost wheel is available offline, so this module implements the
same algorithm family from scratch: second-order boosting with a
softmax objective, one regression tree per class per round, exact
greedy splits, and XGBoost's leaf weight ``-G/(H+λ)`` and split gain.

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


class _Tree:
    """One regression tree fit to (gradient, hessian) pairs."""

    def __init__(self, max_depth: int, reg_lambda: float, gamma: float,
                 min_child_weight: float):
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        n = _n_nodes(max_depth)
        self.feature = np.full(n, -1, dtype=np.int64)
        self.threshold = np.zeros(n)
        self.value = np.zeros(n)

    def _leaf_value(self, g: np.ndarray, h: np.ndarray) -> float:
        return float(-g.sum() / (h.sum() + self.reg_lambda))

    def _best_split(self, X, g, h):
        G, H = g.sum(), h.sum()
        base = G * G / (H + self.reg_lambda)
        best = (None, None, 0.0)  # feature, threshold, gain
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs, gs, hs = X[order, f], g[order], h[order]
            Gl = np.cumsum(gs)[:-1]
            Hl = np.cumsum(hs)[:-1]
            Gr, Hr = G - Gl, H - Hl
            valid = (xs[1:] != xs[:-1]) & (Hl >= self.min_child_weight) & (
                Hr >= self.min_child_weight
            )
            if not valid.any():
                continue
            gain = 0.5 * (
                Gl**2 / (Hl + self.reg_lambda)
                + Gr**2 / (Hr + self.reg_lambda)
                - base
            ) - self.gamma
            gain[~valid] = -np.inf
            i = int(np.argmax(gain))
            if gain[i] > best[2]:
                best = (f, float((xs[i] + xs[i + 1]) / 2), float(gain[i]))
        return best

    def _build(self, X, g, h, depth, node) -> None:
        if depth < self.max_depth and len(g) >= 2:
            f, thr, gain = self._best_split(X, g, h)
            if f is not None and gain > 0:
                self.feature[node], self.threshold[node] = f, thr
                mask = X[:, f] < thr
                self._build(X[mask], g[mask], h[mask], depth + 1, 2 * node + 1)
                self._build(X[~mask], g[~mask], h[~mask], depth + 1, 2 * node + 2)
                return
        self.value[node] = self._leaf_value(g, h)

    def fit(self, X, g, h) -> "_Tree":
        self._build(np.asarray(X), np.asarray(g), np.asarray(h), 0, 0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return _walk(self.feature[None], self.threshold[None], self.value[None],
                     np.asarray(X), self.max_depth)[:, 0]


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
        for r in range(self.n_rounds):
            P = softmax(F)
            G = P - Y                      # gradient of softmax CE
            H = np.maximum(P * (1 - P), 1e-6)  # diagonal hessian
            for k in range(self.n_classes):
                t = _Tree(self.max_depth, REG_LAMBDA, GAMMA,
                          MIN_CHILD_WEIGHT).fit(X, G[:, k], H[:, k])
                F[:, k] += LEARNING_RATE * t.predict(X)
                i = r * self.n_classes + k
                self.feature[i], self.threshold[i], self.value[i] = (
                    t.feature, t.threshold, t.value)
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
