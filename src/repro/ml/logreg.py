"""Multinomial logistic regression (paper Phase III edge classifier).

From-scratch numpy implementation (no sklearn offline): softmax
cross-entropy with L2 regularization, full-batch Adam. Feature vectors
in LoCEC Phase III are short (2 tightness values + 2·|L| community
probabilities), so full-batch training on the driver is cheap even for
hundreds of thousands of labeled edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def adam_step(param, grad, m, v, t: int, lr: float) -> None:
    """One Adam update (step ``t`` ≥ 1) of ``param`` and its moment
    estimates ``m``, ``v``, all in place.

    Performs Kingma & Ba's Algorithm 1 (ICLR 2015) element-wise, in that
    order, bit for bit: ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g²``,
    bias-corrected ``mhat``, ``vhat``, then ``param -= lr*mhat /
    (sqrt(vhat) + eps)``. The gradients that callers pass in come from
    BLAS and numpy's SIMD loops, so a fitted model's bits are reproducible
    for a given seed on one machine and BLAS, not across CPUs."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m *= b1; m += (1 - b1) * grad
    v *= b2; v += (1 - b2) * grad**2
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


@dataclass
class LogisticRegression:
    """Softmax regression trained with Adam.

    ``fit`` standardizes features internally (stored mean/std are
    applied again at inference) so callers can pass raw tightness /
    probability features without worrying about scale.
    """

    n_classes: int
    lr: float = 0.05
    l2: float = 1e-4
    epochs: int = 300
    seed: int = 0
    W: np.ndarray | None = field(default=None, repr=False)
    b: np.ndarray | None = field(default=None, repr=False)
    mu: np.ndarray | None = field(default=None, repr=False)
    sd: np.ndarray | None = field(default=None, repr=False)

    def _std(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu) / self.sd

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.mu = X.mean(axis=0)
        self.sd = np.where(X.std(axis=0) < 1e-9, 1.0, X.std(axis=0))
        Xs = self._std(X)
        n, d = Xs.shape
        g = np.random.default_rng(self.seed)
        self.W = g.normal(0, 0.01, (d, self.n_classes))
        self.b = np.zeros(self.n_classes)
        Y = np.eye(self.n_classes)[y]
        mW = np.zeros_like(self.W); vW = np.zeros_like(self.W)
        mb = np.zeros_like(self.b); vb = np.zeros_like(self.b)
        for t in range(1, self.epochs + 1):
            P = softmax(Xs @ self.W + self.b)
            gW = Xs.T @ (P - Y) / n + self.l2 * self.W
            gb = (P - Y).mean(axis=0)
            adam_step(self.W, gW, mW, vW, t, self.lr)
            adam_step(self.b, gb, mb, vb, t, self.lr)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = self._std(np.asarray(X, dtype=np.float64))
        return softmax(Xs @ self.W + self.b)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    # --- broadcast-friendly weight export/import ---------------------
    def get_params(self) -> dict:
        """Plain-array params for Spark broadcast to executors."""
        return {"W": self.W, "b": self.b, "mu": self.mu, "sd": self.sd,
                "n_classes": self.n_classes}

    @classmethod
    def from_params(cls, params: dict) -> "LogisticRegression":
        m = cls(n_classes=params["n_classes"])
        m.W, m.b, m.mu, m.sd = params["W"], params["b"], params["mu"], params["sd"]
        return m
