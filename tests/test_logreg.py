"""Tests for the from-scratch multinomial logistic regression."""
import math

import numpy as np
import pytest

from repro.ml.logreg import LogisticRegression, softmax


def _blobs(seed=0, n=300, d=4, k=3, sep=2.5):
    g = np.random.default_rng(seed)
    X = np.concatenate([g.normal(i * sep, 1.0, (n // k, d)) for i in range(k)])
    y = np.repeat(np.arange(k), n // k)
    return X, y


def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(0).normal(size=(5, 3))
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p > 0).all()


def test_softmax_overflow_safe():
    p = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_fits_separable_data():
    X, y = _blobs()
    m = LogisticRegression(3).fit(X, y)
    assert (m.predict(X) == y).mean() > 0.95


def test_predict_proba_shape_and_sum():
    X, y = _blobs()
    m = LogisticRegression(3).fit(X, y)
    P = m.predict_proba(X[:10])
    assert P.shape == (10, 3)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_deterministic_given_seed():
    X, y = _blobs()
    a = LogisticRegression(3, seed=1).fit(X, y)
    b = LogisticRegression(3, seed=1).fit(X, y)
    assert np.allclose(a.W, b.W)


def test_standardization_invariance_to_scale():
    """Internal standardization: rescaling one feature by 1e6 must not
    destroy the fit."""
    X, y = _blobs()
    Xs = X.copy()
    Xs[:, 0] *= 1e6
    m = LogisticRegression(3).fit(Xs, y)
    assert (m.predict(Xs) == y).mean() > 0.95


def test_constant_feature_no_nan():
    X, y = _blobs()
    X[:, 1] = 5.0
    m = LogisticRegression(3).fit(X, y)
    assert np.isfinite(m.predict_proba(X)).all()


def test_param_roundtrip():
    X, y = _blobs()
    m = LogisticRegression(3).fit(X, y)
    m2 = LogisticRegression.from_params(m.get_params())
    assert np.allclose(m.predict_proba(X), m2.predict_proba(X))


def test_binary_case():
    X, y = _blobs(k=2, n=200)
    m = LogisticRegression(2).fit(X, y)
    assert (m.predict(X) == y).mean() > 0.95


def _adam_algorithm1(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Kingma & Ba, *Adam: A Method for Stochastic Optimization* (ICLR
    2015), Algorithm 1, applied in place to flat lists of Python floats,
    one element at a time. Each operation is one correctly rounded IEEE
    operation, so the result does not depend on any numpy kernel."""
    for i in range(len(p)):
        m[i] = b1 * m[i] + (1 - b1) * g[i]
        v[i] = b2 * v[i] + (1 - b2) * (g[i] * g[i])
        mhat = m[i] / (1 - b1**t)
        vhat = v[i] / (1 - b2**t)
        p[i] = p[i] - lr * mhat / (math.sqrt(vhat) + eps)


def test_fitted_params_pinned():
    """Adam's in-place update order is part of the fitted model: the
    fitted bits must equal a replay of Adam's Algorithm 1, so they change
    if ``adam_step`` reorders its arithmetic.

    The expected bits are computed here, not recorded: the gradients come
    from ``@`` and ``np.exp``, whose last bits depend on the GEMM kernel
    OpenBLAS picks for the CPU and on numpy's SIMD dispatch. The replay
    computes each step's gradients with ``fit``'s own numpy expressions
    (same machine, same bits) and applies the Adam update in plain Python
    floats."""
    X, y = _blobs(n=30, d=2)
    m = LogisticRegression(3, epochs=20).fit(X, y)

    sd = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(sd < 1e-9, 1.0, sd)
    n, d = Xs.shape
    Y = np.eye(3)[y]
    W = np.random.default_rng(m.seed).normal(0, 0.01, (d, 3)).ravel().tolist()
    b = [0.0] * 3
    mW, vW, mb, vb = [0.0] * len(W), [0.0] * len(W), [0.0] * 3, [0.0] * 3
    for t in range(1, m.epochs + 1):
        Wa, ba = np.array(W).reshape(d, 3), np.array(b)
        P = softmax(Xs @ Wa + ba)
        gW = Xs.T @ (P - Y) / n + m.l2 * Wa
        gb = (P - Y).mean(axis=0)
        _adam_algorithm1(W, gW.ravel().tolist(), mW, vW, t, m.lr)
        _adam_algorithm1(b, gb.tolist(), mb, vb, t, m.lr)

    assert [v.hex() for v in m.W.ravel()] == [v.hex() for v in W]
    assert [v.hex() for v in m.b] == [v.hex() for v in b]
