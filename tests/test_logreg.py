"""Tests for the from-scratch multinomial logistic regression."""
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


def test_fitted_params_pinned():
    """Adam's in-place update order is part of the fitted model: these
    exact bits change if ``adam_step`` reorders its arithmetic."""
    X, y = _blobs(n=30, d=2)
    m = LogisticRegression(3, epochs=20).fit(X, y)
    W = [["-0x1.bb89a130540b8p-1", "-0x1.4941039cac1f0p-1", "0x1.be261357ead82p-1"],
         ["-0x1.bd23ff88ba1d6p-1", "0x1.507cd9f967a05p-1", "0x1.c114ee66491a3p-1"]]
    b = ["-0x1.0e2bf08238c7ep-2", "0x1.267165530d448p-1", "-0x1.7b69f730598c8p-3"]
    assert [[v.hex() for v in row] for row in m.W] == W
    assert [v.hex() for v in m.b] == b
