"""Tests for the from-scratch gradient-boosted trees (XGBoost stand-in)."""
import numpy as np
import pytest

from repro.ml.gbdt import GBDT, _Tree


def _blobs(seed=0, n=300, d=4, k=3, sep=2.0):
    g = np.random.default_rng(seed)
    X = np.concatenate([g.normal(i * sep, 1.0, (n // k, d)) for i in range(k)])
    y = np.repeat(np.arange(k), n // k)
    return X, y


def test_tree_fits_step_function():
    """A single tree must find the obvious split at x=0.5."""
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    # gradient of squared loss toward target: g = pred - target, pred=0
    target = (X[:, 0] > 0.5).astype(float)
    g = -target
    h = np.ones(100)
    t = _Tree(max_depth=2, reg_lambda=0.0, gamma=0.0, min_child_weight=1.0).fit(X, g, h)
    pred = t.predict(X)
    assert pred[:40].mean() == pytest.approx(0.0, abs=0.1)
    assert pred[60:].mean() == pytest.approx(1.0, abs=0.1)


def test_tree_leaf_value_formula():
    """With no split possible, leaf = -ΣG/(ΣH+λ)."""
    X = np.zeros((4, 1))  # constant feature → no valid split
    g = np.array([1.0, 1.0, 2.0, 0.0])
    h = np.ones(4)
    t = _Tree(3, reg_lambda=1.0, gamma=0.0, min_child_weight=1.0).fit(X, g, h)
    assert t.predict(X)[0] == pytest.approx(-4.0 / 5.0)


def test_min_child_weight_respected():
    X = np.array([[0.0], [1.0]])
    g = np.array([-1.0, 1.0])
    h = np.array([0.4, 0.4])  # both below min_child_weight=1 → no split
    t = _Tree(3, 1.0, 0.0, min_child_weight=1.0).fit(X, g, h)
    assert t.feature[0] == -1  # the root is a leaf


def test_gbdt_fits_blobs():
    X, y = _blobs()
    m = GBDT(3, n_rounds=20).fit(X, y)
    assert (m.predict(X) == y).mean() > 0.95


def test_gbdt_generalizes():
    X, y = _blobs(seed=1, n=400)
    Xt, yt = _blobs(seed=2, n=200)
    m = GBDT(3, n_rounds=20).fit(X, y)
    assert (m.predict(Xt) == yt).mean() > 0.85


def test_predict_proba_valid(gbdt_model=None):
    X, y = _blobs()
    m = GBDT(3, n_rounds=5).fit(X, y)
    P = m.predict_proba(X[:7])
    assert P.shape == (7, 3)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_leaf_values_shape():
    X, y = _blobs()
    m = GBDT(3, n_rounds=6).fit(X, y)
    emb = m.leaf_values(X[:5])
    assert emb.shape == (5, 6 * 3)  # rounds × classes


def test_leaf_values_discriminative():
    """The leaf-value embedding should linearly separate the classes
    (this is what Phase III relies on for LoCEC-XGB)."""
    from repro.ml.logreg import LogisticRegression

    X, y = _blobs()
    m = GBDT(3, n_rounds=10).fit(X, y)
    emb = m.leaf_values(X)
    lr = LogisticRegression(3, epochs=200).fit(emb, y)
    assert (lr.predict(emb) == y).mean() > 0.95


def test_deterministic():
    X, y = _blobs()
    a = GBDT(3, n_rounds=5).fit(X, y).decision_function(X)
    b = GBDT(3, n_rounds=5).fit(X, y).decision_function(X)
    assert np.allclose(a, b)


def test_single_class_degenerate():
    X = np.random.default_rng(0).normal(size=(50, 3))
    y = np.zeros(50, dtype=int)
    m = GBDT(2, n_rounds=3).fit(X, y)
    assert (m.predict(X) == 0).all()


def test_binary():
    X, y = _blobs(k=2, n=200)
    m = GBDT(2, n_rounds=15).fit(X, y)
    assert (m.predict(X) == y).mean() > 0.95


def test_params_roundtrip():
    X, y = _blobs()
    m = GBDT(3, n_rounds=6).fit(X, y)
    m2 = GBDT.from_params(m.get_params())
    assert np.array_equal(m.predict_proba(X), m2.predict_proba(X))
    assert np.array_equal(m.leaf_values(X), m2.leaf_values(X))


def _scalar_leaf(feature, threshold, value, row):
    """One sample down one heap-ordered tree, node by node."""
    i = 0
    while feature[i] != -1:
        i = 2 * i + 1 if row[feature[i]] < threshold[i] else 2 * i + 2
    return value[i]


def test_leaf_values_match_scalar_walk():
    """The vectorised walk over all trees equals a per-row walk of each
    tree, on a model where some trees stop before max_depth and some
    samples carry NaN (which goes right)."""
    X, y = _blobs(n=60, sep=2.0)
    m = GBDT(3, n_rounds=4, max_depth=4).fit(X, y)
    # a tree is shallower than max_depth when its last split level is all leaves
    shallow = (m.feature[:, 2 ** (m.max_depth - 1) - 1:] == -1).all(axis=1)
    assert shallow.any() and not shallow.all()
    Xt, _ = _blobs(seed=5, n=60, sep=2.0)
    Xt[::7, 1] = np.nan
    want = np.array([[_scalar_leaf(f, t, v, row)
                      for f, t, v in zip(m.feature, m.threshold, m.value)]
                     for row in Xt])
    assert np.array_equal(m.leaf_values(Xt), want)
