"""Tests for the from-scratch gradient-boosted trees (XGBoost stand-in)."""
import numpy as np
import pytest

from repro.ml.gbdt import (
    GAMMA,
    GBDT,
    LEARNING_RATE,
    MIN_CHILD_WEIGHT,
    REG_LAMBDA,
    _grow,
    _n_nodes,
    _walk,
)
from repro.ml.logreg import softmax


def _blobs(seed=0, n=300, d=4, k=3, sep=2.0):
    g = np.random.default_rng(seed)
    X = np.concatenate([g.normal(i * sep, 1.0, (n // k, d)) for i in range(k)])
    y = np.repeat(np.arange(k), n // k)
    return X, y


def _one_tree(X, g, h, max_depth):
    """One tree from the GBDT builder: its (feature, threshold, value)
    arrays and the leaf value it wrote for each sample."""
    n = _n_nodes(max_depth)
    tree = (np.full(n, -1, dtype=np.int64), np.zeros(n), np.zeros(n))
    leaf = np.empty(len(X))
    order = np.argsort(X.T, axis=1, kind="stable")
    _grow(tree, X, order, np.arange(len(X)), g, h, leaf)
    return tree, leaf


def test_tree_fits_step_function():
    """A single tree must find the obvious split at x=0.5."""
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    # gradient of squared loss toward target: g = pred - target, pred=0
    target = (X[:, 0] > 0.5).astype(float)
    g = -target
    h = np.ones(100)
    tree, pred = _one_tree(X, g, h, max_depth=2)
    assert pred[:40].mean() == pytest.approx(0.0, abs=0.1)
    assert pred[60:].mean() == pytest.approx(1.0, abs=0.1)  # 50/51 at λ=1
    # the leaf values the builder wrote are where the tree sends each sample
    assert np.array_equal(pred, _walk(*(a[None] for a in tree), X, 2)[:, 0])


def test_tree_leaf_value_formula():
    """With no split possible, leaf = -ΣG/(ΣH+λ)."""
    X = np.zeros((4, 1))  # constant feature → no valid split
    g = np.array([1.0, 1.0, 2.0, 0.0])
    h = np.ones(4)
    _, pred = _one_tree(X, g, h, max_depth=3)
    assert REG_LAMBDA == 1.0
    assert pred[0] == pytest.approx(-4.0 / 5.0)


def test_min_child_weight_respected():
    X = np.array([[0.0], [1.0]])
    g = np.array([-1.0, 1.0])
    h = np.array([0.4, 0.4])  # both below min_child_weight=1 → no split
    assert MIN_CHILD_WEIGHT == 1.0
    (feature, _, _), _ = _one_tree(X, g, h, max_depth=3)
    assert feature[0] == -1  # the root is a leaf


def _reference_fit(X, y, n_classes, n_rounds, max_depth):
    """Exact greedy boosting the plain way: at every node, stable-sort
    each feature of the node's samples and scan its splits one feature
    at a time; after each tree, walk every sample down it."""
    n_nodes = _n_nodes(max_depth)
    shape = (n_rounds * n_classes, n_nodes)
    feature, threshold, value = np.full(shape, -1), np.zeros(shape), np.zeros(shape)
    Y = np.eye(n_classes)[y]
    F = np.zeros((len(y), n_classes))

    def best_split(X, g, h):
        G, H = g.sum(), h.sum()
        base = G * G / (H + REG_LAMBDA)
        best = (None, None, 0.0)  # feature, threshold, gain
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="stable")
            xs, gs, hs = X[order, f], g[order], h[order]
            Gl, Hl = np.cumsum(gs)[:-1], np.cumsum(hs)[:-1]
            Gr, Hr = G - Gl, H - Hl
            valid = ((xs[1:] != xs[:-1]) & (Hl >= MIN_CHILD_WEIGHT)
                     & (Hr >= MIN_CHILD_WEIGHT))
            if not valid.any():
                continue
            gain = 0.5 * (Gl**2 / (Hl + REG_LAMBDA) + Gr**2 / (Hr + REG_LAMBDA)
                          - base) - GAMMA
            gain[~valid] = -np.inf
            i = int(np.argmax(gain))
            if gain[i] > best[2]:
                best = (f, float((xs[i] + xs[i + 1]) / 2), float(gain[i]))
        return best

    def build(t, X, g, h, depth, node):
        if depth < max_depth and len(g) >= 2:
            f, thr, gain = best_split(X, g, h)
            if f is not None and gain > 0:
                feature[t, node], threshold[t, node] = f, thr
                m = X[:, f] < thr
                build(t, X[m], g[m], h[m], depth + 1, 2 * node + 1)
                build(t, X[~m], g[~m], h[~m], depth + 1, 2 * node + 2)
                return
        value[t, node] = float(-g.sum() / (h.sum() + REG_LAMBDA))

    for r in range(n_rounds):
        P = softmax(F)
        G, H = P - Y, np.maximum(P * (1 - P), 1e-6)
        for k in range(n_classes):
            t = r * n_classes + k
            build(t, X, G[:, k], H[:, k], 0, 0)
            F[:, k] += LEARNING_RATE * _walk(
                feature[t:t + 1], threshold[t:t + 1], value[t:t + 1], X, max_depth)[:, 0]
    return feature, threshold, value


def _tied(seed, n, d):
    """Integer-valued features (many ties), column 0 constant, ~10% NaN."""
    g = np.random.default_rng(seed)
    X = g.integers(0, 4, (n, d)).astype(float)
    X[:, 0] = 2.0
    X[g.random((n, d)) < 0.1] = np.nan
    return X, g.integers(0, 3, n)


@pytest.mark.parametrize("X, y, n_classes, max_depth, splits", [
    (*_tied(0, 150, 5), 3, 3, True),
    (*_tied(1, 200, 4), 3, 4, True),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2, 3, False),  # h < 1
    (np.random.default_rng(2).normal(size=(60, 3)), np.zeros(60, dtype=int), 2, 3, False),
    (*_blobs(seed=3, n=90), 3, 4, True),
], ids=["ties-nan-const", "depth4", "two-samples", "one-class", "blobs"])
def test_builder_matches_per_node_reference(X, y, n_classes, max_depth, splits):
    """The one-sort, all-features builder grows exactly the trees of the
    per-node, per-feature exact greedy search, bit for bit."""
    m = GBDT(n_classes, n_rounds=6, max_depth=max_depth).fit(X, y)
    want = _reference_fit(X, y, n_classes, 6, max_depth)
    for got, ref in zip((m.feature, m.threshold, m.value), want):
        assert np.array_equal(got, ref, equal_nan=True)
    assert (m.feature != -1).any() == splits


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
