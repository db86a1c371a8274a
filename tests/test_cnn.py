"""Tests for the from-scratch CommCNN, including numerical gradient
checks of every layer's backward pass."""
import numpy as np
import pytest

from repro.ml.cnn import (
    BatchNorm2D,
    CNNConfig,
    CommCNN,
    Conv2D,
    Dense,
    GlobalMaxAvgPool,
    MaxPool2x2,
    ReLU,
    _col2im,
    _im2col,
)

RNG = np.random.default_rng(0)


def _num_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return g


def test_im2col_col2im_adjoint():
    """<im2col(X), C> == <X, col2im(C)> — the pair must be adjoint, for
    a general kernel, a 1×1 one (plain reshapes) and a k×1 one."""
    X = RNG.normal(size=(2, 3, 5, 4))
    for kh, kw in [(2, 2), (1, 1), (5, 1)]:
        C = RNG.normal(size=(3 * kh * kw, 2 * (5 - kh + 1) * (4 - kw + 1)))
        lhs = (_im2col(X, kh, kw) * C).sum()
        rhs = (X * _col2im(C, X.shape, kh, kw)).sum()
        assert lhs == pytest.approx(rhs)


def _direct_conv(X, W, b, kh, kw, pad):
    """Loop reference: out[n,o,y,x] = b[o] + Σ_{c,i,j} W[o,(c,i,j)]
    · Xp[n,c,y+i,x+j], Xp being X zero-padded by ``pad``, stride 1."""
    Xp = np.pad(X, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    B, C, H, Wd = Xp.shape
    Ho, Wo = H - kh + 1, Wd - kw + 1
    W4 = W.reshape(len(b), C, kh, kw)
    out = np.empty((B, len(b), Ho, Wo))
    for n in range(B):
        for o in range(len(b)):
            for y in range(Ho):
                for x in range(Wo):
                    acc = b[o]
                    for c in range(C):
                        for i in range(kh):
                            for j in range(kw):
                                acc += W4[o, c, i, j] * Xp[n, c, y + i, x + j]
                    out[n, o, y, x] = acc
    return out


@pytest.mark.parametrize(
    "c_in,kh,kw,pad,H,W",
    # every kernel CommCNN builds: square 3×3 (pad 1) on the 1-channel
    # input and on 8 channels after a pool, wide 1×W, long k×1, and 1×1
    [(1, 3, 3, 1, 20, 12), (8, 3, 3, 1, 10, 6), (1, 1, 12, 0, 20, 12),
     (1, 20, 1, 0, 20, 12), (8, 1, 1, 0, 20, 1)],
)
def test_conv2d_forward_matches_direct_convolution(c_in, kh, kw, pad, H, W):
    rng = np.random.default_rng(4)
    conv = Conv2D(c_in, 3, kh, kw, pad=pad, rng=rng)
    conv.b[:] = rng.normal(size=3)
    X = rng.normal(size=(2, c_in, H, W))
    expect = _direct_conv(X, conv.W, conv.b, kh, kw, pad)
    # batch-major input, and channel-major memory as a conv layer emits
    channel_major = np.ascontiguousarray(X.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    for x in (X, channel_major):
        np.testing.assert_allclose(conv.forward(x), expect, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kh,kw,pad", [(3, 3, 1), (2, 3, 1), (3, 3, 2)])
def test_padded_backward_equals_pad_then_crop(kh, kw, pad):
    """Backward scatters straight into the unpadded map: exactly what
    scattering onto the padded map and cropping the border gives."""
    rng = np.random.default_rng(2)
    conv = Conv2D(3, 4, kh, kw, pad=pad, rng=rng)
    X = rng.normal(size=(2, 3, 6, 5))
    dout = rng.normal(size=conv.forward(X).shape)
    dX = conv.backward(dout)
    padded = (2, 3, 6 + 2 * pad, 5 + 2 * pad)
    full = _col2im(conv.W.T @ dout.transpose(1, 0, 2, 3).reshape(4, -1), padded, kh, kw)
    assert np.array_equal(dX, full[:, :, pad:-pad, pad:-pad])


@pytest.mark.parametrize("kh,kw,pad", [(3, 3, 1), (1, 4, 0), (5, 1, 0), (1, 1, 0)])
def test_conv2d_gradients(kh, kw, pad):
    rng = np.random.default_rng(1)
    conv = Conv2D(2, 3, kh, kw, pad=pad, rng=rng)
    X = rng.normal(size=(2, 2, 5, 4))
    W_out = rng.normal(size=(2, 3, 5 - kh + 1 + 2 * pad, 4 - kw + 1 + 2 * pad))

    def loss():
        return (conv.forward(X.copy()) * W_out).sum()

    conv.dW[:] = 0
    conv.db[:] = 0
    out = conv.forward(X.copy())
    dX = conv.backward(W_out)
    assert np.allclose(_num_grad(loss, conv.W), conv.dW, atol=1e-4)
    assert np.allclose(_num_grad(loss, conv.b), conv.db, atol=1e-4)
    assert np.allclose(_num_grad(loss, X), dX, atol=1e-4)


def test_relu_gradient():
    r = ReLU()
    X = RNG.normal(size=(3, 4))
    out = r.forward(X)
    d = r.backward(np.ones_like(out))
    assert np.array_equal(d, (X > 0).astype(float))


def test_maxpool_gradient():
    mp = MaxPool2x2()
    X = RNG.normal(size=(2, 2, 4, 4))
    W_out = RNG.normal(size=(2, 2, 2, 2))

    def loss():
        return (MaxPool2x2().forward(X) * W_out).sum()

    mp.forward(X)
    dX = mp.backward(W_out)
    assert np.allclose(_num_grad(loss, X), dX, atol=1e-4)


def test_maxpool_odd_dims_dropped():
    X = RNG.normal(size=(1, 1, 5, 3))
    out = MaxPool2x2().forward(X)
    assert out.shape == (1, 1, 2, 1)


def test_globalpool_gradient():
    gp = GlobalMaxAvgPool()
    X = RNG.normal(size=(2, 3, 4, 2))
    W_out = RNG.normal(size=(2, 6))

    def loss():
        return (GlobalMaxAvgPool().forward(X) * W_out).sum()

    gp.forward(X)
    dX = gp.backward(W_out)
    assert np.allclose(_num_grad(loss, X), dX, atol=1e-4)


def test_globalpool_output_is_max_and_mean():
    X = RNG.normal(size=(1, 2, 3, 3))
    out = GlobalMaxAvgPool().forward(X)
    assert out[0, 0] == pytest.approx(X[0, 0].max())
    assert out[0, 2] == pytest.approx(X[0, 0].mean())


def test_dense_gradients():
    rng = np.random.default_rng(2)
    d = Dense(4, 3, rng)
    X = rng.normal(size=(5, 4))
    W_out = rng.normal(size=(5, 3))

    def loss():
        return (d.forward(X) * W_out).sum()

    d.dW[:] = 0
    d.db[:] = 0
    d.forward(X)
    dX = d.backward(W_out)
    assert np.allclose(_num_grad(loss, d.W), d.dW, atol=1e-5)
    assert np.allclose(_num_grad(loss, d.b), d.db, atol=1e-5)
    assert np.allclose(_num_grad(loss, X), dX, atol=1e-5)


def test_batchnorm_gradient():
    bn = BatchNorm2D(2)
    X = RNG.normal(size=(3, 2, 2, 2))
    W_out = RNG.normal(size=(3, 2, 2, 2))

    def loss():
        b2 = BatchNorm2D(2)
        b2.W[:] = bn.W
        b2.b[:] = bn.b
        return (b2.forward(X) * W_out).sum()

    bn.dW[:] = 0
    bn.db[:] = 0
    bn.forward(X)
    dX = bn.backward(W_out)
    assert np.allclose(_num_grad(loss, X), dX, atol=1e-4)
    assert np.allclose(_num_grad(loss, bn.W), bn.dW, atol=1e-4)
    assert np.allclose(_num_grad(loss, bn.b), bn.db, atol=1e-4)


def test_batchnorm_inference_uses_running_stats():
    bn = BatchNorm2D(1, momentum=0.0)  # running stats = last batch
    X = np.arange(8.0).reshape(2, 1, 2, 2)
    bn.training = True
    bn.forward(X)
    bn.training = False
    out = bn.forward(np.zeros_like(X))
    expect = (0 - X.mean()) / np.sqrt(X.var() + bn.eps)
    assert np.allclose(out, expect, atol=1e-6)


def _toy_dataset(n=120, k=10, w=6, seed=3):
    g = np.random.default_rng(seed)
    X = g.normal(0, 0.5, (n, k, w))
    y = g.integers(0, 3, n)
    for i in range(n):
        X[i, :, y[i] * 2] += 2.0  # class-dependent column activation
    return X, y


def test_commcnn_learns_toy_problem():
    X, y = _toy_dataset()
    cfg = CNNConfig(k=10, width=6, epochs=25, channels=4, row_channels=8,
                    col_channels=4, hidden=16, row_dropout=0.0, seed=0)
    m = CommCNN(cfg).fit(X, y)
    assert (m.predict(X) == y).mean() > 0.9


def test_commcnn_proba_valid():
    X, y = _toy_dataset(n=40)
    cfg = CNNConfig(k=10, width=6, epochs=3, channels=2, row_channels=4,
                    col_channels=2, hidden=8, seed=0)
    m = CommCNN(cfg).fit(X, y)
    P = m.predict_proba(X)
    assert P.shape == (40, 3)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_commcnn_deterministic():
    X, y = _toy_dataset(n=60)
    cfg = CNNConfig(k=10, width=6, epochs=4, channels=2, row_channels=4,
                    col_channels=2, hidden=8, seed=5)
    a = CommCNN(cfg).fit(X, y).predict_proba(X)
    b = CommCNN(cfg).fit(X, y).predict_proba(X)
    assert np.array_equal(a, b)


def test_commcnn_param_roundtrip():
    X, y = _toy_dataset(n=60)
    cfg = CNNConfig(k=10, width=6, epochs=4, channels=2, row_channels=4,
                    col_channels=2, hidden=8, seed=0)
    m = CommCNN(cfg).fit(X, y)
    m2 = CommCNN.from_params(m.get_params())
    assert np.allclose(m.predict_proba(X), m2.predict_proba(X))


def test_commcnn_zero_padding_tolerated():
    """Matrices with fewer than k live rows (zero-padded) must flow."""
    X, y = _toy_dataset(n=30)
    X[:, 5:, :] = 0.0
    cfg = CNNConfig(k=10, width=6, epochs=2, channels=2, row_channels=4,
                    col_channels=2, hidden=8, seed=0)
    m = CommCNN(cfg).fit(X, y)
    assert np.isfinite(m.predict_proba(X)).all()
