"""CommCNN — the paper's community-classification CNN (Fig. 8), in numpy.

No deep-learning framework ships in this environment, so the network is
implemented from scratch with manual backprop. That is practical here
because inputs are tiny: a community feature matrix is k×(|I|+|f|)
(default 20×12), so even full training runs in seconds.

Architecture (paper Sec. IV-B.2, Fig. 8):

- **square path**: 3×3 conv (pad 1) → ReLU, then two *Square
  Convolution Modules* (3×3 conv → ReLU → 2×2 max pool), then global
  max pool. (The paper counts 7 layers on this path.)
- **wide path**: 1×W conv over a full feature row ("all features of
  the same node as a whole") → ReLU → 1×1 conv → ReLU → global max
  pool. (3 layers.)
- **long path**: k×1 conv over a full feature column ("the values of
  all nodes in each feature dimension") → ReLU → 1×1 conv → ReLU →
  global max pool. (3 layers.)
- concat the three pooled vectors → two fully connected layers →
  softmax over |L| relationship types.

Matrices with fewer than k rows are zero-padded by the caller
(``repro.core.features``), as in the paper.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.logreg import adam_step, softmax


# --------------------------------------------------------------------
# minimal layer library (forward + backward, Adam-ready param dicts)
# --------------------------------------------------------------------
def _im2col(X: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B,C,H,W) → (C*kh*kw, B*Ho*Wo) patch matrix, stride 1: row
    (c, i, j), column (b, y, x) holds ``X[b, c, y + i, x + j]``, so one
    GEMM convolves the whole batch. A 1×1 kernel's patches are ``X``
    itself, reshaped (a view when ``X`` is channel-major in memory, as a
    conv output stays through the BatchNorm and ReLU after it)."""
    B, C, H, W = X.shape
    Xc = X.transpose(1, 0, 2, 3)
    if kh == kw == 1:
        return Xc.reshape(C, B * H * W)
    Ho, Wo = H - kh + 1, W - kw + 1
    cols = np.empty((C, kh, kw, B, Ho, Wo), dtype=X.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = Xc[:, :, i : i + Ho, j : j + Wo]
    return cols.reshape(C * kh * kw, B * Ho * Wo)


def _col2im(dcols: np.ndarray, shape: tuple, kh: int, kw: int, pad: int = 0) -> np.ndarray:
    """Adjoint of :func:`_im2col` on ``X`` zero-padded by ``pad``:
    scatter-add (C*kh*kw, B*Ho*Wo) patches back onto the unpadded
    (B,C,H,W) map ``shape`` (channel-major in memory). Each kernel shift
    adds only its block that lands inside the map; what falls on the
    padding is dropped."""
    B, C, H, W = shape
    if kh == kw == 1 and not pad:
        return dcols.reshape(C, B, H, W).transpose(1, 0, 2, 3)
    Ho, Wo = H + 2 * pad - kh + 1, W + 2 * pad - kw + 1
    d = dcols.reshape(C, kh, kw, B, Ho, Wo)
    dX = np.zeros((C, B, H, W), dtype=dcols.dtype)
    for i in range(kh):
        # output rows y whose input row y + i - pad is inside the map
        y0, y1 = max(pad - i, 0), min(Ho, H + pad - i)
        for j in range(kw):
            x0, x1 = max(pad - j, 0), min(Wo, W + pad - j)
            dX[:, :, y0 + i - pad : y1 + i - pad, x0 + j - pad : x1 + j - pad] += (
                d[:, i, j, :, y0:y1, x0:x1]
            )
    return dX.transpose(1, 0, 2, 3)


class Conv2D:
    """Stride-1 convolution with optional symmetric zero padding.

    Forward is one BLAS GEMM over the whole batch, ``W @ cols``;
    backward is two, ``dout @ cols.T`` and ``W.T @ dout``. The output
    map is a (B,C,H,W) view of channel-major memory.
    """

    def __init__(self, c_in, c_out, kh, kw, pad=0, rng=None):
        scale = np.sqrt(2.0 / (c_in * kh * kw))
        self.W = rng.normal(0, scale, (c_out, c_in * kh * kw))
        self.b = np.zeros(c_out)
        self.kh, self.kw, self.pad = kh, kw, pad
        self.c_in, self.c_out = c_in, c_out
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, X):
        self._X_shape = X.shape
        if self.pad:
            X = np.pad(X, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)))
        B, _, H, W = X.shape
        self._cols = _im2col(X, self.kh, self.kw)
        out = self.W @ self._cols
        out += self.b[:, None]
        return out.reshape(self.c_out, B, H - self.kh + 1, W - self.kw + 1).transpose(1, 0, 2, 3)

    def backward(self, dout):
        dflat = dout.transpose(1, 0, 2, 3).reshape(self.c_out, -1)
        self.dW += dflat @ self._cols.T
        self.db += dflat.sum(axis=1)
        return _col2im(self.W.T @ dflat, self._X_shape, self.kh, self.kw, self.pad)


class ReLU:
    def forward(self, X):
        self._mask = X > 0
        return X * self._mask

    def backward(self, dout):
        return dout * self._mask


class BatchNorm2D:
    """Per-channel batch normalization for (B,C,H,W) maps.

    A training-stability detail the paper does not spell out: without
    it, the from-scratch CNN fails to discover the second-order
    (dispersion) statistics that dominate community type signal here.
    Running stats are tracked for inference and exported with the
    broadcast weights (W ≡ gamma, b ≡ beta, so the layer plugs into
    the same Adam/param plumbing as Conv2D/Dense).
    """

    def __init__(self, c, momentum=0.9, eps=1e-5):
        self.W = np.ones(c)   # gamma
        self.b = np.zeros(c)  # beta
        self.dW = np.zeros(c)
        self.db = np.zeros(c)
        self.run_mu = np.zeros(c)
        self.run_var = np.ones(c)
        self.momentum = momentum
        self.eps = eps
        self.training = True

    def forward(self, X):
        if self.training:
            mu = X.mean(axis=(0, 2, 3))
            var = X.var(axis=(0, 2, 3))
            self.run_mu = self.momentum * self.run_mu + (1 - self.momentum) * mu
            self.run_var = self.momentum * self.run_var + (1 - self.momentum) * var
        else:
            mu, var = self.run_mu, self.run_var
        self._std = np.sqrt(var + self.eps)
        self._xhat = (X - mu[None, :, None, None]) / self._std[None, :, None, None]
        return self.W[None, :, None, None] * self._xhat + self.b[None, :, None, None]

    def backward(self, dout):
        B, C, H, W = dout.shape
        n = B * H * W
        self.dW += (dout * self._xhat).sum(axis=(0, 2, 3))
        self.db += dout.sum(axis=(0, 2, 3))
        dxhat = dout * self.W[None, :, None, None]
        # standard batchnorm backward (batch-stats mode)
        sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dxhat * self._xhat).sum(axis=(0, 2, 3), keepdims=True)
        return (
            dxhat - sum_dxhat / n - self._xhat * sum_dxhat_xhat / n
        ) / self._std[None, :, None, None]


class MaxPool2x2:
    """2×2 max pool, stride 2; odd trailing rows/cols are dropped."""

    def forward(self, X):
        B, C, H, W = X.shape
        Ho, Wo = H // 2, W // 2
        self._in_shape = X.shape
        x = X[:, :, : Ho * 2, : Wo * 2].reshape(B, C, Ho, 2, Wo, 2)
        x = x.transpose(0, 1, 2, 4, 3, 5).reshape(B, C, Ho, Wo, 4)
        self._arg = x.argmax(axis=-1)
        return x.max(axis=-1)

    def backward(self, dout):
        B, C, Ho, Wo = dout.shape
        dwin = np.zeros((B, C, Ho, Wo, 4), dtype=dout.dtype)
        np.put_along_axis(dwin, self._arg[..., None], dout[..., None], axis=-1)
        dwin = dwin.reshape(B, C, Ho, Wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        dX = np.zeros(self._in_shape, dtype=dout.dtype)
        dX[:, :, : Ho * 2, : Wo * 2] = dwin.reshape(B, C, Ho * 2, Wo * 2)
        return dX


class GlobalMaxAvgPool:
    """(B,C,H,W) → (B,2C): concat of global max and global average.

    The paper's Fig. 8 shows global *max* pooling. We concatenate the
    global average as well: our Eq.-1 features are per-community
    *shares*, so count/mean statistics (e.g. community size, mean
    activity per dimension) are only expressible through an averaging
    path — max pooling alone cannot count. This is the one deliberate
    architectural addition, documented here and in DESIGN.md.
    """

    def forward(self, X):
        B, C, H, W = X.shape
        self._in_shape = X.shape
        flat = X.reshape(B, C, H * W)
        self._arg = flat.argmax(axis=-1)
        return np.concatenate([flat.max(axis=-1), flat.mean(axis=-1)], axis=1)

    def backward(self, dout):
        B, C, H, W = self._in_shape
        dmax, davg = dout[:, : C], dout[:, C:]
        dflat = np.zeros((B, C, H * W), dtype=dout.dtype)
        np.put_along_axis(dflat, self._arg[..., None], dmax[..., None], axis=-1)
        dflat += davg[..., None] / (H * W)
        return dflat.reshape(self._in_shape)


class Dense:
    def __init__(self, d_in, d_out, rng):
        self.W = rng.normal(0, np.sqrt(2.0 / d_in), (d_in, d_out))
        self.b = np.zeros(d_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, X):
        self._X = X
        return X @ self.W + self.b

    def backward(self, dout):
        self.dW += self._X.T @ dout
        self.db += dout.sum(axis=0)
        return dout @ self.W.T


# --------------------------------------------------------------------
# CommCNN model
# --------------------------------------------------------------------
@dataclass
class CNNConfig:
    k: int = 20              # feature-matrix rows (paper Fig. 10: peak at 20)
    width: int = 12          # |I| + |f|
    n_classes: int = 3
    channels: int = 8        # filters of the square path
    row_channels: int = 32   # filters of the wide (1×W) path — row hinges
    col_channels: int = 16   # filters of the long (k×1) path
    hidden: int = 64         # first FC layer size
    lr: float = 2e-3
    weight_decay: float = 1e-4
    row_dropout: float = 0.25  # train-time member dropout (augmentation)
    epochs: int = 60
    batch_size: int = 64
    seed: int = 0


class CommCNN:
    """The three-kernel community CNN with Adam training."""

    def __init__(self, config: CNNConfig | None = None):
        self.cfg = config or CNNConfig()
        c = self.cfg
        rng = np.random.default_rng(c.seed)
        ch = c.channels
        # square path: conv3×3 → ReLU → 2 × (conv3×3 → ReLU → pool) → gmp
        self.sq = [
            Conv2D(1, ch, 3, 3, pad=1, rng=rng), BatchNorm2D(ch), ReLU(),
            Conv2D(ch, ch, 3, 3, pad=1, rng=rng), BatchNorm2D(ch), ReLU(), MaxPool2x2(),
            Conv2D(ch, ch, 3, 3, pad=1, rng=rng), BatchNorm2D(ch), ReLU(), MaxPool2x2(),
            GlobalMaxAvgPool(),
        ]
        # wide path: 1×W conv → BN → ReLU → 1×1 conv → BN → ReLU → pool.
        # Averaging ReLU row-projections over the k rows yields hinge
        # statistics of the member distribution (the dispersion signal
        # mean/std pooling exposes to the XGBoost variant), so this path
        # gets the most filters.
        rch, cch = c.row_channels, c.col_channels
        self.wd = [
            Conv2D(1, rch, 1, c.width, rng=rng), BatchNorm2D(rch), ReLU(),
            Conv2D(rch, rch, 1, 1, rng=rng), BatchNorm2D(rch), ReLU(),
            GlobalMaxAvgPool(),
        ]
        # long path: k×1 conv → BN → ReLU → 1×1 conv → BN → ReLU → pool
        self.lg = [
            Conv2D(1, cch, c.k, 1, rng=rng), BatchNorm2D(cch), ReLU(),
            Conv2D(cch, cch, 1, 1, rng=rng), BatchNorm2D(cch), ReLU(),
            GlobalMaxAvgPool(),
        ]
        self.fc1 = Dense(2 * (ch + rch + cch), c.hidden, rng)
        self.fc_relu = ReLU()
        self.fc2 = Dense(c.hidden, c.n_classes, rng)
        self._adam_state = {}
        # per-column input scale (set in fit): zero-padding rows stay
        # exactly zero, so we scale by column max instead of z-scoring
        self.col_scale = np.ones(c.width)

    # ---- plumbing ---------------------------------------------------
    def _layers_with_params(self):
        for path in (self.sq, self.wd, self.lg):
            for layer in path:
                if isinstance(layer, (Conv2D, BatchNorm2D)):
                    yield layer
        yield self.fc1
        yield self.fc2

    def _set_training(self, flag: bool):
        for path in (self.sq, self.wd, self.lg):
            for layer in path:
                if isinstance(layer, BatchNorm2D):
                    layer.training = flag

    def _zero_grads(self):
        for lay in self._layers_with_params():
            lay.dW[:] = 0
            lay.db[:] = 0

    def _forward(self, X4):
        outs = []
        for path in (self.sq, self.wd, self.lg):
            h = X4
            for layer in path:
                h = layer.forward(h)
            outs.append(h)
        self._split = [o.shape[1] for o in outs]
        z = np.concatenate(outs, axis=1)
        h = self.fc_relu.forward(self.fc1.forward(z))
        return self.fc2.forward(h)

    def _backward(self, dlogits):
        dh = self.fc2.backward(dlogits)
        dz = self.fc1.backward(self.fc_relu.backward(dh))
        i = 0
        for path, width in zip((self.sq, self.wd, self.lg), self._split):
            d = dz[:, i : i + width]
            for layer in reversed(path):
                d = layer.backward(d)
            i += width

    def _adam_step(self, t, lr):
        wd = self.cfg.weight_decay
        for lay in self._layers_with_params():
            for name in ("W", "b"):
                key = (id(lay), name)
                grad = getattr(lay, "d" + name)
                if name == "W" and wd and not isinstance(lay, BatchNorm2D):
                    grad = grad + wd * getattr(lay, name)
                if key not in self._adam_state:
                    self._adam_state[key] = (np.zeros_like(grad), np.zeros_like(grad))
                adam_step(getattr(lay, name), grad, *self._adam_state[key], t, lr)

    # ---- public API -------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "CommCNN":
        """Train on community matrices X (n, k, width), int labels y."""
        c = self.cfg
        X = np.asarray(X, dtype=np.float64).reshape(-1, 1, c.k, c.width)
        self.col_scale = 1.0 / np.maximum(np.abs(X).max(axis=(0, 1, 2)), 1e-6)
        X = X * self.col_scale[None, None, None, :]
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        g = np.random.default_rng(c.seed + 1)
        self._set_training(True)
        t = 0
        for epoch in range(c.epochs):
            # step decay: ×0.3 at 60% and 85% of the schedule
            lr = c.lr * (0.3 ** ((epoch >= 0.6 * c.epochs) + (epoch >= 0.85 * c.epochs)))
            order = g.permutation(n)
            for s in range(0, n, c.batch_size):
                idx = order[s : s + c.batch_size]
                xb, yb = X[idx], y[idx]
                if c.row_dropout:
                    # member dropout: a community seen through a random
                    # subset of its members is the same community —
                    # regularizes against memorizing individual rows
                    keep = g.random((len(xb), 1, c.k, 1)) >= c.row_dropout
                    xb = xb * keep
                logits = self._forward(xb)
                P = softmax(logits)
                Y = np.eye(c.n_classes)[yb]
                self._zero_grads()
                self._backward((P - Y) / len(yb))
                t += 1
                self._adam_step(t, lr)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        c = self.cfg
        X = np.asarray(X, dtype=np.float64).reshape(-1, 1, c.k, c.width)
        X = X * self.col_scale[None, None, None, :]
        self._set_training(False)
        out = []
        for s in range(0, len(X), 256):
            out.append(softmax(self._forward(X[s : s + 256])))
        return np.concatenate(out) if out else np.zeros((0, c.n_classes))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    # ---- broadcast-friendly weight export/import --------------------
    def get_params(self) -> dict:
        """Flat weight dict (plus config) for Spark broadcast."""
        weights = []
        for lay in self._layers_with_params():
            entry = {"W": lay.W.copy(), "b": lay.b.copy()}
            if isinstance(lay, BatchNorm2D):
                entry["run_mu"] = lay.run_mu.copy()
                entry["run_var"] = lay.run_var.copy()
            weights.append(entry)
        return {"cfg": self.cfg, "weights": weights, "col_scale": self.col_scale.copy()}

    @classmethod
    def from_params(cls, params: dict) -> "CommCNN":
        m = cls(params["cfg"])
        for lay, entry in zip(m._layers_with_params(), params["weights"]):
            lay.W[:] = entry["W"]
            lay.b[:] = entry["b"]
            if isinstance(lay, BatchNorm2D):
                lay.run_mu[:] = entry["run_mu"]
                lay.run_var[:] = entry["run_var"]
        m.col_scale = params["col_scale"].copy()
        return m
