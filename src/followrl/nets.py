"""Minimal fully-connected network machinery in float64 numpy.

Explicit forward/backward for the fixed MLP graph (ReLU hidden layers,
linear or tanh head), Adam updates, hard/soft target copies, and a small
binary parameter format that round-trips bit-exactly.
"""

import json
import struct

import numpy as np

MAGIC = b"FRLN"
_ACT_CODES = {"linear": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class MlpNet:
    """Stack of affine layers, ReLU between them, configurable head."""

    def __init__(self, sizes, out_activation="linear", seed=None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if out_activation not in _ACT_CODES:
            raise ValueError(f"unsupported output activation {out_activation!r}")
        self._bind(sizes, out_activation, np.empty(_n_parameters(sizes)))
        rng = np.random.default_rng(seed)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, sizes, out_activation, flat):
        """Adopt ``flat`` as the parameter vector, with weights and biases
        its _views: every write to them must be in place."""
        self.sizes = [int(s) for s in sizes]
        self.out_activation = out_activation
        self.flat = flat
        self.weights, self.biases = _views(self.sizes, flat)
        return self

    @property
    def n_layers(self):
        return len(self.weights)

    def parameters(self):
        return self.weights + self.biases

    def copy(self):
        return MlpNet.__new__(MlpNet)._bind(self.sizes, self.out_activation,
                                            self.flat.copy())

    def forward(self, x, cache=False):
        """Forward pass for a batch x of shape (n, sizes[0]), one sample
        per row; returns (n, sizes[-1]).

        With cache=True returns (output, cache) for a later backward().
        """
        h = np.asarray(x, dtype=float)
        if h.ndim != 2 or h.shape[1] != self.sizes[0]:
            raise ValueError(f"input shape {h.shape} is not (n, {self.sizes[0]})")
        pre, post = [], [h]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            if i < last:
                h = np.maximum(z, 0.0)
            elif self.out_activation == "tanh":
                h = np.tanh(z)
            else:
                h = z
            post.append(h)
        if cache:
            return h, {"pre": pre, "post": post}
        return h

    def backward(self, cache, dout, dpre=None):
        """Exact gradients for every parameter and the input, given the
        gradient of a scalar loss w.r.t. the network output.  ``dpre`` adds
        the gradient of an extra loss term on the head's pre-activation.
        "flat" holds the parameter gradients in ``self.flat``'s layout, and
        "weights" and "biases" are its _views."""
        flat = np.empty_like(self.flat)
        dw, db = _views(self.sizes, flat)
        din = self._backprop(cache, dout, dpre, dw, db)
        return {"flat": flat, "weights": dw, "biases": db, "input": din}

    def input_grad(self, cache, dout):
        """The "input" entry of backward(cache, dout), bit for bit, without
        computing the parameter gradients."""
        return self._backprop(cache, dout, None, None, None)

    def _backprop(self, cache, dout, dpre, dw, db):
        """Input gradient; also fills the views dw, db unless they are None."""
        if cache is None or "post" not in cache:
            raise ValueError("backward needs the cache from a forward call")
        last = self.n_layers - 1
        grad = np.asarray(dout, dtype=float)
        for i in range(last, -1, -1):
            if i == last:
                if self.out_activation == "tanh":
                    # the cached output is tanh(z)
                    grad = grad * (1.0 - cache["post"][i + 1] ** 2)
                if dpre is not None:
                    grad = grad + dpre
            else:
                grad = grad * (cache["pre"][i] > 0.0)
            if dw is not None:
                np.matmul(cache["post"][i].T, grad, out=dw[i])
                grad.sum(axis=0, out=db[i])
            grad = grad @ self.weights[i].T
        return grad

    def save(self, path):
        """Flat binary file: magic, layer count, sizes, activation code,
        then all float64 parameters; plus a sidecar .manifest.json."""
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(self.sizes)))
            fh.write(struct.pack(f"<{len(self.sizes)}I", *self.sizes))
            fh.write(struct.pack("<I", _ACT_CODES[self.out_activation]))
            fh.write(self.flat.tobytes())
        manifest = {
            "format": "followrl-mlp-v1",
            "sizes": self.sizes,
            "out_activation": self.out_activation,
            "dtype": "float64",
            "n_parameters": int(self.flat.size),
        }
        with open(str(path) + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != MAGIC:
            raise ValueError(f"{path} is not a followrl parameter file")
        # unpack_from checks each length against the bytes read, so a bad
        # header fails here instead of allocating what it asks for
        try:
            (n,) = struct.unpack_from("<I", data, 4)
            sizes = struct.unpack_from(f"<{n}I", data, 8)
            (act,) = struct.unpack_from("<I", data, 8 + 4 * n)
        except struct.error:
            raise ValueError(f"{path}: header is cut short") from None
        if n < 2 or act not in _ACT_NAMES:
            raise ValueError(f"{path}: bad header: layer sizes "
                             f"{list(sizes)}, activation code {act}")
        start = 12 + 4 * n
        if len(data) - start != 8 * _n_parameters(sizes):
            raise ValueError(f"{path}: parameter bytes do not match the "
                             f"layer sizes {list(sizes)}")
        flat = np.frombuffer(data, dtype=float, offset=start).copy()
        if not np.isfinite(flat).all():
            raise ValueError(f"{path}: non-finite parameter")
        return cls.__new__(cls)._bind(sizes, _ACT_NAMES[act], flat)


def _views(sizes, flat):
    """Weight (n_in, n_out) and bias (n_out,) views into a vector of
    _n_parameters(sizes) values, laid out in file order W0, b0, W1, b1, ..."""
    weights, biases = [], []
    end = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        start, end = end, end + n_in * n_out
        weights.append(flat[start:end].reshape(n_in, n_out))
        biases.append(flat[end:end + n_out])
        end += n_out
    return weights, biases


def _n_parameters(sizes):
    return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adaptive-moment optimizer state for one MlpNet."""

    def __init__(self, net: MlpNet, lr=0.001):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)


def opt_step(net: MlpNet, grads, state: AdamState):
    """One Adam update in place; grads is the dict from net.backward()."""
    g = grads["flat"]
    if g.shape != net.flat.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape "
                         f"{net.flat.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    net.flat -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


FIT_BATCH = 32
FIT_LR = 0.001


def fit_mse(sizes, x, y, lo, hi, epochs, seed):
    """Fit a tanh-headed MlpNet, its output mapped linearly onto [lo, hi],
    to targets y (n, sizes[-1]) from inputs x by MSE over shuffled
    minibatches of FIT_BATCH rows.  Deterministic under the seed."""
    net_seed, shuffle_seed = np.random.SeedSequence(seed).spawn(2)
    net = MlpNet(sizes, "tanh", seed=net_seed)
    opt = AdamState(net, lr=FIT_LR)
    rng = np.random.default_rng(shuffle_seed)
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, FIT_BATCH):
            idx = order[start:start + FIT_BATCH]
            u, cache = net.forward(x[idx], cache=True)
            diff = lo + (u + 1.0) / 2.0 * (hi - lo) - y[idx]
            # d(mse)/du = 2*diff/m * d(pred)/du, d(pred)/du = (hi - lo)/2
            grads = net.backward(cache, 2.0 * diff * ((hi - lo) / 2.0) / len(idx))
            opt_step(net, grads, opt)
    return net


def hard_update(target: MlpNet, source: MlpNet):
    _check_same_arch(target, source)
    target.flat[...] = source.flat


def soft_update(target: MlpNet, source: MlpNet, tau):
    """Polyak averaging: target <- tau*source + (1 - tau)*target."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    _check_same_arch(target, source)
    target.flat *= 1.0 - tau
    target.flat += tau * source.flat


def _check_same_arch(a: MlpNet, b: MlpNet):
    if a.sizes != b.sizes or a.out_activation != b.out_activation:
        raise ValueError("architecture mismatch")
