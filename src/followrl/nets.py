"""Minimal fully-connected network machinery in float64 numpy.

Explicit forward/backward for the fixed MLP graph (ReLU hidden layers,
linear or tanh head), Adam updates, hard/soft target copies, and a small
binary parameter format that round-trips bit-exactly.  K nets of one
architecture can be held as one stack whose forward is one matmul per
layer over the leading member axis, bit for bit the K solo forwards.
"""

import struct

import numpy as np

MAGIC = b"FRLN"
_ACT_CODES = {"linear": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class MlpNet:
    """Stack of affine layers, ReLU between them, configurable head.

    A solo net's ``flat`` is its (P,) parameter vector.  ``MlpNet.stack``
    holds K nets of one architecture as a net whose ``flat`` is (K, P),
    one row per member; ``member(k)`` is a solo net bound to row k."""

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
        """Adopt ``flat`` as the parameter vector, or the (K, P) rows of a
        stack, with weights and biases its _views: every write to them must
        be in place."""
        self.sizes = [int(s) for s in sizes]
        self.out_activation = out_activation
        self.flat = flat
        self._lead = flat.shape[:-1]
        self._layout = _layout(self.sizes)
        self.weights, self.biases = _views(self._layout, flat)
        # forward's and backward's 2-D product.  np.dot gives matmul's bits
        # at less cost per call, but for a 1 x 1 by 1 x 1 product, where it
        # keeps the sign of a zero that matmul makes +0.0; only a layer of
        # one input and one output meets that product.  A stack's products
        # broadcast over the member axis, which np.dot does not do
        unit_layer = (1, 1) in zip(self.sizes, self.sizes[1:])
        self._product = np.matmul if self._lead or unit_layer else np.dot
        return self

    @classmethod
    def stack(cls, nets):
        """K solo nets of one architecture as one net: ``flat`` (K, P),
        weights (K, n_in, n_out) and biases (K, 1, n_out), all views into
        it.  The parameters are copied in; member k starts equal to
        nets[k]."""
        first = nets[0]
        for net in nets:
            _check_same_arch(first, net)
            if net.flat.ndim != 1:
                raise ValueError("a stack is made of solo nets")
        return cls.__new__(cls)._bind(first.sizes, first.out_activation,
                                      np.stack([net.flat for net in nets]))

    def member(self, k):
        """Solo net bound to row k of this stack: it reads and writes the
        stack's parameters."""
        if self.flat.ndim != 2:
            raise ValueError("a solo net has no members")
        return MlpNet.__new__(MlpNet)._bind(self.sizes, self.out_activation,
                                            self.flat[k])

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
        per row; returns (n, sizes[-1]).  A stack of K takes (K, n,
        sizes[0]), member k's batch in x[k], and returns (K, n, sizes[-1]).

        With cache=True returns (output, cache) for a later backward();
        ``member_cache`` takes a member's share of a stack's cache.
        """
        h = np.asarray(x, dtype=float)
        lead = self._lead
        if (h.ndim != len(lead) + 2 or h.shape[:-2] != lead
                or h.shape[-1] != self.sizes[0]):
            want = ", ".join([*map(str, lead), "n", str(self.sizes[0])])
            raise ValueError(f"input shape {h.shape} is not ({want})")
        product = self._product
        pre, post = [], [h]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = product(h, w)
            z += b
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

    def backward(self, cache, dout, dpre=None, out=None):
        """Exact parameter gradients, given the gradient of a scalar loss
        w.r.t. the network output; ``dpre`` adds the gradient of an extra
        loss term on the head's pre-activation.  Returns a gradient set:
        "flat" in ``self.flat``'s layout, "weights" and "biases" its
        _views.  Given ``out``, a gradient set of this net's shape such as
        AdamState.grads, writes into it and returns it.  A stack's members
        each run their own backward (see member_cache)."""
        if self._lead:
            raise ValueError("backward runs on a solo net or a member")
        if out is None:
            out = _grad_set(self)
        elif out["flat"].shape != self.flat.shape:
            raise ValueError(f"gradient set shape {out['flat'].shape} != "
                             f"parameter shape {self.flat.shape}")
        self._backprop(cache, dout, dpre, out["weights"], out["biases"])
        return out

    def input_grad(self, cache, dout):
        """Gradient w.r.t. the input, given dout as backward takes it."""
        return self._backprop(cache, dout)

    def _backprop(self, cache, dout, dpre=None, dw=None, db=None):
        """Given views dw, db, fills them with the parameter gradients and
        skips layer 0's input product; else returns the input gradient."""
        if cache is None or "post" not in cache:
            raise ValueError("backward needs the cache from a forward call")
        last = self.n_layers - 1
        pre, post = cache["pre"], cache["post"]
        grad = np.asarray(dout, dtype=float)
        product = self._product
        for i in range(last, -1, -1):
            if i == last:
                if self.out_activation == "tanh":
                    # the cached output is tanh(z)
                    grad = grad * (1.0 - post[i + 1] ** 2)
                if dpre is not None:
                    grad = grad + dpre
            else:
                # grad is the fresh product of the layer above
                grad *= pre[i] > 0.0
            if dw is not None:
                product(post[i].T, grad, dw[i])
                np.add.reduce(grad, 0, None, db[i])
                if i == 0:
                    return None
            grad = product(grad, self.weights[i].T)
        return grad

    def save(self, path):
        """One flat binary file: magic, layer count, sizes, activation code,
        then all float64 parameters.  The header is the file's whole
        description, which load() reads and checks.  A stack saves member
        by member."""
        if self._lead:
            raise ValueError("save writes a solo net; save each member")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(self.sizes)))
            fh.write(struct.pack(f"<{len(self.sizes)}I", *self.sizes))
            fh.write(struct.pack("<I", _ACT_CODES[self.out_activation]))
            fh.write(self.flat.tobytes())

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


def member_cache(cache, k):
    """Member k's share of a stack's forward cache, as its own forward
    would have cached it: views, for that member's backward or input_grad."""
    return {"pre": [z[k] for z in cache["pre"]],
            "post": [h[k] for h in cache["post"]]}


def _layout(sizes):
    """Per layer: the weight slice, the weight shape and the bias slice of
    a vector of _n_parameters(sizes) values, in file order W0, b0, W1, b1,
    ..."""
    layout, end = [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        start, mid, end = end, end + n_in * n_out, end + (n_in + 1) * n_out
        layout.append((slice(start, mid), (n_in, n_out), slice(mid, end)))
    return layout


def _views(layout, flat):
    """Weight and bias views into flat in _layout's order: (n_in, n_out)
    and (n_out,) for a vector, (K, n_in, n_out) and (K, 1, n_out) for the
    (K, P) rows of a stack."""
    if flat.ndim == 1:
        return ([flat[w].reshape(shape) for w, shape, _ in layout],
                [flat[b] for _, _, b in layout])
    k = len(flat)
    return ([flat[:, w].reshape(k, *shape) for w, shape, _ in layout],
            [flat[:, b].reshape(k, 1, -1) for _, _, b in layout])


def _grad_set(net):
    """A gradient set: "flat" like net.flat, "weights" and "biases" its _views."""
    flat = np.empty_like(net.flat)
    weights, biases = _views(net._layout, flat)
    return {"flat": flat, "weights": weights, "biases": biases}


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
        # net.backward(..., out=state.grads) writes the gradient here
        self.grads = _grad_set(net)
        # opt_step's scratch: it writes its temporaries here
        self.work = (np.empty_like(net.flat), np.empty_like(net.flat))


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
    step, denom = state.work
    # m = b1*m + (1 - b1)*g, v = b2*v + (1 - b2)*g*g and then
    # flat -= lr*(m/bias1) / (sqrt(v/bias2) + eps), in this order of
    # operations, with every temporary in the scratch arrays
    m *= b1
    np.multiply(1.0 - b1, g, step)
    m += step
    v *= b2
    np.multiply(1.0 - b2, g, step)
    step *= g
    v += step
    np.divide(m, bias1, step)
    np.multiply(state.lr, step, step)
    np.divide(v, bias2, denom)
    np.sqrt(denom, denom)
    denom += ADAM_EPS
    step /= denom
    net.flat -= step


FIT_BATCH = 32
FIT_LR = 0.001


def fit_mse(sizes, x, y, lo, hi, epochs, seed):
    """Fit a tanh-headed MlpNet, its output mapped linearly onto [lo, hi],
    to targets y (n, sizes[-1]) from inputs x by MSE over shuffled
    minibatches of FIT_BATCH rows.  Deterministic under the seed."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
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
            grads = net.backward(cache, 2.0 * diff * ((hi - lo) / 2.0) / len(idx),
                                 out=opt.grads)
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
