import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from followrl import AdamState, MlpNet, opt_step, soft_update
from followrl.nets import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ADAM_FLUSH_EVERY,
                           ADAM_TINY_M, FIT_BATCH, FIT_LR, fit_mse, hard_update,
                           member_cache)


def matmul_forward(net, x):
    """MlpNet.forward as one plain loop over the layers, every product
    through np.matmul: the bit-for-bit reference for forward and its cache,
    whatever products, bias shapes and layer plan forward uses.  Returns
    (output, cache)."""
    h = np.asarray(x, dtype=float)
    pre, post = [], [h]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w
        z += b
        pre.append(z)
        if i < len(net.weights) - 1:
            h = np.maximum(z, 0.0)
        elif net.out_activation == "tanh":
            h = np.tanh(z)
        else:
            h = z
        post.append(h)
    return h, {"pre": pre, "post": post}


def matmul_backward(net, cache, dout, dpre=None):
    """MlpNet.backward's "flat" and the input gradient (input_grad's when
    dpre is None) with every product through np.matmul, the reference as
    matmul_forward is."""
    pre, post = cache["pre"], cache["post"]
    last = len(net.weights) - 1
    grad = np.asarray(dout, dtype=float)
    parts = [None] * len(net.weights)
    for i in range(last, -1, -1):
        if i == last:
            if net.out_activation == "tanh":
                grad = grad * (1.0 - post[i + 1] ** 2)
            if dpre is not None:
                grad = grad + dpre
        else:
            grad *= pre[i] > 0.0
        parts[i] = np.concatenate(((post[i].T @ grad).ravel(),
                                   np.add.reduce(grad, 0)))
        grad = grad @ net.weights[i].T
    return np.concatenate(parts), grad


def numeric_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


ARCHS = [
    ([4, 32, 32, 1], "tanh"),      # actor / BC
    ([5, 32, 32, 1], "linear"),    # critic
    ([3, 16, 16, 2], "tanh"),      # control net
]


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = MlpNet([4, 8, 1], "linear", seed=0)
        for p in net.parameters():
            p[...] = 0.0
        assert np.all(net.forward(np.ones((1, 4))) == 0.0)

    def test_identity_tanh_at_zero(self):
        net = MlpNet([1, 1], "tanh", seed=0)
        net.weights[0][...] = 1.0
        net.biases[0][...] = 0.0
        assert net.forward(np.zeros((1, 1)))[0, 0] == 0.0

    def test_tanh_bounded(self):
        net = MlpNet([4, 32, 32, 1], "tanh", seed=3)
        x = np.random.default_rng(0).standard_normal((100, 4)) * 10
        y = net.forward(x)
        assert np.all(np.abs(y) < 1.0)

    def test_dimension_mismatch_rejected(self):
        # inputs are (n, sizes[0]) batches; a single sample is one row
        net = MlpNet([4, 8, 1], "linear", seed=0)
        for shape in [(2, 3), (4,), (1, 1, 4)]:
            with pytest.raises(ValueError, match=rf"\({shape[0]},"):
                net.forward(np.ones(shape))


class TestBackward:
    @pytest.mark.parametrize("sizes,act", ARCHS)
    def test_finite_difference_check(self, sizes, act):
        rng = np.random.default_rng(sum(sizes))
        for trial in range(3):
            net = MlpNet(sizes, act, seed=trial)
            x = rng.standard_normal(sizes[0])[None]
            w = rng.standard_normal(sizes[-1])[None]  # random scalarization

            def loss():
                return float(np.sum(net.forward(x) * w))

            out, cache = net.forward(x, cache=True)
            grads = net.backward(cache, w)
            flat = grads["weights"] + grads["biases"]
            for p, g in zip(net.parameters(), flat):
                num = numeric_grad(loss, p)
                scale = np.maximum(np.abs(num), 1e-6)
                assert np.max(np.abs(g - num) / scale) < 1e-4
            g_in = numeric_grad(loss, x)
            assert np.allclose(net.input_grad(cache, w), g_in, atol=1e-6)

    @pytest.mark.parametrize("sizes,act", ARCHS)
    def test_preactivation_term_finite_difference(self, sizes, act):
        # dpre carries the gradient of an extra loss on the head's
        # pre-activation z, here c * sum(z^2), as DdpgAgent's actor uses it
        rng = np.random.default_rng(sum(sizes) + 1)
        net = MlpNet(sizes, act, seed=4)
        x = rng.standard_normal((5, sizes[0]))
        w = rng.standard_normal((5, sizes[-1]))
        c = 0.7

        def loss():
            out, cache = net.forward(x, cache=True)
            return float(np.sum(out * w) + c * np.sum(cache["pre"][-1] ** 2))

        _, cache = net.forward(x, cache=True)
        grads = net.backward(cache, w, 2.0 * c * cache["pre"][-1])
        flat = grads["weights"] + grads["biases"]
        for p, g in zip(net.parameters(), flat):
            num = numeric_grad(loss, p)
            scale = np.maximum(np.abs(num), 1e-6)
            assert np.max(np.abs(g - num) / scale) < 1e-4

    def test_zero_output_gradient(self):
        net = MlpNet([4, 8, 2], "linear", seed=5)
        _, cache = net.forward(np.ones((1, 4)), cache=True)
        grads = net.backward(cache, np.zeros((1, 2)))
        assert all(np.all(g == 0) for g in grads["weights"] + grads["biases"])

    def test_tanh_unit_derivative_at_zero(self):
        net = MlpNet([1, 1], "tanh", seed=0)
        net.weights[0][...] = 1.0
        net.biases[0][...] = 0.0
        _, cache = net.forward(np.zeros((1, 1)), cache=True)
        assert net.input_grad(cache, np.array([[3.0]]))[0, 0] == pytest.approx(3.0)

    def test_stale_cache_rejected(self):
        net = MlpNet([2, 2], "linear", seed=0)
        with pytest.raises(ValueError):
            net.backward(None, np.zeros(2))

    @pytest.mark.parametrize("sizes,act", ARCHS + [([4, 1], "tanh")])
    def test_without_input_gradient(self, sizes, act):
        # backward gives the parameter gradients only and skips layer 0's
        # input product, a one-layer net's only one; input_grad gives the
        # input gradient.  Each is the matmul reference's, bit for bit
        rng = np.random.default_rng(3)
        net = MlpNet(sizes, act, seed=6)
        _, cache = net.forward(rng.standard_normal((9, sizes[0])), cache=True)
        dout = rng.standard_normal((9, sizes[-1]))
        dpre = rng.standard_normal((9, sizes[-1]))
        grads = net.backward(cache, dout, dpre)
        assert set(grads) == {"flat", "weights", "biases"}
        assert (grads["flat"].tobytes()
                == matmul_backward(net, cache, dout, dpre)[0].tobytes())
        assert (net.input_grad(cache, dout).tobytes()
                == matmul_backward(net, cache, dout)[1].tobytes())

    @pytest.mark.parametrize("sizes,act", ARCHS)
    def test_net_state_unchanged(self, sizes, act):
        # a net holds its parameters and their layout; backward, fresh or
        # into a gradient set, leaves every attribute as it was
        net = MlpNet(sizes, act, seed=2)
        before = dict(vars(net))
        flat = net.flat.copy()
        _, cache = net.forward(np.ones((3, sizes[0])), cache=True)
        net.backward(cache, np.ones((3, sizes[-1])))
        net.backward(cache, np.ones((3, sizes[-1])), out=AdamState(net).grads)
        net.input_grad(cache, np.ones((3, sizes[-1])))
        assert vars(net).keys() == before.keys()
        assert all(vars(net)[k] is v for k, v in before.items())
        assert net.flat.tobytes() == flat.tobytes()


class TestBackwardInto:
    @pytest.mark.parametrize("sizes,act", ARCHS)
    def test_results_are_views_of_out(self, sizes, act):
        # out=opt.grads writes what the allocating call returns into that
        # gradient set and returns it; a second set, and then the first
        # again, must each get it too
        rng = np.random.default_rng(4)
        net = MlpNet(sizes, act, seed=7)
        sets = [AdamState(net).grads, AdamState(net).grads]
        for grads in (sets[0], sets[1], sets[0]):
            flat = grads["flat"]
            _, cache = net.forward(rng.standard_normal((6, sizes[0])), cache=True)
            dout = rng.standard_normal((6, sizes[-1]))
            dpre = rng.standard_normal((6, sizes[-1]))
            fresh = net.backward(cache, dout, dpre)
            into = net.backward(cache, dout, dpre, out=grads)
            assert into is grads and into["flat"] is flat
            assert_views(flat, into["weights"] + into["biases"])
            assert flat.tobytes() == fresh["flat"].tobytes()
            assert not np.shares_memory(fresh["flat"], flat)

    def test_member_writes_into_out(self):
        pair = MlpNet.stack(solo_nets([5, 32, 32, 1], "linear", 2, 3))
        _, cache = pair.forward(np.ones((2, 4, 5)), cache=True)
        for k in range(2):
            member = pair.member(k)
            grads = AdamState(member).grads
            got = member.backward(member_cache(cache, k), np.ones((4, 1)),
                                  out=grads)
            want = member.backward(member_cache(cache, k), np.ones((4, 1)))
            assert got is grads
            assert not np.shares_memory(grads["flat"], pair.flat)
            assert grads["flat"].tobytes() == want["flat"].tobytes()

    @pytest.mark.parametrize("make", [
        lambda net: MlpNet([4, 7, 1], "tanh", seed=0),
        lambda net: MlpNet([5, 8, 1], "tanh", seed=0),
        lambda net: MlpNet.stack([net, net])],
        ids=["short", "long", "2-D"])
    def test_bad_out_rejected(self, make):
        # the gradient set of another architecture, or of a stack
        net = MlpNet([4, 8, 1], "tanh", seed=0)
        _, cache = net.forward(np.ones((3, 4)), cache=True)
        grads = AdamState(make(net)).grads
        with pytest.raises(ValueError, match=re.escape(
                f"gradient set shape {grads['flat'].shape} != parameter "
                f"shape {net.flat.shape}")):
            net.backward(cache, np.ones((3, 1)), out=grads)


class TestDotProducts:
    # ndarray.dot takes a 1 x 1 by 1 x 1 product as a scalar one, keeping
    # the sign of a zero that matmul turns into +0.0; a one-row batch
    # through a layer of one input and one output meets it.  The actor's
    # shape at one row has a 1 x 1 operand in backward, but no such product
    @example(sizes=[1, 1, 1], act="linear", k=0, n=1, with_dpre=False, seed=0)
    @example(sizes=[3, 1, 1, 2], act="tanh", k=2, n=1, with_dpre=True, seed=2)
    @example(sizes=[4, 32, 32, 1], act="tanh", k=0, n=1, with_dpre=True, seed=0)
    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4),
           act=st.sampled_from(["linear", "tanh"]), k=st.integers(0, 3),
           n=st.integers(1, 64), with_dpre=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_match_matmul_reference(self, sizes, act, k, n, with_dpre, seed):
        # a solo net (k = 0) and the members of a K = k stack take their
        # 2-D products with ndarray.dot: forward, its cache, backward and
        # input_grad must be matmul's, bit for bit
        nets = solo_nets(sizes, act, max(k, 1), seed % 1000)
        if k:
            pair = MlpNet.stack(nets)
            nets = [pair.member(j) for j in range(k)]
        rng = np.random.default_rng(seed)
        for net in nets:
            x = rng.standard_normal((n, sizes[0])) * 3.0
            dout = rng.standard_normal((n, sizes[-1]))
            dpre = rng.standard_normal((n, sizes[-1])) if with_dpre else None
            out, cache = net.forward(x, cache=True)
            want, want_cache = matmul_forward(net, x)
            assert out.tobytes() == want.tobytes()
            for key in ("pre", "post"):
                assert [a.tobytes() for a in cache[key]] == \
                       [a.tobytes() for a in want_cache[key]]
            got = net.backward(cache, dout, dpre)
            assert (got["flat"].tobytes()
                    == matmul_backward(net, want_cache, dout, dpre)[0].tobytes())
            assert (net.input_grad(cache, dout).tobytes()
                    == matmul_backward(net, want_cache, dout)[1].tobytes())

    @pytest.mark.parametrize("sizes, form, want", [
        ([4, 32, 32, 1], "solo", np.ndarray.dot),
        ([4, 32, 32, 1], "member", np.ndarray.dot),
        ([4, 32, 32, 1], "stack", np.matmul),
        ([1, 1, 1], "solo", np.matmul),
        ([3, 1, 1, 2], "member", np.matmul),
    ])
    def test_product_choice(self, sizes, form, want):
        # ndarray.dot is np.dot's routine without its dispatch; a stack
        # broadcasts over the member axis and a 1 -> 1 layer needs matmul's
        # sign of zero
        pair = MlpNet.stack(solo_nets(sizes, "tanh", 2, 0))
        net = {"solo": MlpNet(sizes, "tanh", seed=0), "member": pair.member(1),
               "stack": pair}[form]
        assert net._product is want


def fan_in_uniform_init(sizes, act, seed):
    """MlpNet(sizes, act, seed).flat as one generator draws it: per layer,
    the (n_in, n_out) weights and then the n_out biases, each uniform in
    +-1/sqrt(n_in)."""
    rng = np.random.default_rng(seed)
    parts = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        parts.append(rng.uniform(-bound, bound, size=(n_in, n_out)).ravel())
        parts.append(rng.uniform(-bound, bound, size=n_out))
    return np.concatenate(parts)


BIAS_ARCHS = ARCHS + [([1, 1, 1], "linear"), ([3, 1, 1, 2], "tanh")]


class TestBiasRows:
    """A solo net's and a member's biases are (1, n_out) rows, the row of a
    stack's (K, 1, n_out), so that a one-row forward adds them on numpy's
    same-shape loop."""

    @pytest.mark.parametrize("sizes, act", BIAS_ARCHS)
    def test_shapes_and_views(self, sizes, act):
        pair = MlpNet.stack(solo_nets(sizes, act, 2, 1))
        solo = MlpNet(sizes, act, seed=1)
        for k in range(2):
            member = pair.member(k)
            for i, b in enumerate(member.biases):
                row = pair.biases[i][k]
                assert b.shape == row.shape == (1, sizes[i + 1])
                assert b.ctypes.data == row.ctypes.data
                assert np.shares_memory(b, pair.flat)
        _, cache = solo.forward(np.ones((3, sizes[0])), cache=True)
        sets = [AdamState(solo).grads, AdamState(pair.member(1)).grads,
                solo.backward(cache, np.ones((3, sizes[-1])))]
        for i, n_out in enumerate(sizes[1:]):
            assert solo.biases[i].shape == (1, n_out)
            assert all(s["biases"][i].shape == (1, n_out) for s in sets)

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("sizes, act", BIAS_ARCHS)
    def test_init_unchanged(self, sizes, act, seed):
        # a (1, n) draw takes the same values as an (n,) one
        assert (MlpNet(sizes, act, seed=seed).flat.tobytes()
                == fan_in_uniform_init(sizes, act, seed).tobytes())


class TestLayerPlan:
    """forward and _backprop run a plan fixed when the net is bound: the
    hidden layers as one uniform loop, the head on its own, no cache lists
    unless asked for.  The bits are those of the per-layer loop of
    matmul_backward."""

    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("form", ["solo", "member", "stack"])
    @pytest.mark.parametrize("sizes, act", BIAS_ARCHS + [([4, 1], "tanh")])
    def test_forward_without_cache(self, sizes, act, form, n):
        rng = np.random.default_rng(n + 3 * len(sizes))
        pair = MlpNet.stack(solo_nets(sizes, act, 2, 4))
        nets = {"solo": [MlpNet(sizes, act, seed=4)],
                "member": [pair.member(0), pair.member(1)],
                "stack": [pair]}[form]
        for net in nets:
            x = rng.standard_normal(net.flat.shape[:-1] + (n, sizes[0])) * 3.0
            assert (net.forward(x).tobytes()
                    == net.forward(x, cache=True)[0].tobytes())

    @pytest.mark.parametrize("with_dpre", [False, True])
    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("form", ["solo", "member"])
    @pytest.mark.parametrize("sizes, act", BIAS_ARCHS + [([4, 1], "tanh")])
    def test_backprop_matches_per_layer_loop(self, sizes, act, form, n,
                                             with_dpre):
        # every plan shape, a head-only net and 1 -> 1 layers among them,
        # into a fresh "flat" and into an optimizer's buffer
        rng = np.random.default_rng(7 * n + len(sizes))
        net = (MlpNet(sizes, act, seed=5) if form == "solo"
               else MlpNet.stack(solo_nets(sizes, act, 2, 5)).member(1))
        x = rng.standard_normal((n, sizes[0])) * 3.0
        dout = rng.standard_normal((n, sizes[-1]))
        dpre = rng.standard_normal((n, sizes[-1])) if with_dpre else None
        dout_before = dout.tobytes()
        _, cache = net.forward(x, cache=True)
        want = matmul_backward(net, cache, dout, dpre)[0]
        assert net.backward(cache, dout, dpre)["flat"].tobytes() == want.tobytes()
        into = net.backward(cache, dout, dpre, out=AdamState(net).grads)
        assert into["flat"].tobytes() == want.tobytes()
        assert (net.input_grad(cache, dout).tobytes()
                == matmul_backward(net, cache, dout)[1].tobytes())
        # the head's first step makes a fresh array: dout is the caller's
        assert dout.tobytes() == dout_before


def reference_fit_mse(sizes, x, y, lo, hi, epochs, seed):
    """fit_mse's loop gathering each minibatch by fancy indexing: the
    bit-for-bit reference for its take() gathers."""
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
            grads = net.backward(cache, 2.0 * diff * ((hi - lo) / 2.0) / len(idx),
                                 out=opt.grads)
            opt_step(net, grads, opt)
    return net


def fit_inputs(kind):
    """(sizes, x, y, lo, hi) in the forms fit_mse's callers pass."""
    rng = np.random.default_rng(11)
    if kind == "strided":
        # train_control_net: columns of one (n, 5) array
        samples = rng.uniform(0.0, 1.0, size=(300, 5))
        return [3, 16, 16, 2], samples[:, :3], samples[:, 3:], 0.0, 1.0
    n = 70 if kind == "70-rows" else 200
    states = rng.standard_normal((n, 4))
    actions = rng.uniform(-3.0, 2.0, size=n)
    # bc_train: a column view of the actions
    x, y = states, actions[:, None]
    if kind == "lists":
        x, y = x.tolist(), y.tolist()
    return [4, 32, 32, 1], x, y, -3.0, 2.0


class TestFitMse:
    @pytest.mark.parametrize("kind", ["strided", "bc-column", "lists", "70-rows"])
    def test_matches_fancy_index_reference(self, kind):
        # 70 rows leave a last minibatch of 6
        sizes, x, y, lo, hi = fit_inputs(kind)
        x_before, y_before = np.array(x), np.array(y)
        net = fit_mse(sizes, x, y, lo, hi, 3, 5)
        ref = reference_fit_mse(sizes, np.asarray(x), np.asarray(y), lo, hi, 3, 5)
        assert net.flat.tobytes() == ref.flat.tobytes()
        assert np.array(x).tobytes() == x_before.tobytes()
        assert np.array(y).tobytes() == y_before.tobytes()

    @pytest.mark.parametrize("change, match", [
        (lambda x, y, lo, hi: (x, y[:60], lo, hi), r"\(100, 4\) and y \(60, 2\)"),
        (lambda x, y, lo, hi: (x[:, :3], y, lo, hi), r"x \(100, 3\)"),
        # an (n, 1) target would broadcast over both outputs
        (lambda x, y, lo, hi: (x, y[:, :1], lo, hi),
         r"y \(100, 1\) are not \(n, 4\) and \(n, 2\)"),
        (lambda x, y, lo, hi: (x[0], y[0], lo, hi), r"x \(4,\) and y \(2,\)"),
        (lambda x, y, lo, hi: (x[:0], y[:0], lo, hi), "at least one row"),
        (lambda x, y, lo, hi: (x, y, hi, lo), "lo=2.0, hi=-3.0"),
        (lambda x, y, lo, hi: (x, y, lo, lo), "lo=-3.0, hi=-3.0"),
        (lambda x, y, lo, hi: (x, y, float("nan"), hi), "lo=nan"),
        (lambda x, y, lo, hi: (x, y, lo, float("inf")), "hi=inf"),
        (lambda x, y, lo, hi: (np.where(x > 2.0, np.nan, x), y, lo, hi),
         "non-finite"),
        (lambda x, y, lo, hi: (x, np.where(y > 1.0, np.inf, y), lo, hi),
         "non-finite"),
    ], ids=["short-y", "narrow-x", "one-column-y", "one-row-vector", "no-rows",
            "lo-above-hi", "lo-equals-hi", "nan-lo", "inf-hi", "nan-x", "inf-y"])
    def test_malformed_data_rejected(self, change, match):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((100, 4)), rng.uniform(-3.0, 2.0, (100, 2))
        x, y, lo, hi = change(x, y, -3.0, 2.0)
        with pytest.raises(ValueError, match=match):
            fit_mse([4, 8, 2], x, y, lo, hi, 1, 0)


class TestAdam:
    def test_zero_gradient_no_change(self):
        net = MlpNet([2, 3, 1], "linear", seed=0)
        before = [p.copy() for p in net.parameters()]
        opt_step(net, {"flat": np.zeros_like(net.flat)}, AdamState(net))
        for b, p in zip(before, net.parameters()):
            assert np.array_equal(b, p)

    def test_first_step_is_minus_lr(self):
        net = MlpNet([1, 1], "linear", seed=0)
        net.weights[0][...] = 0.5
        net.biases[0][...] = 0.0
        # flat is (W0, b0)
        opt_step(net, {"flat": np.array([1.0, 0.0])}, AdamState(net, lr=0.001))
        # bias-corrected first step: -lr * g/(|g| + eps) ~ -lr
        assert net.weights[0][0, 0] == pytest.approx(0.5 - 0.001, abs=1e-8)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            net = MlpNet([3, 4, 1], "linear", seed=9)
            state = AdamState(net)
            rng = np.random.default_rng(1)
            for _ in range(20):
                x = rng.standard_normal(3)[None]
                _, cache = net.forward(x, cache=True)
                grads = net.backward(cache, np.ones((1, 1)))
                opt_step(net, grads, state)
            runs.append([p.copy() for p in net.parameters()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_gradient_shape_mismatch_rejected(self):
        net = MlpNet([2, 3, 1], "linear", seed=0)
        with pytest.raises(ValueError, match="gradient shape"):
            opt_step(net, {"flat": np.zeros(net.flat.size - 1)}, AdamState(net))

    def test_matches_textbook_expression(self):
        # opt_step writes its temporaries into scratch arrays and skips a
        # bias correction once it rounds to 1.0 (t = 356 and 37,412); every
        # ADAM_FLUSH_EVERY steps it zeros first moments below ADAM_TINY_M.
        # The result must be the plain expression's, bit for bit, step after
        # step, from a fresh state and from states at step start - 1: the
        # runs from 350 and 37,405 cross the two switch points, and the run
        # from 980 the first zeroing step
        for start in (1, 350, 980, 37_405):
            self.check_textbook_run(start)

    @staticmethod
    def check_textbook_run(start):
        net = MlpNet([5, 32, 32, 1], "linear", seed=2)
        ref, state = net.flat.copy(), AdamState(net, lr=3e-4)
        rng = np.random.default_rng(5 + start)
        m, v = np.zeros_like(ref), np.zeros_like(ref)
        if start > 1:
            m = rng.standard_normal(ref.shape) * 10.0 ** rng.integers(-210, -2, ref.shape)
            v = rng.random(ref.shape) * 10.0 ** rng.integers(-12, 0, ref.shape)
        # a dead unit's gradient is exactly zero: its moments only decay
        dead = rng.random(ref.shape) < 0.3
        if start == 980:
            # two dead entries on either side of ADAM_TINY_M at step 1,000:
            # b1**21 * 1e-199 stays, b1**21 * 5e-200 is zeroed
            kept, zeroed = np.flatnonzero(dead)[:2]
            m[kept], m[zeroed] = 1e-199, -5e-200
        state.t, state.m[...], state.v[...] = start - 1, m, v
        for t in range(start, start + 40):
            g = rng.standard_normal(ref.shape) * 10.0 ** rng.integers(-12, 3)
            g[dead] = 0.0
            opt_step(net, {"flat": g}, state)
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            ref -= (3e-4 * (m / (1.0 - ADAM_BETA1 ** t))
                    / (np.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS))
            if t % ADAM_FLUSH_EVERY == 0:
                tiny = np.abs(m) < ADAM_TINY_M
                assert np.any(tiny & (m != 0.0))
                if start == 980:
                    assert 0.0 < m[kept] < 1.1 * ADAM_TINY_M
                    assert -ADAM_TINY_M < m[zeroed] < 0.0
                m = np.where(tiny, 0.0, m)
            assert net.flat.tobytes() == ref.tobytes(), (start, t)
            assert state.m.tobytes() == m.tobytes(), (start, t)
            assert state.v.tobytes() == v.tobytes(), (start, t)


class TestSoftUpdate:
    def test_tau_one_copies(self):
        src = MlpNet([2, 3, 1], "linear", seed=1)
        tgt = MlpNet([2, 3, 1], "linear", seed=2)
        soft_update(tgt, src, 1.0)
        for a, b in zip(tgt.parameters(), src.parameters()):
            assert np.array_equal(a, b)

    def test_tau_zero_identity(self):
        src = MlpNet([2, 3, 1], "linear", seed=1)
        tgt = MlpNet([2, 3, 1], "linear", seed=2)
        before = [p.copy() for p in tgt.parameters()]
        soft_update(tgt, src, 0.0)
        for a, b in zip(before, tgt.parameters()):
            assert np.array_equal(a, b)

    def test_scalar_instance(self):
        src = MlpNet([1, 1], "linear", seed=0)
        tgt = MlpNet([1, 1], "linear", seed=0)
        src.weights[0][...] = 1.0
        tgt.weights[0][...] = 0.0
        soft_update(tgt, src, 0.001)
        assert tgt.weights[0][0, 0] == pytest.approx(0.001)

    def test_geometric_convergence(self):
        src = MlpNet([3, 8, 1], "tanh", seed=4)
        tgt = MlpNet([3, 8, 1], "tanh", seed=5)
        tau = 0.01
        init_dev = max(np.max(np.abs(a - b))
                       for a, b in zip(tgt.parameters(), src.parameters()))
        for k in range(1, 501):
            soft_update(tgt, src, tau)
        dev = max(np.max(np.abs(a - b))
                  for a, b in zip(tgt.parameters(), src.parameters()))
        assert dev == pytest.approx((1 - tau) ** 500 * init_dev, abs=1e-9)

    def test_architecture_mismatch(self):
        with pytest.raises(ValueError):
            soft_update(MlpNet([2, 1], "linear", seed=0),
                        MlpNet([2, 2, 1], "linear", seed=0), 0.5)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        for sizes, act in ARCHS:
            net = MlpNet(sizes, act, seed=8)
            path = str(tmp_path / "net.bin")
            net.save(path)
            loaded = MlpNet.load(path)
            assert loaded.sizes == net.sizes
            assert loaded.out_activation == net.out_activation
            for a, b in zip(net.parameters(), loaded.parameters()):
                assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            MlpNet.load(str(path))

    @pytest.mark.parametrize("cut, extra", [(8, b""), (3, b""),
                                            (0, b"\x00" * 8), (0, b"\x01")])
    def test_parameter_bytes_must_match_header(self, tmp_path, cut, extra):
        path = tmp_path / "net.bin"
        MlpNet([4, 8, 1], "tanh", seed=0).save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - cut] + extra)
        with pytest.raises(ValueError, match="net.bin"):
            MlpNet.load(str(path))

    def test_header_cut_short_names_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"FRLN\x02")
        with pytest.raises(ValueError, match="short.bin"):
            MlpNet.load(str(path))

    def test_non_finite_parameter_names_file(self, tmp_path):
        # a BC-shaped net with one NaN weight: read back, its tanh head
        # would put out NaN actions
        path = tmp_path / "bc.bin"
        net = MlpNet([4, 32, 32, 1], "tanh", seed=0)
        for bad in (np.nan, np.inf):
            net.flat[5] = bad
            net.save(str(path))
            with pytest.raises(ValueError, match="bc.bin: non-finite"):
                MlpNet.load(str(path))

    def test_unknown_activation_names_file(self, tmp_path):
        path = tmp_path / "act.bin"
        MlpNet([4, 8, 1], "tanh", seed=0).save(str(path))
        data = bytearray(path.read_bytes())
        # magic, layer count, three sizes, then the activation code
        data[20:24] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="act.bin"):
            MlpNet.load(str(path))


def assert_flat_views(net):
    assert_views(net.flat, net.parameters())
    # _backprop's transposed weights are views of the same parameters
    assert all(w_t.base is w.base and np.array_equal(w_t, w.T)
               for w_t, w in zip(net._weights_t, net.weights))


def assert_views(flat, parts):
    """Every array of parts is a view into the vector flat, and together
    they cover each element of it exactly once."""
    assert flat.dtype == np.float64 and flat.ndim == 1
    base = flat.__array_interface__["data"][0]
    hits = np.zeros(flat.size, dtype=int)
    for p in parts:
        assert np.shares_memory(p, flat) and p.flags.c_contiguous
        start = (p.__array_interface__["data"][0] - base) // 8
        hits[start:start + p.size] += 1
    assert np.all(hits == 1)


class TestFlatParameters:
    @pytest.mark.parametrize("sizes, act", ARCHS)
    def test_views_after_every_operation(self, tmp_path, sizes, act):
        net = MlpNet(sizes, act, seed=3)
        assert_flat_views(net)
        clone = net.copy()
        assert_flat_views(clone)
        assert not np.shares_memory(clone.flat, net.flat)
        path = str(tmp_path / "net.bin")
        net.save(path)
        assert_flat_views(MlpNet.load(path))
        _, cache = net.forward(np.ones((1, sizes[0])), cache=True)
        grads = net.backward(cache, np.ones((1, sizes[-1])))
        # the gradient has net.flat's layout: W0, b0, W1, b1, ...
        assert_views(grads["flat"], grads["weights"] + grads["biases"])
        assert all(g.shape == p.shape for g, p in
                   zip(grads["weights"] + grads["biases"], net.parameters()))
        opt_step(net, grads, AdamState(net))
        assert_flat_views(net)
        soft_update(clone, net, 0.5)
        hard_update(clone, net)
        assert_flat_views(clone)
        assert np.array_equal(clone.flat, net.flat)

    def test_agent_nets_are_views(self):
        from followrl import DdpgAgent
        agent = DdpgAgent(seed=0)
        for net in (agent.actor, agent.critic,
                    agent.actor_target, agent.critic_target):
            assert_flat_views(net)


def solo_nets(sizes, act, k, seed):
    return [MlpNet(sizes, act, seed=seed + j) for j in range(k)]


class TestStack:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4),
           act=st.sampled_from(["linear", "tanh"]), k=st.integers(1, 3),
           n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    def test_members_match_solo_forwards(self, sizes, act, k, n, seed):
        # one matmul per layer over the member axis gives each member's
        # solo output and cache, bit for bit
        nets = solo_nets(sizes, act, k, seed % 1000)
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal((n, sizes[0])) * 3.0 for _ in range(k)]
        out, cache = MlpNet.stack(nets).forward(np.stack(xs), cache=True)
        assert out.shape == (k, n, sizes[-1])
        for j, (net, x) in enumerate(zip(nets, xs)):
            solo, solo_cache = net.forward(x, cache=True)
            assert out[j].tobytes() == solo.tobytes()
            mine = member_cache(cache, j)
            for key in ("pre", "post"):
                assert [a.tobytes() for a in mine[key]] == \
                       [a.tobytes() for a in solo_cache[key]]

    def test_layout_and_members_are_views(self):
        nets = solo_nets([5, 32, 32, 1], "linear", 2, 0)
        pair = MlpNet.stack(nets)
        p = nets[0].flat.size
        assert pair.flat.shape == (2, p) and pair.flat.flags.c_contiguous
        for layer, (w, b) in enumerate(zip(pair.weights, pair.biases)):
            n_in, n_out = nets[0].weights[layer].shape
            assert w.shape == (2, n_in, n_out) and b.shape == (2, 1, n_out)
            assert np.shares_memory(w, pair.flat) and np.shares_memory(b, pair.flat)
        for k, net in enumerate(nets):
            member = pair.member(k)
            assert member.flat.tobytes() == net.flat.tobytes()
            assert not np.shares_memory(member.flat, net.flat)
            assert_flat_views(member)
            # a write through the member is a write to its stack row
            member.biases[-1][...] = 7.0 + k
            assert np.all(pair.biases[-1][k] == 7.0 + k)

    def test_misuse_rejected(self):
        a = MlpNet([4, 8, 1], "tanh", seed=0)
        with pytest.raises(ValueError, match="architecture"):
            MlpNet.stack([a, MlpNet([4, 8, 1], "linear", seed=0)])
        pair = MlpNet.stack([a, a])
        with pytest.raises(ValueError, match="solo nets"):
            MlpNet.stack([pair, pair])
        with pytest.raises(ValueError, match="no members"):
            a.member(0)
        with pytest.raises(ValueError, match=r"is not \(2, n, 4\)"):
            pair.forward(np.ones((3, 5, 4)))
        with pytest.raises(ValueError, match=r"is not \(2, n, 4\)"):
            pair.forward(np.ones((5, 4)))
        _, cache = pair.forward(np.ones((2, 5, 4)), cache=True)
        with pytest.raises(ValueError, match="solo net or a member"):
            pair.backward(cache, np.ones((2, 5, 1)))
        with pytest.raises(ValueError, match="save each member"):
            pair.save("unused.bin")


def test_hard_update():
    src = MlpNet([2, 3, 1], "linear", seed=1)
    tgt = MlpNet([2, 3, 1], "linear", seed=2)
    hard_update(tgt, src)
    for a, b in zip(tgt.parameters(), src.parameters()):
        assert np.array_equal(a, b)
