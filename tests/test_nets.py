import numpy as np
import pytest

from followrl import AdamState, MlpNet, opt_step, soft_update
from followrl.nets import hard_update


def straight_line_forward(net, x):
    """Independent re-implementation of the forward arithmetic."""
    h = np.asarray(x, dtype=float)
    for i in range(net.n_layers):
        z = h @ net.weights[i] + net.biases[i]
        if i < net.n_layers - 1:
            h = np.where(z > 0, z, 0.0)
        elif net.out_activation == "tanh":
            h = np.tanh(z)
        else:
            h = z
    return h


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

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(7)
        for sizes, act in ARCHS:
            net = MlpNet(sizes, act, seed=11)
            x = rng.standard_normal((5, sizes[0]))
            assert np.allclose(net.forward(x), straight_line_forward(net, x), atol=1e-12)

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
            assert np.allclose(grads["input"], g_in, atol=1e-6)

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
        assert np.allclose(grads["input"], numeric_grad(loss, x), atol=1e-6)

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
        grads = net.backward(cache, np.array([[3.0]]))
        assert grads["input"][0, 0] == pytest.approx(3.0)

    def test_stale_cache_rejected(self):
        net = MlpNet([2, 2], "linear", seed=0)
        with pytest.raises(ValueError):
            net.backward(None, np.zeros(2))


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

    def test_manifest_written(self, tmp_path):
        net = MlpNet([4, 32, 32, 1], "tanh", seed=0)
        path = str(tmp_path / "net.bin")
        net.save(path)
        import json
        with open(path + ".manifest.json") as fh:
            man = json.load(fh)
        assert man["sizes"] == [4, 32, 32, 1]
        assert man["n_parameters"] == 4 * 32 + 32 + 32 * 32 + 32 + 32 + 1

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


def test_hard_update():
    src = MlpNet([2, 3, 1], "linear", seed=1)
    tgt = MlpNet([2, 3, 1], "linear", seed=2)
    hard_update(tgt, src)
    for a, b in zip(tgt.parameters(), src.parameters()):
        assert np.array_equal(a, b)
