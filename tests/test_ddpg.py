import dataclasses
import hashlib
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from followrl import (DdpgAgent, DdpgConfig, MlpNet, ReplayBuffer,
                      RewardConfig, SimConfig, Transition, datasets, ddpg,
                      sample_mixed)
from followrl.baselines import IdmController, bc_train, calibrate_idm
from followrl.config import IdmParams, PowertrainParams
from followrl.control import (collect_reverse_data, read_reverse_csv,
                              train_control_net, write_reverse_csv)
from followrl.ddpg import (PREACT_L2, STATE_DIM, Batch, mix_count,
                           train_fully_offpolicy, train_stage1, train_stage2)
from followrl.nets import AdamState, member_cache, opt_step, soft_update
from followrl.evaluate import compare_report, run_scenario, self_defined_profile
from followrl.simcore import unscale_action


def make_transition(rng, done=False, reward=None):
    return Transition(rng.uniform(0, 1, 4),
                      float(rng.uniform(-9, 5)),
                      float(rng.uniform(-1, 0.5)) if reward is None else reward,
                      rng.uniform(0, 1, 4), done)


def filled_buffer(n, seed=0, capacity=None):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity or n)
    for _ in range(n):
        buf.add(make_transition(rng))
    return buf


NETS = ("actor", "critic", "actor_target", "critic_target")


def tagged_rows(n, seed, start=0):
    """n random transitions, each known by its reward: start + its index."""
    rng = np.random.default_rng(seed)
    return [make_transition(rng, done=bool(rng.integers(2)),
                            reward=float(start + k)) for k in range(n)]


def buffer_of(rows, capacity=None):
    buf = ReplayBuffer(capacity or len(rows))
    for tr in rows:
        buf.add(tr)
    return buf


def ring(rows, capacity):
    """Reference ring buffer: row i holds the last added row k with
    k % capacity == i."""
    ref = rows[:capacity]
    for k in range(capacity, len(rows)):
        ref[k % capacity] = rows[k]
    return ref


def batch_of(transitions):
    """The transitions as a Batch, written in row by row."""
    out = Batch.empty(len(transitions))
    for i, tr in enumerate(transitions):
        out.states[i] = tr.state
        out.actions[i] = tr.action
        out.rewards[i] = tr.reward
        out.next_states[i] = tr.next_state
        out.dones[i] = tr.done
    return out


def stacked(transitions):
    """Reference columns of a list of transitions, one row per object."""
    return (np.stack([t.state for t in transitions]),
            np.array([t.action for t in transitions]),
            np.array([t.reward for t in transitions]),
            np.stack([t.next_state for t in transitions]),
            np.array([t.done for t in transitions]))


def assert_columns(columns, transitions):
    for col, ref in zip(columns, stacked(transitions), strict=True):
        assert col.dtype == ref.dtype and np.array_equal(col, ref)


def stored(buf):
    """The buffer's filled rows, column by column."""
    return [col[:len(buf)] for col in buf.rows.columns]


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = buffer_of(tagged_rows(15, 0), capacity=10)
        assert len(buf) == 10
        assert sorted(buf.rows.rewards[:10].tolist()) == list(range(5, 15))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(5).sample(np.random.default_rng(0), 2)

    @settings(max_examples=60, deadline=None)
    @given(capacity=st.one_of(st.integers(1, 9), st.integers(1000, 1100)),
           fill=st.floats(0.0, 2.5), seed=st.integers(0, 2 ** 32 - 1))
    @example(capacity=1100, fill=1.5, seed=0)
    def test_columns_match_storage(self, capacity, fill, seed):
        # past the capacity the cursor wraps and rows are overwritten in
        # place; past 1024 rows the columns grow (the explicit example
        # grows them, then wraps)
        rows = tagged_rows(int(fill * capacity), seed)
        buf = buffer_of(rows, capacity)
        assert len(buf) == min(len(rows), capacity)
        if rows:
            assert_columns(stored(buf), ring(rows, capacity))

    def test_sample_matches_list_reference(self):
        rows = tagged_rows(25, 20)
        buf, ref_rows = buffer_of(rows, 20), ring(rows, 20)   # wrapped once
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(20):
            batch = buf.sample(rng, 32)
            ref = [ref_rows[i] for i in ref_rng.integers(0, 20, size=32)]
            assert_columns(batch.columns, ref)


finite = st.floats(allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=4, max_size=4).map(np.array)
transitions = st.builds(Transition, vectors, finite, finite, vectors,
                        st.booleans())


def same(a, b):
    """Bit-exact equality of two Batches, dtypes and shapes included."""
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in zip(a.columns, b.columns, strict=True))


class TestBatch:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(transitions, max_size=50), cut=st.integers(0, 50))
    def test_round_trips(self, rows, cut):
        batch = batch_of(rows)
        n = len(rows)
        assert [col.shape for col in batch.columns] == [(n, 4), (n,), (n,),
                                                       (n, 4), (n,)]
        assert [col.dtype for col in batch.columns] == [float] * 4 + [bool]
        back = list(batch)
        assert all(a.state.tobytes() == b.state.tobytes()
                   and a.next_state.tobytes() == b.next_state.tobytes()
                   and (a.action, a.reward, a.done) == (b.action, b.reward, b.done)
                   for a, b in zip(back, rows, strict=True))
        assert same(batch_of(back), batch)
        head, tail = np.arange(n)[:cut], np.arange(n)[cut:]
        assert same(batch.take(head), batch_of(rows[:cut]))
        assert same(batch.take(np.arange(n)[::-1]), batch_of(rows[::-1]))
        assert same(Batch.concat([batch.take(head), batch.take(tail)]), batch)
        if n:           # a store holds at least one transition
            with tempfile.TemporaryDirectory() as tmp:
                path = f"{tmp}/store.npz"
                datasets.save_transition_store(
                    path, datasets.RelabeledDataset(batch, [("rows", n)]))
                assert same(datasets.load_transition_store(path).transitions,
                            batch)


def assert_c_contiguous(batch):
    assert all(col.flags.c_contiguous for col in batch.columns)


class TestContiguousColumns:
    """Batch.take gathers with ndarray.take, which copies a non-contiguous
    column whole before it gathers (51 us against 0.69 us for 32 of 6,000
    rows): every Batch that replay and mixing sample from has C-contiguous
    columns."""

    def test_batch_operations(self):
        rows = tagged_rows(40, 3)
        batch = batch_of(rows)
        assert_c_contiguous(Batch.empty(7))
        assert_c_contiguous(batch)
        assert_c_contiguous(batch.take(np.arange(40)[::-3]))
        assert_c_contiguous(Batch.concat([batch.take(np.arange(5)), batch]))
        mixed = sample_mixed(buffer_of(rows[:20]), buffer_of(rows[20:]), 32,
                             0.6, np.random.default_rng(0))
        assert_c_contiguous(mixed)

    def test_buffer_after_growth(self):
        # the rows start at 1,024 and double up to the capacity
        buf = filled_buffer(1500, capacity=3000)
        assert len(buf.rows) == 2048
        assert_c_contiguous(buf.rows)
        assert_c_contiguous(buf.sample(np.random.default_rng(1), 32))

    def test_recorded_data(self, tmp_path):
        sim, rcfg = SimConfig(), RewardConfig()
        ep = datasets.make_synthetic(1, 2, sim, rcfg, duration=10.0)[0]
        ds = datasets.build_transitions(ep, sim, rcfg)
        assert_c_contiguous(ds.transitions)
        path = str(tmp_path / "store.npz")
        datasets.save_transition_store(path, ds)
        loaded = datasets.load_transition_store(path)
        assert_c_contiguous(loaded.transitions)
        assert_c_contiguous(loaded.to_buffer().rows)


class TestSampleMixed:
    # simulation rows carry rewards 0.., practical rows 100..
    def test_all_practical(self):
        sim = buffer_of(tagged_rows(50, 1))
        prac = buffer_of(tagged_rows(50, 2, start=100))
        batch = sample_mixed(sim, prac, 32, 1.0, np.random.default_rng(0))
        assert len(batch) == 32
        assert all(100 <= r < 150 for r in batch.rewards)

    def test_rounding_19_13(self):
        assert mix_count(0.6, 32) == 19

    @pytest.mark.parametrize("r", [i / 10 for i in range(11)])
    def test_exact_composition(self, r):
        sim = buffer_of(tagged_rows(40, 3))
        prac = buffer_of(tagged_rows(40, 4, start=100))
        rng = np.random.default_rng(5)
        expect = int(np.floor(r * 32 + 0.5))
        for _ in range(50):
            rewards = sample_mixed(sim, prac, 32, r, rng).rewards
            n_prac = int(np.sum((rewards >= 100) & (rewards < 140)))
            n_sim = int(np.sum(rewards < 40))
            assert n_prac == expect and n_sim == 32 - expect

    def test_uniform_sampling_frequency(self):
        # each practical transition drawn ~ uniformly over many batches
        sim = buffer_of(tagged_rows(20, 6))
        prac = buffer_of(tagged_rows(20, 7, start=100))
        rng = np.random.default_rng(8)
        counts = np.zeros(20, dtype=int)
        n_batches = 10 ** 4
        for _ in range(n_batches):
            rewards = sample_mixed(sim, prac, 32, 0.5, rng).rewards
            counts += np.bincount(rewards[rewards >= 100].astype(int) - 100,
                                  minlength=20)
        draws = n_batches * 16
        assert counts.sum() == draws
        p = 1 / 20
        sigma = np.sqrt(draws * p * (1 - p))
        for c in counts:
            assert abs(c - draws * p) < 3.5 * sigma

    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
    def test_matches_list_reference(self, r):
        sim_rows, prac_rows = tagged_rows(45, 22), tagged_rows(30, 23, start=100)
        sim, prac = buffer_of(sim_rows, capacity=40), buffer_of(prac_rows)
        sim_rows = ring(sim_rows, 40)
        rng, ref_rng = np.random.default_rng(24), np.random.default_rng(24)
        for _ in range(20):
            batch = sample_mixed(sim, prac, 32, r, rng)
            # the draws of the list-only sampler: practical, sim, permutation
            n_prac, ref = mix_count(r, 32), []
            if n_prac:
                ref += [prac_rows[i] for i in
                        ref_rng.integers(0, len(prac_rows), size=n_prac)]
            if n_prac < 32:
                ref += [sim_rows[i] for i in
                        ref_rng.integers(0, len(sim_rows), size=32 - n_prac)]
            ref = [ref[i] for i in ref_rng.permutation(32)]
            assert_columns(batch.columns, ref)

    def test_empty_required_buffer_rejected(self):
        full = filled_buffer(10, 9)
        empty = ReplayBuffer(10)
        for sim, prac in ((full, empty), (empty, full)):
            with pytest.raises(ValueError, match="cannot sample from an empty"):
                sample_mixed(sim, prac, 32, 0.5, np.random.default_rng(0))
        # but r=0 never touches the practical buffer, nor r=1 the other
        assert len(sample_mixed(full, empty, 32, 0.0,
                                np.random.default_rng(0))) == 32
        assert len(sample_mixed(empty, full, 32, 1.0,
                                np.random.default_rng(0))) == 32

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, batch_size):
        sim, prac = filled_buffer(10, 9), filled_buffer(10, 10)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError,
                           match=f"batch_size must be >= 1, got {batch_size}"):
            sample_mixed(sim, prac, batch_size, 0.5, rng)
        assert rng.bit_generator.state == before     # nothing was drawn

    @pytest.mark.parametrize("batch_size", [1, 31, 32])
    @pytest.mark.parametrize("r", [0.0, 1 / 32, 0.5, 0.6, 1.0])
    def test_matches_concat_then_permute(self, mixing_buffers, r, batch_size):
        sim, prac = mixing_buffers
        rng, ref_rng = np.random.default_rng(27), np.random.default_rng(27)
        for _ in range(5):
            batch = sample_mixed(sim, prac, batch_size, r, rng)
            assert same(batch, concat_then_permute(sim, prac, batch_size, r,
                                                   ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def concat_then_permute(sim_buf, practical_buf, batch_size, r, rng):
    """sample_mixed as two ReplayBuffer.sample calls, Batch.concat and a
    Batch.take of the permutation: the reference for its direct gather."""
    n_prac = mix_count(r, batch_size)
    n_sim = batch_size - n_prac
    parts = []
    if n_prac:
        parts.append(practical_buf.sample(rng, n_prac))
    if n_sim:
        parts.append(sim_buf.sample(rng, n_sim))
    return Batch.concat(parts).take(rng.permutation(batch_size))


@pytest.fixture(scope="module")
def mixing_buffers():
    """A simulation buffer grown past its first 1,024 rows and a practical
    buffer wrapped past its capacity."""
    sim = buffer_of(tagged_rows(1500, 25), capacity=3000)
    prac = buffer_of(tagged_rows(700, 26, start=10_000), capacity=500)
    assert len(sim.rows) == 2048 and prac.cursor == 200
    return sim, prac


class TestSelectAction:
    def test_zero_actor_midpoint(self):
        agent = DdpgAgent(seed=0)
        for p in agent.actor.parameters():
            p[...] = 0.0
        a = agent.select_action(np.zeros(4))
        assert a == pytest.approx(-2.0)

    def test_greedy_deterministic(self):
        agent = DdpgAgent(seed=1)
        obs = np.array([0.3, 0.5, 0.1, 0.2])
        assert agent.select_action(obs) == agent.select_action(obs)

    def test_greedy_invariant_to_noise_state(self):
        agent = DdpgAgent(seed=1)
        obs = np.array([0.3, 0.5, 0.1, 0.2])
        a1 = agent.select_action(obs)
        for _ in range(100):
            agent.select_action(obs, explore=True)
        assert agent.select_action(obs) == a1

    def test_noise_zero_mean(self):
        agent = DdpgAgent(seed=2)
        obs = np.array([0.3, 0.5, 0.1, 0.2])
        greedy = agent.select_action(obs)
        n = 10 ** 5
        draws = np.array([agent.select_action(obs, explore=True)
                          for _ in range(n)])
        # OU noise is autocorrelated: it decays by theta*dt per step, so it
        # decorrelates over ~1/(theta*dt) steps and the variance of the mean
        # over n per-step draws is ~ var * 2/(theta*dt*n)
        theta_step = agent.cfg.noise.theta * agent.sim_cfg.dt
        se = draws.std() * np.sqrt(2.0 / (theta_step * n))
        assert abs(draws.mean() - greedy) < 3 * se

    def test_clipped_to_bounds(self):
        agent = DdpgAgent(seed=3)
        obs = np.array([0.0, 0.0, 0.0, 0.0])
        draws = [agent.select_action(obs, explore=True) for _ in range(1000)]
        assert all(-9.0 <= a <= 5.0 for a in draws)


class TestTrainStep:
    def test_terminal_masking(self):
        # y_i = r_i exactly for done transitions, independent of target nets
        agent1 = DdpgAgent(seed=4)
        agent2 = DdpgAgent(seed=4)
        # perturb agent2's target nets only
        for p in agent2.actor_target.parameters() + agent2.critic_target.parameters():
            p += 123.0
        rng = np.random.default_rng(10)
        batch = batch_of([make_transition(rng, done=True) for _ in range(32)])
        d1 = agent1.train_step(batch)
        d2 = agent2.train_step(batch)
        assert d1["critic_loss"] == d2["critic_loss"]
        for a, b in zip(agent1.critic.parameters(), agent2.critic.parameters()):
            assert np.array_equal(a, b)

    def test_gamma_zero_regresses_rewards(self):
        cfg = DdpgConfig(gamma=0.0)
        agent = DdpgAgent(cfg, seed=5)
        rng = np.random.default_rng(11)
        rows = [make_transition(rng) for _ in range(32)]
        batch = batch_of(rows)
        for _ in range(4000):
            agent.train_step(batch)
        s = np.stack([t.state for t in rows])
        a = np.array([[unscale_action(t.action, agent.sim_cfg)] for t in rows])
        q = agent.critic.forward(np.hstack([s, a]))[:, 0]
        r = np.array([t.reward for t in rows])
        assert np.max(np.abs(q - r)) < 1e-3

    def test_target_update_bound(self):
        agent = DdpgAgent(seed=6)
        tau = agent.cfg.tau
        before = [p.copy() for p in agent.actor_target.parameters()]
        rng = np.random.default_rng(12)
        agent.train_step(batch_of([make_transition(rng) for _ in range(32)]))
        moved = [np.max(np.abs(s - b))
                 for b, s in zip(before, agent.actor.parameters())]
        assert max(moved) > 0.0          # the actor itself took a step
        for b, t, m in zip(before, agent.actor_target.parameters(), moved):
            assert np.max(np.abs(t - b)) <= tau * m + 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            DdpgAgent(seed=0).train_step(Batch.empty(0))

    def test_held_update_has_no_actor_q(self):
        # a held update skips the Q(s, actor(s)) forward that only fed
        # actor_q; the critic still learns
        agent = DdpgAgent(seed=8)
        rng = np.random.default_rng(19)
        batch = batch_of([make_transition(rng) for _ in range(32)])
        critic = agent.critic.flat.copy()
        held = agent.train_step(batch, update_actor=False)
        assert held["actor_q"] is None and math.isfinite(held["critic_loss"])
        assert not np.array_equal(agent.critic.flat, critic)
        moved = agent.train_step(batch)
        assert isinstance(moved["actor_q"], float)

    def test_non_finite_loss_rejected_before_any_write(self):
        agent = DdpgAgent(seed=9)
        rng = np.random.default_rng(17)
        rows = [make_transition(rng) for _ in range(32)]
        rows[5] = make_transition(rng, reward=float("nan"))
        batch = batch_of(rows)
        before = {name: getattr(agent, name).flat.copy() for name in NETS}
        opts = (agent.critic_opt, agent.actor_opt)
        moments = [(opt.m.copy(), opt.v.copy()) for opt in opts]
        with pytest.raises(ValueError, match="non-finite"):
            agent.train_step(batch)
        for name in NETS:
            assert np.array_equal(getattr(agent, name).flat, before[name])
        assert agent.critic_opt.t == agent.actor_opt.t == 0
        for opt, (m, v) in zip(opts, moments):
            assert opt.m.tobytes() == m.tobytes()
            assert opt.v.tobytes() == v.tobytes()


def reference_train_step(ref, batch, update_actor=True):
    """DdpgAgent.train_step as five solo forwards on four separate nets:
    the bit-for-bit reference for the stacked update.  ``ref`` holds the
    four nets, both AdamStates, cfg and sim_cfg."""
    n = len(batch)
    s, a, r, s2, done = batch.columns
    a = unscale_action(a[:, None], ref.sim_cfg)
    live = 1.0 - done[:, None]

    a2 = ref.actor_target.forward(s2)
    q2 = ref.critic_target.forward(np.concatenate((s2, a2), axis=1))
    y = r[:, None] + ref.cfg.gamma * live * q2

    q, cache = ref.critic.forward(np.concatenate((s, a), axis=1), cache=True)
    diff = q - y
    critic_loss = float((diff ** 2).sum() / n)
    grads = ref.critic.backward(cache, 2.0 * diff / n)
    opt_step(ref.critic, grads, ref.critic_opt)

    u, acache = ref.actor.forward(s, cache=True)
    qa, ccache = ref.critic.forward(np.concatenate((s, u), axis=1), cache=True)
    if update_actor:
        dq = ref.critic.input_grad(ccache, np.full((n, 1), 1.0 / n))
        da = dq[:, STATE_DIM:]
        dpre = 2.0 * PREACT_L2 * acache["pre"][-1] / n
        opt_step(ref.actor, ref.actor.backward(acache, -da, dpre),
                 ref.actor_opt)

    soft_update(ref.actor_target, ref.actor, ref.cfg.tau)
    soft_update(ref.critic_target, ref.critic, ref.cfg.tau)
    return {"critic_loss": critic_loss, "actor_q": float(qa.sum() / n)}


def python_float_train_step(agent, batch, update_actor=True):
    """DdpgAgent.train_step with its operands as Python floats, np.full's
    mean gradient and soft_update's Python-float arithmetic: the
    bit-for-bit reference for the 0-d operands.  Runs on ``agent``."""
    n = len(batch)
    s, a, r, s2, done = batch.columns
    c = agent.sim_cfg
    a = 2.0 * (a[:, None] - c.a_min) / (c.a_max - c.a_min) - 1.0
    live = 1.0 - done[:, None]
    actor, critic = agent.actor, agent.critic
    if update_actor:
        xs = np.empty((2, n, STATE_DIM))
        xs[0], xs[1] = s, s2
        (u, a2), acache = agent.actors.forward(xs, cache=True)
    else:
        a2 = agent.actor_target.forward(s2)
    xc = np.empty((2, n, STATE_DIM + 1))
    xc[0, :, :STATE_DIM], xc[1, :, :STATE_DIM] = s, s2
    xc[0, :, STATE_DIM:], xc[1, :, STATE_DIM:] = a, a2
    (q, q2), ccache = agent.critics.forward(xc, cache=True)
    y = r[:, None] + agent.cfg.gamma * live * q2
    diff = q - y
    critic_loss = float((diff ** 2).sum() / n)
    grads = critic.backward(member_cache(ccache, 0), 2.0 * diff / n,
                            out=agent.critic_opt.grads)
    opt_step(critic, grads, agent.critic_opt)
    actor_q = None
    if update_actor:
        qa, qcache = critic.forward(np.concatenate((s, u), axis=1),
                                    cache=True)
        dq = critic.input_grad(qcache, np.full((n, 1), 1.0 / n))
        da = dq[:, STATE_DIM:]
        acache = member_cache(acache, 0)
        dpre = 2.0 * PREACT_L2 * acache["pre"][-1] / n
        opt_step(actor, actor.backward(acache, -da, dpre,
                                       out=agent.actor_opt.grads),
                 agent.actor_opt)
        actor_q = float(qa.sum() / n)
    tau = agent.cfg.tau
    for target, source in ((agent.actor_target, actor),
                           (agent.critic_target, critic)):
        target.flat *= 1.0 - tau
        target.flat += tau * source.flat
    return {"critic_loss": critic_loss, "actor_q": actor_q}


def reference_of(agent):
    """Solo copies of an agent's four nets with fresh optimizers at the
    agent's learning rates, for reference_train_step."""
    ref = SimpleNamespace(cfg=agent.cfg, sim_cfg=agent.sim_cfg,
                          **{name: getattr(agent, name).copy() for name in NETS})
    ref.actor_opt = AdamState(ref.actor, lr=agent.actor_opt.lr)
    ref.critic_opt = AdamState(ref.critic, lr=agent.critic_opt.lr)
    return ref


def net_bytes(nets):
    return [getattr(nets, name).flat.tobytes() for name in NETS]


class TestStackedUpdate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_five_forward_reference(self, seed):
        # 50 consecutive updates, some with the actor held, on batches
        # with done rows: every parameter, loss and actor Q bit for bit
        agent = DdpgAgent(seed=seed)
        ref = reference_of(agent)
        rng = np.random.default_rng(100 + seed)
        for step in range(50):
            batch = batch_of([make_transition(rng, done=bool(rng.random() < 0.2))
                              for _ in range(32)])
            update_actor = step >= 10 and bool(rng.integers(2))
            got = agent.train_step(batch, update_actor)
            want = reference_train_step(ref, batch, update_actor)
            assert got["critic_loss"] == want["critic_loss"]
            assert got["actor_q"] == (want["actor_q"] if update_actor else None)
            assert net_bytes(agent) == net_bytes(ref)
        assert agent.actor_opt.t == ref.actor_opt.t > 0

    def test_matches_python_float_reference(self):
        # 40 held updates, then 40 actor updates, on sampled batches with
        # terminal rows, then one batch of a single row: nets, Adam
        # moments and steps, loss and actor Q all bit for bit
        agent, ref = DdpgAgent(seed=3), DdpgAgent(seed=3)
        rng = np.random.default_rng(31)
        buf = ReplayBuffer(500)
        for _ in range(500):
            buf.add(make_transition(rng, done=bool(rng.random() < 0.2)))
        batches = [buf.sample(rng, 32) for _ in range(80)] + [buf.sample(rng, 1)]
        assert sum(b.dones.any() for b in batches) > 40
        for step, batch in enumerate(batches):
            update_actor = step >= 40
            got = agent.train_step(batch, update_actor)
            want = python_float_train_step(ref, batch, update_actor)
            # repr tells float from np.float64 and -0.0 from 0.0
            assert repr(got) == repr(want)
            assert net_bytes(agent) == net_bytes(ref)
            for name in ("actor_opt", "critic_opt"):
                mine, theirs = getattr(agent, name), getattr(ref, name)
                assert mine.t == theirs.t
                assert mine.m.tobytes() == theirs.m.tobytes()
                assert mine.v.tobytes() == theirs.v.tobytes()
        assert agent.actor_opt.t == 41 and agent.critic_opt.t == 81

    def test_config_edits_reach_every_step(self):
        # gamma and the action range are read when train_step runs: an
        # agent whose configs are edited after it is made trains as one
        # made with the edited configs and given the same nets
        edited = DdpgAgent(DdpgConfig(), SimConfig(), seed=4)
        edited.cfg.gamma, edited.sim_cfg.a_min = 0.5, -6.0
        made = DdpgAgent(DdpgConfig(gamma=0.5), SimConfig(a_min=-6.0), seed=4)
        for name in NETS:
            setattr(made, name, getattr(edited, name))
        rng = np.random.default_rng(8)
        for update_actor in (False, True):
            batch = batch_of([make_transition(rng, done=bool(rng.random() < 0.2))
                              for _ in range(32)])
            assert (edited.train_step(batch, update_actor)
                    == made.train_step(batch, update_actor))
            assert net_bytes(edited) == net_bytes(made)
        unedited = DdpgAgent(seed=4)
        unedited.train_step(batch)
        assert net_bytes(unedited) != net_bytes(edited)

    def test_other_batch_sizes_on_optimizer_buffers(self):
        # the gradients go into each AdamState's own buffer; batches of
        # 32, 7, 1 and 32 rows in turn, the actor held every other update,
        # must each still give the reference's bits
        agent = DdpgAgent(seed=2)
        ref = reference_of(agent)
        rng = np.random.default_rng(30)
        for step, n in enumerate([32, 7, 1, 32] * 2):
            update_actor = step % 2 == 1
            batch = batch_of([make_transition(rng, done=bool(rng.random() < 0.2))
                              for _ in range(n)])
            got = agent.train_step(batch, update_actor)
            want = reference_train_step(ref, batch, update_actor)
            assert got["critic_loss"] == want["critic_loss"]
            assert got["actor_q"] == (want["actor_q"] if update_actor else None)
            assert net_bytes(agent) == net_bytes(ref)
        assert agent.actor_opt.t == 4 and agent.critic_opt.t == 8

    def test_assigned_nets_train_as_loaded_ones(self, tmp_path):
        # acceptance criterion 6 assigns .copy() nets into a fresh agent;
        # that copies them into the agent's stacks and trains exactly as
        # loading the same nets from disk
        sim, rcfg = SimConfig(), RewardConfig()
        source = DdpgAgent(seed=5)
        train_stage1(source, 300, seed=5)
        source.save(str(tmp_path / "src"))
        practical = datasets.relabel_episodes(
            datasets.make_synthetic(1, 0, sim, rcfg, duration=20.0),
            sim, rcfg).to_buffer()
        assigned, loaded = DdpgAgent(seed=0), DdpgAgent(seed=0)
        copies = {name: getattr(source, name).copy() for name in NETS}
        for name, net in copies.items():
            setattr(assigned, name, net)
            # the agent holds a copy, not the assigned object
            assert getattr(assigned, name) is not net
            assert not np.shares_memory(getattr(assigned, name).flat, net.flat)
        loaded.load(str(tmp_path / "src"))
        assert net_bytes(assigned) == net_bytes(loaded) == net_bytes(source)
        hists = [train_stage2(agent, practical, 0.6, 200, seed=0)
                 for agent in (assigned, loaded)]
        assert hists[0] == hists[1]
        assert assigned.critic_opt.t == 200 - assigned.cfg.batch_size + 1
        assert net_bytes(assigned) == net_bytes(loaded) != net_bytes(source)

    def test_assigning_another_architecture_rejected(self):
        agent = DdpgAgent(seed=0)
        with pytest.raises(ValueError, match="architecture"):
            agent.actor = MlpNet([4, 16, 1], "tanh", seed=0)
        with pytest.raises(ValueError, match="architecture"):
            agent.critic_target = agent.actor.copy()

    def test_members_share_the_stacks(self):
        agent = DdpgAgent(seed=0)
        for name, stack in (("actor", agent.actors), ("critic", agent.critics),
                            ("actor_target", agent.actors),
                            ("critic_target", agent.critics)):
            assert np.shares_memory(getattr(agent, name).flat, stack.flat)
        assert agent.actor.flat.tobytes() == agent.actor_target.flat.tobytes()
        assert agent.critic.flat.tobytes() == agent.critic_target.flat.tobytes()

    @pytest.mark.parametrize("update_actor, want", [
        (True, {"forward": 3, "backward": 2, "input_grad": 1, "opt_step": 2,
                "soft_update": 2}),
        (False, {"forward": 2, "backward": 1, "input_grad": 0, "opt_step": 1,
                 "soft_update": 2})])
    def test_calls_per_update(self, monkeypatch, update_actor, want):
        # the fused update: one stacked forward per online/target pair,
        # and no Q(s, actor(s)) forward while the actor is held; every
        # gradient goes into its optimizer's own buffer
        # perfbench traces nets.soft_update by name: each update makes
        # its two Polyak steps through it, online net into target
        calls = dict.fromkeys(want, 0)
        forwards, outs, polyak = [], [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "forward":
                    forwards.append((args[0], np.shape(args[1])))
                if name == "backward":
                    outs.append(kwargs.get("out"))
                if name == "soft_update":
                    polyak.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("forward", "backward", "input_grad"):
            monkeypatch.setattr(MlpNet, name, counted(name, getattr(MlpNet, name)))
        for name in ("opt_step", "soft_update"):
            monkeypatch.setattr(ddpg, name, counted(name, getattr(ddpg, name)))
        agent = DdpgAgent(seed=0)
        rng = np.random.default_rng(20)
        n = 32
        batch = batch_of([make_transition(rng) for _ in range(n)])
        for _ in range(3):
            agent.train_step(batch, update_actor)
        assert calls == {name: 3 * count for name, count in want.items()}
        grads = [agent.critic_opt.grads] + [agent.actor_opt.grads] * update_actor
        assert [id(out) for out in outs] == [id(g) for g in grads] * 3
        tau = agent.cfg.tau
        assert polyak == [(agent.actor_target, agent.actor, tau),
                          (agent.critic_target, agent.critic, tau)] * 3
        if not update_actor:
            # actor_target(s') alone, then the critics stack
            assert forwards == [(agent.actor_target, (n, STATE_DIM)),
                                (agent.critics, (2, n, STATE_DIM + 1))] * 3


class TestConfigChecks:
    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"lr": -1.0}, {"batch_size": 0},
        {"batch_size": 64, "buffer_size": 10}, {"hidden": (32, 0)}],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_bad_values_rejected(self, kwargs):
        # each once ran silently (gradient ascent on the critic loss, no
        # update at all, an untrained agent saved) or failed later with an
        # error that did not name the field
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DdpgConfig(**kwargs)

    def test_no_hidden_layer_stays_legal(self):
        agent = DdpgAgent(DdpgConfig(hidden=()), seed=0)
        assert len(agent.actor.parameters()) == 2

    @pytest.mark.parametrize("mode", ["stage1", "stage2", "off-policy"])
    def test_negative_budget_rejected(self, mode):
        agent = DdpgAgent(seed=0)
        buf = filled_buffer(40)
        train = {"stage1": lambda: train_stage1(agent, -1),
                 "stage2": lambda: train_stage2(agent, buf, 0.5, -1),
                 "off-policy": lambda: train_fully_offpolicy(agent, buf, -1)}
        with pytest.raises(ValueError, match="budget"):
            train[mode]()

    @pytest.mark.parametrize("n", [0, -2])
    def test_greedy_eval_needs_an_episode(self, n):
        # 0 episodes once died inside np.concatenate
        with pytest.raises(ValueError, match=f"n_episodes must be >= 1, got {n}"):
            ddpg.greedy_eval(DdpgAgent(seed=0), n_episodes=n)

    @pytest.mark.parametrize("ratio", [-0.1, 1.5])
    def test_stage2_ratio_rejected_on_entry(self, ratio):
        # with budget < batch_size no update runs, and the ratio was once
        # checked only at the first one
        agent = DdpgAgent(seed=0)
        with pytest.raises(ValueError, match=r"ratio r must lie in \[0, 1\]"):
            train_stage2(agent, filled_buffer(40), ratio, 10)
        assert len(agent.buffer) == 0


class TestPersistence:
    def test_save_writes_the_four_nets_only(self, tmp_path):
        DdpgAgent(seed=0).save(str(tmp_path / "run"))
        assert sorted(os.listdir(tmp_path / "run")) == sorted(
            name + ".bin" for name in NETS)

    def test_save_load_round_trip(self, tmp_path):
        agent = DdpgAgent(seed=7)
        rng = np.random.default_rng(13)
        agent.train_step(batch_of([make_transition(rng) for _ in range(32)]))
        agent.save(str(tmp_path))
        other = DdpgAgent(seed=99)
        other.load(str(tmp_path))
        for a, b in zip(agent.actor.parameters(), other.actor.parameters()):
            assert np.array_equal(a, b)
        obs = np.array([0.4, 0.5, 0.0, 0.1])
        assert agent.select_action(obs) == other.select_action(obs)

    def test_load_rejects_other_hidden_sizes(self, tmp_path):
        DdpgAgent(DdpgConfig(hidden=(16, 16)), seed=0).save(str(tmp_path))
        agent = DdpgAgent(DdpgConfig(hidden=(32, 32)), seed=0)
        with pytest.raises(ValueError, match="actor.bin"):
            agent.load(str(tmp_path))

    def test_load_rejects_another_head_before_copying(self, tmp_path):
        # a critic file with a tanh head and the critic's sizes once loaded
        # as the agent's critic; loading copies into the agent's stacks, so
        # every file is checked before any net changes
        DdpgAgent(seed=1).save(str(tmp_path))
        MlpNet([5, 32, 32, 1], "tanh", seed=0).save(str(tmp_path / "critic.bin"))
        agent = DdpgAgent(seed=2)
        before = net_bytes(agent)
        with pytest.raises(ValueError, match="critic.bin: tanh head"):
            agent.load(str(tmp_path))
        assert net_bytes(agent) == before

    def test_load_resets_optimizers(self, tmp_path):
        DdpgAgent(seed=3).save(str(tmp_path))
        agent = DdpgAgent(seed=4)
        rng = np.random.default_rng(18)
        for _ in range(50):
            agent.train_step(batch_of([make_transition(rng) for _ in range(32)]))
        assert agent.critic_opt.t == agent.actor_opt.t == 50
        agent.load(str(tmp_path))
        assert agent.critic_opt.t == agent.actor_opt.t == 0
        for opt in (agent.critic_opt, agent.actor_opt):
            assert not opt.m.any() and not opt.v.any()


def probe_actions(agent):
    """Greedy actions on a fixed 3x3 grid of speeds and gaps."""
    return np.array([agent.act(v, 0.0, v, g)
                     for v in (0.0, 5.0, 10.0) for g in (5.0, 20.0, 60.0)])


class TestStage1Saturation:
    def test_actor_held_at_coasting_until_delay(self):
        # Adam turns a fresh critic's noise-sized dQ/da into full steps,
        # which pinned the tanh actor at a bound within its first episode.
        # Stage 1 therefore holds the actor, at its initial output of about
        # 0 m/s^2 in every state, for exactly ACTOR_DELAY critic updates;
        # exploration around that output almost never reaches a bound.
        from followrl.ddpg import ACTOR_DELAY, ACTOR_LR
        agent = DdpgAgent(seed=0)
        before = [p.copy() for p in agent.actor.parameters()]
        # updates start once the buffer holds a batch: batch_size - 1 steps
        # bank data, then each step makes one update
        held = ACTOR_DELAY + agent.cfg.batch_size - 1
        hist = train_stage1(agent, held, seed=0)
        assert agent.critic_opt.t == ACTOR_DELAY
        for b, p in zip(before, agent.actor.parameters()):
            assert np.array_equal(b, p)
        assert np.max(np.abs(probe_actions(agent))) < 0.1
        assert max(h.at_bound for h in hist) < 0.01
        # the next update moves the actor, by one Adam step of ACTOR_LR
        agent.train_step(agent.buffer.sample(np.random.default_rng(0), 32),
                         update_actor=True)
        moved = max(np.max(np.abs(p - b))
                    for b, p in zip(before, agent.actor.parameters()))
        assert 0.0 < moved <= ACTOR_LR * (1 + 1e-6)

    def test_actor_stays_state_dependent(self):
        # Once the actor learns, the delay, its smaller learning rate and
        # the pre-activation penalty make saturation rarer, not impossible:
        # at 10k steps seed 0 is in a passing crash-trap phase with the
        # actor near a_max in every state (it recovers by 100k steps).  So
        # this check holds for seed 1's trajectory only.  After 10k steps
        # the greedy action must be interior and vary with the state.
        agent = DdpgAgent(seed=1)
        train_stage1(agent, 10_000, seed=1)
        sim = agent.sim_cfg
        acts = probe_actions(agent)
        margin = 0.01 * (sim.a_max - sim.a_min)
        at_bound = (acts <= sim.a_min + margin) | (acts >= sim.a_max - margin)
        assert not at_bound.all(), acts
        assert np.ptp(acts) > 1.0, acts


# sha256 of the four nets' parameter vectors after 300 stage-1 steps and
# 300 stage-2 steps at r = 0.6, taken before the replay buffer kept column
# arrays.  Training is deterministic under a seed, so a change to the
# update's arithmetic moves it.  So can a numpy or BLAS upgrade, which may
# change rounding in matmul or reductions: record any such move, with the
# versions, in CHANGES.md.
GOLDEN_SHA256 = "2189227a7f336893e02c8ef6705b39ab4d3c33b20f9ee09985ef4f1448461d07"


def test_golden_two_stage_parameters():
    sim, rcfg = SimConfig(), RewardConfig()
    practical = datasets.relabel_episodes(
        datasets.make_synthetic(2, 0, sim, rcfg, duration=20.0),
        sim, rcfg).to_buffer()
    agent = DdpgAgent(seed=0)
    train_stage1(agent, 300, seed=0)
    train_stage2(agent, practical, 0.6, 300, seed=0)
    h = hashlib.sha256()
    for name in NETS:
        h.update(getattr(agent, name).flat.tobytes())
    assert h.hexdigest() == GOLDEN_SHA256


# sha256 of every EpisodeStats of two short two-stage runs, then the actor
# and critic parameters, taken before stage 1 and stage 2 stepped the env in
# one loop.  The 30 s horizon makes all four end reasons occur.  Re-taken
# once when the env began to step on Python floats: mean_reward had been an
# np.float64 in some episodes, whose repr differs from a float's, and the
# hash of the histories with every float field as a Python float was equal
# before and after.  As above, record any move with a numpy or BLAS upgrade
# in CHANGES.md.
GOLDEN_HISTORY_SHA256 = \
    "2527dec0f78529ca4e1fc1f11cfbaf1558c048c7e8001dcc988b6b3b54720a01"


def test_golden_episode_histories():
    sim, rcfg = SimConfig(max_steps=300), RewardConfig()
    h = hashlib.sha256()
    ends = set()
    for seed in (0, 3):
        agent = DdpgAgent(sim_cfg=sim, seed=seed)
        history = train_stage1(agent, 2500, seed=seed)
        practical = datasets.relabel_episodes(
            datasets.make_synthetic(2, seed, sim, rcfg), sim, rcfg).to_buffer()
        history += train_stage2(agent, practical, 0.6, 1700, seed=seed)
        for stats in history:
            h.update(repr(dataclasses.astuple(stats)).encode())
            ends.add(stats.end)
        h.update(agent.actor.flat.tobytes())
        h.update(agent.critic.flat.tobytes())
    assert ends == {"collision", "escape", "horizon", "budget"}
    assert h.hexdigest() == GOLDEN_HISTORY_SHA256


# sha256 of the data path's outputs, taken before transitions became column
# arrays: the transition store relabeled from four synthetic episodes (its
# five arrays with dtype and shape, and its manifest), and the BC net
# trained for five epochs on the reloaded store.  The same pipeline through
# the CLI writes the same store arrays and bc.bin.  As above, record any
# move of these hashes with a numpy or BLAS upgrade in CHANGES.md.
GOLDEN_STORE_SHA256 = \
    "a196bfd4805158d2553d5b1f503226823d6d6b54a41a47c3e19628055185da9d"
GOLDEN_BC_SHA256 = \
    "a322a3a84200718b09f05d29937232de9bd6fb48872459d85374bd968dcf0fba"


def test_golden_data_path(tmp_path):
    sim, rcfg = SimConfig(), RewardConfig()
    for ep in datasets.make_synthetic(4, 0, sim, rcfg):
        datasets.write_trajectory_csv(tmp_path / f"{ep.id}.csv", ep)
    store = tmp_path / "store.npz"
    datasets.save_transition_store(store, datasets.merge_parts(
        datasets.ingest(str(tmp_path / "*.csv"), sim, rcfg)))
    h = hashlib.sha256()
    with np.load(store) as data:
        for key in sorted(data.files):
            arr = data[key]
            h.update(f"{key} {arr.dtype} {arr.shape}".encode())
            h.update(arr.tobytes())
    h.update((tmp_path / "store.manifest.json").read_bytes())
    assert h.hexdigest() == GOLDEN_STORE_SHA256
    policy = bc_train(datasets.load_transition_store(store), epochs=5, seed=0,
                      sim_cfg=sim)
    policy.net.save(tmp_path / "bc.bin")
    assert (hashlib.sha256((tmp_path / "bc.bin").read_bytes()).hexdigest()
            == GOLDEN_BC_SHA256)


# sha256 of the file formats, taken before recorded data became arrays: the
# reverse-data CSV of 120 s of pedal driving, the control net trained for
# five epochs on that CSV re-read, the IDM report files on the built-in
# scenario, and an IDM calibration over a small grid.  Re-taken when the
# report dropped long.csv, with the other report files unchanged, and when
# the leader CSV went, with the other files unchanged.  As above, record any move with a numpy or BLAS
# upgrade in CHANGES.md.
GOLDEN_FORMATS_SHA256 = \
    "0505a07dedccd692eecc2c1b8263717499181c28602419b109b18d2ec563973d"


def test_golden_file_formats(tmp_path):
    sim, rcfg = SimConfig(), RewardConfig()
    h = hashlib.sha256()

    def add_file(path):
        h.update(path.name.encode())
        h.update(path.read_bytes())

    model = PowertrainParams()
    write_reverse_csv(tmp_path / "reverse.csv",
                      collect_reverse_data(model, 120.0, seed=0))
    add_file(tmp_path / "reverse.csv")
    cn = train_control_net(read_reverse_csv(tmp_path / "reverse.csv"),
                           epochs=5, seed=0)
    cn.net.save(tmp_path / "control.bin")
    add_file(tmp_path / "control.bin")
    h.update(cn.mean.tobytes() + cn.std.tobytes())
    sc = self_defined_profile(sim.dt)
    report = tmp_path / "report"
    compare_report({"idm": run_scenario(IdmController(IdmParams(), sim), sc,
                                        sim, rcfg)}, report)
    for path in sorted(report.iterdir()):
        add_file(path)
    eps = datasets.make_synthetic(2, 0, sim, rcfg, duration=30.0)
    h.update(repr(calibrate_idm(eps, sim, T_grid=[1.0, 2.0],
                                g_min_grid=[2.5], a_grid=[2.0])).encode())
    assert h.hexdigest() == GOLDEN_FORMATS_SHA256
