"""IDM baseline and behavior-cloning tests."""

import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from followrl.baselines import (A_GRID, G_MIN_GRID, T_GRID, BcPolicy,
                                IdmController, bc_mse, bc_train,
                                calibrate_idm, idm_accel, idm_equilibrium_gap,
                                idm_replay_rmse)
from followrl.config import IdmParams, RewardConfig, SimConfig
from followrl.datasets import (FollowingEpisode, make_synthetic,
                               relabel_episodes)
from followrl.evaluate import run_scenario, scenario_from_episode
from followrl.simcore import VEHICLE_LENGTH, FollowEnv, normalize_state


class TestIdmAccel:
    def test_free_road_standstill(self):
        # v = 0 behind a huge gap: only the (s*/g)^2 term survives,
        # a * (1 - (g_min/g)^2) ~= a for g >> g_min.
        a = idm_accel(0.0, 0.0, 1e9)
        assert a == pytest.approx(2.0, abs=1e-6)

    def test_at_desired_speed_large_gap(self):
        # v = v_des kills the free-road term; remaining deficit is small.
        p = IdmParams()
        a = idm_accel(p.v_des, p.v_des, 1e9, p)
        assert a == pytest.approx(0.0, abs=1e-6)

    def test_exact_value_hand_computed(self):
        p = IdmParams()
        v, v_l, g = 10.0, 8.0, 15.0
        s_star = p.g_min + v * p.T + v * (v - v_l) / (2.0 * math.sqrt(p.a * p.b_comf))
        expect = p.a * (1.0 - (v / p.v_des) ** p.delta - (s_star / g) ** 2)
        assert idm_accel(v, v_l, g, p) == pytest.approx(expect, rel=1e-12)

    def test_clipping_to_bounds(self):
        # Tiny gap at speed: unclipped IDM decel is enormous.
        assert idm_accel(20.0, 0.0, 0.5) == -9.0
        assert idm_accel(20.0, 0.0, 0.5, a_min=-20.0) < -9.0

    def test_monotone_in_gap(self):
        vals = [idm_accel(10.0, 10.0, g) for g in (5.0, 10.0, 20.0, 50.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_closing_speed(self):
        vals = [idm_accel(10.0, v_l, 20.0) for v_l in (14.0, 10.0, 6.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_collision_state_rejected(self):
        with pytest.raises(ValueError):
            idm_accel(5.0, 5.0, 0.0)


class TestEquilibrium:
    def test_known_value_at_10(self):
        # (2.5 + 10) / sqrt(1 - 0.5^4) = 12.5/sqrt(0.9375)
        assert idm_equilibrium_gap(10.0) == pytest.approx(12.909944487358056,
                                                          rel=1e-12)

    def test_accel_zero_at_equilibrium(self):
        for v in (2.0, 5.0, 10.0, 15.0):
            g_e = idm_equilibrium_gap(v)
            assert idm_accel(v, v, g_e) == pytest.approx(0.0, abs=1e-9)

    def test_no_equilibrium_at_or_above_v_des(self):
        with pytest.raises(ValueError):
            idm_equilibrium_gap(20.0)

    def test_simulated_convergence(self):
        # Constant-speed leader; the simulated IDM gap settles on the
        # closed form within 1% well before 120 s.
        cfg = SimConfig()
        env = FollowEnv(cfg, RewardConfig())
        profile = np.full(cfg.max_steps + 1, 10.0)
        ctrl = IdmController()
        env.reset(profile, initial_gap=60.0, follower_speed=0.0)
        done = False
        gap = None
        while not done:
            a = ctrl.act(env.follower.speed, env.follower.accel,
                         env.leader.speed, env.gap)
            _, _, done, info = env.step(a)
            if info.t >= 100.0 - 1e-9:
                gap = info.gap
                break
        assert gap == pytest.approx(idm_equilibrium_gap(10.0), rel=0.01)


def _tiny_dataset(seed=0, episodes=3, seconds=40.0):
    cfg, rcfg = SimConfig(), RewardConfig()
    eps = make_synthetic(episodes, seed, cfg, rcfg, duration=seconds)
    return relabel_episodes(eps, cfg, rcfg), cfg


class TestBehaviorCloning:
    def test_deterministic(self):
        ds, cfg = _tiny_dataset()
        p1 = bc_train(ds, epochs=2, seed=11, sim_cfg=cfg)
        p2 = bc_train(ds, epochs=2, seed=11, sim_cfg=cfg)
        for w1, w2 in zip(p1.net.weights, p2.net.weights):
            assert np.array_equal(w1, w2)

    def test_seed_changes_result(self):
        ds, cfg = _tiny_dataset()
        p1 = bc_train(ds, epochs=1, seed=1, sim_cfg=cfg)
        p2 = bc_train(ds, epochs=1, seed=2, sim_cfg=cfg)
        assert not np.array_equal(p1.net.weights[0], p2.net.weights[0])

    def test_fits_constant_target(self):
        # All actions identical: the regressor should approach that value.
        ds, cfg = _tiny_dataset()
        ds.transitions.actions[:] = 1.5
        policy = bc_train(ds, epochs=60, seed=0, sim_cfg=cfg)
        assert bc_mse(policy, ds) < 0.01

    def test_negative_epochs_rejected(self):
        # once returned the untrained net, which `train --mode bc` saved
        ds, cfg = _tiny_dataset()
        with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
            bc_train(ds, epochs=-3, seed=0, sim_cfg=cfg)

    def test_training_reduces_mse(self):
        ds, cfg = _tiny_dataset()
        p0 = bc_train(ds, epochs=1, seed=0, sim_cfg=cfg)
        p1 = bc_train(ds, epochs=30, seed=0, sim_cfg=cfg)
        assert bc_mse(p1, ds) < bc_mse(p0, ds)

    def test_act_matches_predict(self):
        ds, cfg = _tiny_dataset()
        policy = bc_train(ds, epochs=1, seed=0, sim_cfg=cfg)
        v, a, v_l, g = 8.0, 0.5, 9.0, 25.0
        obs = normalize_state(v, a, v_l, g, cfg)
        assert policy.act(v, a, v_l, g) == pytest.approx(
            float(policy.predict(obs[None, :])[0]), rel=1e-12)

    def test_output_within_accel_bounds(self):
        ds, cfg = _tiny_dataset()
        policy = bc_train(ds, epochs=1, seed=0, sim_cfg=cfg)
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = policy.act(rng.uniform(0, 20), rng.uniform(-9, 5),
                           rng.uniform(0, 20), rng.uniform(0.1, 200))
            assert cfg.a_min <= a <= cfg.a_max

    def test_empty_dataset_rejected(self):
        ds, cfg = _tiny_dataset()
        ds.transitions = []
        with pytest.raises(ValueError):
            bc_train(ds, sim_cfg=cfg)


class TestCalibration:
    def test_recovers_generating_time_gap(self):
        # Episodes driven by IDM with T = 2.0: the grid search should pick
        # T = 2.0 with near-zero replay RMSE.
        cfg, rcfg = SimConfig(), RewardConfig()
        truth = IdmParams(T=2.0)
        eps = make_synthetic(2, 5, cfg, rcfg,
                             controller=IdmController(truth, cfg),
                             duration=40.0)
        best, rmse = calibrate_idm(eps, cfg, T_grid=[1.0, 2.0],
                                   g_min_grid=[2.5], a_grid=[2.0])
        assert best.T == 2.0
        assert rmse < 0.05

    @pytest.mark.parametrize("empty", ["T_grid", "g_min_grid", "a_grid"])
    def test_empty_grid_rejected(self, empty):
        cfg, rcfg = SimConfig(), RewardConfig()
        eps = make_synthetic(1, 5, cfg, rcfg, duration=5.0)
        with pytest.raises(ValueError, match=empty):
            calibrate_idm(eps, cfg, **{empty: []})

    def test_no_episodes_rejected(self):
        with pytest.raises(ValueError, match="episodes is empty"):
            calibrate_idm([], SimConfig())


def scalar_replay(params, ep, cfg):
    """The reference replay: one IdmController through run_scenario.
    Returns the gap RMSE against the recorded follower and the trace."""
    trace = run_scenario(IdmController(params, cfg), scenario_from_episode(ep),
                         cfg)
    recorded = ep.records[1:len(trace.t) + 1, 3]
    return float(np.sqrt(np.mean((trace.gap - recorded) ** 2))), trace


def end_reason(trace, ep, cfg):
    if trace.collided:
        return "collision"
    if trace.gap[-1] > cfg.g_max:
        return "escape"
    assert len(trace.t) == len(ep.records) - 1
    return "horizon"


class NoisyIdm:
    """IDM with seeded Gaussian noise on each command: a recorded follower
    that no grid point reproduces."""

    def __init__(self, params, cfg, seed, sigma=1.0):
        self.idm = IdmController(params, cfg)
        self.rng = np.random.default_rng(seed)
        self.sigma = sigma

    def act(self, v, a, v_l, g):
        noise = self.sigma * self.rng.standard_normal()
        return self.idm.act(v, a, v_l, g) + noise


idm_params = st.builds(IdmParams, v_des=st.floats(5.0, 40.0),
                       T=st.floats(0.01, 3.0), a=st.floats(0.02, 9.0),
                       b_comf=st.floats(0.5, 5.0), g_min=st.floats(0.01, 5.0),
                       delta=st.floats(1.0, 8.0))


class TestLockstepReplay:
    def test_idm_recording_replays_exactly(self):
        # an episode recorded from IDM replays against IDM with ~zero RMSE
        cfg, rcfg = SimConfig(), RewardConfig()
        ep = make_synthetic(1, 9, cfg, rcfg, duration=30.0)[0]
        assert idm_replay_rmse([IdmParams()], ep, cfg)[0] < 1e-9

    def test_matches_scalar_path_at_every_end(self):
        # a grid whose members end by collision (short T and g_min, hard
        # acceleration), by escape (a = 0.02 falls behind) and at the
        # horizon: every RMSE equals the scalar replay's bit for bit
        cfg, rcfg = SimConfig(), RewardConfig()
        grid = [replace(IdmParams(), T=T, g_min=g_min, a=a)
                for T in (0.01, 1.0) for g_min in (0.01, 2.5)
                for a in (0.02, 2.0, 9.0)]
        reasons = set()
        for ep in make_synthetic(2, 2, cfg, rcfg, duration=30.0):
            got = idm_replay_rmse(grid, ep, cfg)
            assert got.shape == (len(grid),)
            for k, params in enumerate(grid):
                want, trace = scalar_replay(params, ep, cfg)
                assert got[k] == want, params
                reasons.add(end_reason(trace, ep, cfg))
        assert reasons == {"collision", "escape", "horizon"}

    def test_matches_scalar_path_on_default_grid(self):
        # calibrate_idm's default grid, on a recorded IDM episode and on a
        # copy that starts at 3.7 m, a gap the env's bookkeeping does not
        # give back: (3.7 + L) - L != 3.7.  Each one catches a last-bit
        # slip: squaring with numpy's vector ** in place of Python's pow
        # moves the first episode's RMSE at T = 1.2, g_min = 3.0, a = 2.5,
        # and starting from the recorded gap as is moves two of the copy's.
        cfg, rcfg = SimConfig(), RewardConfig()
        ep = make_synthetic(1, 0, cfg, rcfg, duration=30.0)[0]
        moved = FollowingEpisode("moved-start", ep.records.copy())
        moved.records[0, 3] = 3.7
        L = VEHICLE_LENGTH
        assert (3.7 + L) - L != 3.7
        grid = [replace(IdmParams(), T=T, g_min=g_min, a=a)
                for T in T_GRID for g_min in G_MIN_GRID for a in A_GRID]
        for rec in (ep, moved):
            assert idm_replay_rmse(grid, rec, cfg).tolist() == \
                [scalar_replay(p, rec, cfg)[0] for p in grid]

    @settings(max_examples=30, deadline=None)
    @given(grid=st.lists(idm_params, min_size=1, max_size=4),
           recorder=st.one_of(idm_params, st.integers(0, 2 ** 32 - 1)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scalar_path_property(self, grid, recorder, seed):
        # random valid IDM grids against episodes recorded by another IDM
        # or by a noisy one
        cfg, rcfg = SimConfig(), RewardConfig()
        if isinstance(recorder, IdmParams):
            recorder = IdmController(recorder, cfg)
        else:
            recorder = NoisyIdm(IdmParams(), cfg, recorder)
        ep = make_synthetic(1, seed, cfg, rcfg, controller=recorder,
                            duration=15.0)[0]
        got = idm_replay_rmse(grid, ep, cfg)
        assert got.tolist() == [scalar_replay(p, ep, cfg)[0] for p in grid]

    def test_single_row_episode_rejected(self):
        ep = FollowingEpisode("one-row", np.array([[0.0, 5.0, 5.0, 20.0]]))
        with pytest.raises(ValueError, match="at least 2 rows"):
            idm_replay_rmse([IdmParams()], ep, SimConfig())
