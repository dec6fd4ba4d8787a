"""IDM baseline and behavior-cloning tests."""

import math

import numpy as np
import pytest

from followrl.baselines import (BcPolicy, IdmController, bc_mse, bc_train,
                                calibrate_idm, idm_accel, idm_equilibrium_gap)
from followrl.config import IdmParams, RewardConfig, SimConfig
from followrl.datasets import make_synthetic, relabel_episodes
from followrl.simcore import FollowEnv, normalize_state


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
