"""Scenario runner, TTC statistics and comparison-report tests."""

import dataclasses
import hashlib
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from followrl.baselines import BcPolicy, IdmController, idm_equilibrium_gap
from followrl.config import IdmParams, RewardConfig, SimConfig
from followrl.ddpg import DdpgAgent, greedy_eval, train_stage1
from followrl.evaluate import (TRACE_COLUMNS, RunTrace, Scenario,
                               compare_report, run_scenario,
                               scenario_from_episode, self_defined_profile,
                               synthetic_suite, ttc, ttc_summary)
from followrl.nets import MlpNet
from followrl.simcore import FollowEnv, normalize_state


class TestTtc:
    def test_basic_value(self):
        assert ttc([20.0], [12.0], [10.0]).tolist() == [pytest.approx(10.0)]

    def test_opening_is_nan(self):
        assert np.isnan(ttc([20.0], [10.0], [12.0])).all()

    def test_equal_speeds_is_nan(self):
        assert np.isnan(ttc([20.0], [10.0], [10.0])).all()

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            ttc([5.0, 0.0], [12.0, 12.0], [10.0, 10.0])

    def test_overflow_is_inf_without_warning(self):
        # a follower creeping 1e-308 m/s faster than its leader overflows
        # the quotient; pytest turns numpy's overflow warning into an error
        assert ttc([3.7], [1e-308], [0.0]).tolist() == [math.inf]


def scalar_ttc(gap, v_f, v_l):
    """The per-step TTC that run_scenario took before TTC came from the
    trace columns: the reference for ttc, row by row."""
    if gap <= 0:
        raise ValueError("ttc requires gap > 0")
    if v_f > v_l:
        return float(gap) / (v_f - v_l)
    return None


GAPS = st.floats(0.0, 250.0, exclude_min=True)
SPEEDS = st.floats(0.0, 40.0)
TTC_ROWS = st.one_of(
    st.tuples(GAPS, SPEEDS, SPEEDS),                        # either way
    st.builds(lambda g, v: (g, v, v), GAPS, SPEEDS),        # equal speeds
    st.tuples(GAPS, st.just(1e-308), st.just(0.0)))         # may overflow


class TestTtcColumns:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(TTC_ROWS, max_size=30))
    @example(rows=[(3.7, 1e-308, 0.0), (20.0, 12.0, 10.0), (20.0, 10.0, 12.0),
                   (20.0, 10.0, 10.0)])
    def test_matches_scalar_row_by_row(self, rows):
        # closing, opening and equal speeds; 3.7 m closed at 1e-308 m/s
        # overflows to inf, and pytest turns any numpy warning into an error
        gap, v_f, v_l = np.array(rows, dtype=float).reshape(-1, 3).T
        got = ttc(gap, v_f, v_l)
        assert got.shape == (len(rows),)
        for value, row in zip(got.tolist(), rows):
            want = scalar_ttc(*row)
            if want is None:
                assert math.isnan(value)
            else:
                assert value == want
        if (3.7, 1e-308, 0.0) in rows:
            assert math.inf in got.tolist()

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(TTC_ROWS, max_size=10),
           bad=st.floats(max_value=0.0, allow_nan=False), at=st.integers(0, 10))
    def test_gap_at_or_below_zero_rejected(self, rows, bad, at):
        rows.insert(min(at, len(rows)), (bad, 12.0, 10.0))
        gap, v_f, v_l = np.array(rows).T
        with pytest.raises(ValueError, match="gap > 0"):
            ttc(gap, v_f, v_l)


def _trace_with_ttc(vals):
    n = len(vals)
    z = np.zeros(n)
    return RunTrace("t", np.arange(n) * 0.1, z, z, z + 10.0, z, z, z,
                    np.array(vals, dtype=float))


class TestTtcSummary:
    def test_hand_case(self):
        # {1, 3, 11, none}: 11 exceeds the 10 s threshold, the NaN is
        # dropped, leaving {1, 3}.
        s = ttc_summary(_trace_with_ttc([1.0, 3.0, 11.0, math.nan]))
        assert s.n_samples == 2
        assert s.minimum == 1.0
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.std == 1.0          # population std of {1, 3}
        assert s.count_below_2s == 1

    def test_threshold_inclusive(self):
        s = ttc_summary(_trace_with_ttc([10.0, 10.000001]))
        assert s.n_samples == 1

    def test_below2_strict(self):
        s = ttc_summary(_trace_with_ttc([2.0, 1.999999]))
        assert s.count_below_2s == 1

    def test_empty_selection_flagged(self):
        s = ttc_summary(_trace_with_ttc([math.nan, 50.0]))
        assert s.n_samples == 0
        assert math.isnan(s.minimum) and math.isnan(s.mean)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.uniform(0.1, 20.0, size=rng.integers(1, 40))
            mask = rng.uniform(size=len(vals)) < 0.3
            vals[mask] = math.nan
            s = ttc_summary(_trace_with_ttc(vals))
            kept = [v for v in vals if not math.isnan(v) and v <= 10.0]
            if not kept:
                assert s.n_samples == 0
                continue
            assert s.n_samples == len(kept)
            assert s.minimum == min(kept)
            assert s.mean == pytest.approx(sum(kept) / len(kept), rel=1e-12)
            assert s.count_below_2s == sum(1 for v in kept if v < 2.0)


class TestScenarios:
    def test_builtin_profile_shape(self):
        sc = self_defined_profile()
        assert len(sc.profile) == 1001
        assert sc.initial_gap == 50.0
        assert sc.follower_speed == 0.0
        # cruise speed and hard-brake slope
        assert sc.profile[480] == pytest.approx(18.0)
        assert sc.profile[490] - sc.profile[489] == pytest.approx(-0.5)
        assert sc.profile[520] == 0.0
        assert np.all(sc.profile >= 0.0) and np.all(sc.profile <= 18.0)
        # accelerations stay within the simulator's actuation range
        acc = np.diff(sc.profile) / 0.1
        assert acc.min() >= -9.0 and acc.max() <= 5.0

    # sha256 of the built-in profile's bytes at seven time steps, taken
    # before the profile became a table of segments
    GOLDEN_PROFILE_SHA256 = \
        "bd4ad24f1dacd9d214c0eca4c4b8f1c67dc119a664241d7dd8d8e79a560eb1b1"

    def test_golden_builtin_profile(self):
        h = hashlib.sha256()
        for dt in (0.1, 0.05, 0.2, 0.01, 0.03, 0.07, 0.013):
            h.update(self_defined_profile(dt).profile.tobytes())
        assert h.hexdigest() == self.GOLDEN_PROFILE_SHA256

    def test_synthetic_suite_seeded(self):
        a = synthetic_suite(5, seed=3)
        b = synthetic_suite(5, seed=3)
        assert all(np.array_equal(x.profile, y.profile) for x, y in zip(a, b))
        assert all(x.initial_gap == y.initial_gap for x, y in zip(a, b))
        gaps = [s.initial_gap for s in synthetic_suite(20, seed=0)]
        assert min(gaps) >= 10.0 and max(gaps) <= 100.0

    def test_run_scenario_idm(self):
        # IDM through the built-in profile: full length, no collision,
        # and the trace columns line up.
        trace = run_scenario(IdmController(), self_defined_profile())
        assert len(trace.t) == 1000
        assert not trace.collided
        assert np.all(trace.gap > 0)
        assert trace.t[0] == pytest.approx(0.1)
        assert trace.t[-1] == pytest.approx(100.0)

    def test_ttc_nan_when_opening(self):
        trace = run_scenario(IdmController(), self_defined_profile())
        opening = trace.v_follower <= trace.v_leader
        assert np.all(np.isnan(trace.ttc[opening]))
        closing = ~opening
        assert np.allclose(trace.ttc[closing],
                           trace.gap[closing] / (trace.v_follower[closing]
                                                 - trace.v_leader[closing]))

    def test_collision_ends_trace(self):
        # full throttle behind a stopped leader: the trace ends on the
        # collision row, which rollout_episode drops with its reward
        from followrl.datasets import rollout_episode

        class FullThrottle:
            def act(self, v, a, v_l, g):
                return 5.0

        cfg, rcfg = SimConfig(max_steps=100), RewardConfig()
        trace = run_scenario(FullThrottle(), Scenario("stop", np.zeros(101),
                                                      10.0), cfg, rcfg)
        assert trace.collided and len(trace.t) < 100
        assert trace.gap[-1] <= 0 and np.all(trace.gap[:-1] > 0)
        assert math.isnan(trace.ttc[-1]) and np.all(np.isfinite(trace.ttc[:-1]))
        assert trace.reward[-1] == -1.0
        ep, rewards = rollout_episode(FullThrottle(), np.zeros(101), cfg, rcfg,
                                      10.0)
        assert np.array_equal(ep.records[1:, 3], trace.gap[:-1])
        assert rewards == trace.reward[:-1].tolist()

    def test_idm_settles_at_equilibrium(self):
        profile = np.full(1001, 10.0)
        sc = Scenario("const", profile, initial_gap=40.0, follower_speed=0.0)
        trace = run_scenario(IdmController(), sc)
        assert trace.gap[-1] == pytest.approx(idm_equilibrium_gap(10.0),
                                              rel=0.01)

    def test_replay_round_trip(self):
        # A replay scenario starts where the recording starts and follows
        # the recorded leader (the replay's RMSE is in test_baselines.py).
        from followrl.datasets import make_synthetic
        cfg, rcfg = SimConfig(), RewardConfig()
        ep = make_synthetic(1, 9, cfg, rcfg, duration=30.0)[0]
        sc = scenario_from_episode(ep)
        assert sc.initial_gap == ep.records[0, 3]
        assert sc.follower_speed == ep.records[0, 2]
        assert np.array_equal(sc.profile, ep.records[:, 1])


def reference_run_scenario(agent, sc, cfg, rcfg):
    """run_scenario as it was before it took TTC from the trace columns:
    a scalar TTC per step, and the leader profile a numpy array in the env
    as FollowEnv held it then, so that every value derived from the leader
    speed is a numpy scalar.  The bit-for-bit reference for run_scenario."""
    cfg = dataclasses.replace(cfg, max_steps=len(sc.profile) - 1)
    env = FollowEnv(cfg, rcfg)
    env.reset(sc.profile, initial_gap=sc.initial_gap,
              follower_speed=sc.follower_speed)
    env.profile = np.asarray(sc.profile, dtype=float)
    rows = []
    while not env.done:
        action = agent.act(env.follower.speed, env.follower.accel,
                           env.leader.speed, env.gap)
        _, reward, _, info = env.step(action)
        tc = scalar_ttc(info.gap, info.v, info.v_l) if info.gap > 0 else None
        rows.append((info.t, info.v_l, info.v, info.gap, info.accel,
                     info.jerk, reward, math.nan if tc is None else tc))
    cols = [np.array(c) for c in zip(*rows)]
    return RunTrace(getattr(agent, "name", type(agent).__name__), *cols,
                    collided=info.collision)


AGENTS = {
    "idm": lambda cfg: IdmController(IdmParams(), cfg),
    "bc": lambda cfg: BcPolicy(MlpNet([4, 32, 32, 1], "tanh", seed=5), cfg),
    "ddpg": lambda cfg: DdpgAgent(sim_cfg=cfg, seed=0),
}
# from 15 m/s, 5 m behind a standing leader: even a_min cannot stop in time
CRASH = Scenario("crash", np.zeros(201), initial_gap=5.0, follower_speed=15.0)


class TestRunScenarioReference:
    @pytest.mark.parametrize("agent", sorted(AGENTS))
    @pytest.mark.parametrize("scenario", ["builtin", "synthetic", "crash"])
    def test_matches_reference_bytes(self, agent, scenario):
        cfg, rcfg = SimConfig(), RewardConfig()
        sc = {"builtin": self_defined_profile(cfg.dt),
              "synthetic": synthetic_suite(1, seed=4, cfg=cfg)[0],
              "crash": CRASH}[scenario]
        got = run_scenario(AGENTS[agent](cfg), sc, cfg, rcfg)
        want = reference_run_scenario(AGENTS[agent](cfg), sc, cfg, rcfg)
        assert (got.agent, got.collided) == (want.agent, want.collided)
        assert got.collided == (scenario == "crash")
        for col in TRACE_COLUMNS:
            a, b = getattr(got, col), getattr(want, col)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), col
            assert a.tobytes() == b.tobytes(), col


class TestPythonFloats:
    """The scalar episode path runs on Python floats: arithmetic on numpy
    scalars is several times slower, and an np.float64 in a repr-hashed or
    written record prints as np.float64(...)."""

    @pytest.mark.parametrize("agent", sorted(AGENTS))
    def test_step_and_act_values_are_floats(self, agent):
        cfg = SimConfig()
        sc = synthetic_suite(1, seed=4, cfg=cfg)[0]
        env = FollowEnv(cfg, RewardConfig())
        state = env.reset(sc.profile, sc.initial_gap)
        policy = AGENTS[agent](cfg)
        while not env.done:
            assert [type(x) for x in state] == [float] * 4
            action = policy.act(*state)
            assert type(action) is float
            state, reward, _, info = env.step(action)
            assert type(reward) is float
            for f in dataclasses.fields(info):
                want = bool if f.name == "collision" else float
                assert type(getattr(info, f.name)) is want, f.name

    def test_episode_stats_are_floats(self):
        agent = DdpgAgent(sim_cfg=SimConfig(max_steps=100), seed=0)
        history = train_stage1(agent, 400, seed=0)
        assert history
        for stats in history:
            assert type(stats.mean_reward) is float
            assert type(stats.at_bound) is float


class TestOneEncodingPerStep:
    """The env returns the physical state and each learned policy encodes
    it once: a rollout made two normalize_state calls per step when the
    env encoded a state that nothing read."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of normalize_state, through every module that imported it
        by name, and of FollowEnv.reset and step."""
        counts = {"normalize": 0, "reset": 0, "step": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("followrl")
                    and getattr(mod, "normalize_state", None) is normalize_state):
                monkeypatch.setattr(mod, "normalize_state",
                                    counted("normalize", normalize_state))
        for key in ("reset", "step"):
            monkeypatch.setattr(FollowEnv, key,
                                counted(key, getattr(FollowEnv, key)))
        return counts

    @pytest.mark.parametrize("agent, per_step", [("ddpg", 1), ("bc", 1),
                                                 ("idm", 0)])
    def test_rollout(self, counts, agent, per_step):
        cfg = SimConfig()
        sc = synthetic_suite(1, seed=4, cfg=cfg)[0]
        trace = run_scenario(AGENTS[agent](cfg), sc, cfg, RewardConfig())
        assert counts["step"] == len(trace.t) > 0
        assert counts["normalize"] == per_step * len(trace.t)

    def test_greedy_eval(self, counts):
        agent = DdpgAgent(sim_cfg=SimConfig(max_steps=100), seed=0)
        greedy_eval(agent, n_episodes=3, seed=0)
        assert counts["reset"] == 3 and counts["step"] > 0
        assert counts["normalize"] == counts["step"]

    def test_train_stage1(self, counts):
        # one encoding per step plus one per episode start
        agent = DdpgAgent(sim_cfg=SimConfig(max_steps=50), seed=0)
        train_stage1(agent, 120, seed=0)
        assert counts["step"] == 120 and counts["reset"] >= 3
        assert counts["normalize"] == counts["step"] + counts["reset"]


class TestReports:
    def test_round_trip(self, tmp_path):
        trace = run_scenario(IdmController(), self_defined_profile())
        path = compare_report({"idm": trace}, tmp_path / "rep")
        trace_csv = tmp_path / "rep" / "trace_idm.csv"
        assert trace_csv.read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)
        loaded = dict(zip(TRACE_COLUMNS, np.loadtxt(trace_csv, delimiter=",",
                                                    skiprows=1).T))
        assert np.array_equal(trace.t, loaded["t"])
        assert np.array_equal(trace.gap, loaded["gap"])
        assert np.array_equal(trace.reward, loaded["reward"])
        # NaN TTC survives the round trip as NaN
        assert np.array_equal(np.isnan(trace.ttc), np.isnan(loaded["ttc"]))
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("agent,")
        assert len(lines) == 2 and lines[1].startswith("idm,")
        # the summary and one trace per agent, nothing else
        assert sorted(os.listdir(tmp_path / "rep")) == ["trace_idm.csv",
                                                        "ttc_summary.csv"]

    def test_summary_matches_ttc_summary(self, tmp_path):
        trace = run_scenario(IdmController(), self_defined_profile())
        compare_report({"idm": trace}, tmp_path / "rep")
        s = ttc_summary(trace)
        with open(tmp_path / "rep" / "ttc_summary.csv") as fh:
            row = fh.read().splitlines()[1].split(",")
        assert float(row[1]) == s.minimum
        assert float(row[2]) == s.mean
        assert int(row[5]) == s.count_below_2s
        assert int(row[6]) == s.n_samples
        assert float(row[8]) == trace.mean_gap()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            compare_report({}, tmp_path / "rep")
