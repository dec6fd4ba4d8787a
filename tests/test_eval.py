"""Scenario runner, TTC statistics and comparison-report tests."""

import hashlib
import math
import os

import numpy as np
import pytest

from followrl.baselines import IdmController, idm_equilibrium_gap
from followrl.config import RewardConfig, SimConfig
from followrl.evaluate import (TRACE_COLUMNS, RunTrace, Scenario,
                               compare_report, run_scenario,
                               scenario_from_episode, self_defined_profile,
                               synthetic_suite, ttc, ttc_summary)


class TestTtc:
    def test_basic_value(self):
        assert ttc(20.0, 12.0, 10.0) == pytest.approx(10.0)

    def test_opening_is_none(self):
        assert ttc(20.0, 10.0, 12.0) is None

    def test_equal_speeds_is_none(self):
        assert ttc(20.0, 10.0, 10.0) is None

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            ttc(0.0, 12.0, 10.0)

    def test_overflow_is_inf_without_warning(self):
        # the env's gap is a numpy float; a follower creeping 1e-308 m/s
        # faster than its leader once raised numpy's overflow warning
        assert ttc(np.float64(3.7), 1e-308, 0.0) == math.inf


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
