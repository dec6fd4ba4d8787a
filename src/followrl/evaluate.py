"""Scenario generation and execution, time-to-collision analysis, and
comparison reports.

A scenario is a leader speed profile plus initial conditions; any object
with an ``act(v, a, v_l, g)`` method can follow it.  This module draws
every generated scenario: the OU-leader episodes of training and greedy
evaluation (episode_scenario), and the synthetic eval suite and the
stand-in human data of datasets.make_synthetic (both _ou_scenarios).  TTC
statistics are computed over finite values up to TTC_THRESHOLD (10 s),
with TTC under 2 s counted as safety-critical.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import LEADER_OU, RewardConfig, SimConfig
from .simcore import FollowEnv, gen_leader_profile, write_csv

TTC_THRESHOLD = 10.0    # s, larger TTC values are left out of the statistics
SUITE_DURATION = 100.0  # s, length of each synthetic_suite scenario


def ttc(gap, v_f, v_l):
    """Time to collision gap/(v_f - v_l), element by element over gap and
    speed columns: the quotient where closing (v_f > v_l), NaN elsewhere.
    IEEE subtraction and division are correctly rounded, so each element
    equals the scalar quotient; a closing speed so small that the quotient
    overflows gives inf, without numpy's warning.  A gap <= 0 (a collision)
    raises ValueError."""
    gap, v_f, v_l = (np.asarray(c, dtype=float) for c in (gap, v_f, v_l))
    if np.any(gap <= 0):
        raise ValueError("ttc requires gap > 0")
    out = np.full(gap.shape, math.nan)
    with np.errstate(over="ignore"):
        np.divide(gap, v_f - v_l, out=out, where=v_f > v_l)
    return out


@dataclass
class TtcSummary:
    minimum: float
    mean: float
    median: float
    std: float
    count_below_2s: int
    n_samples: int


@dataclass
class RunTrace:
    agent: str
    t: np.ndarray
    v_leader: np.ndarray
    v_follower: np.ndarray
    gap: np.ndarray
    accel: np.ndarray
    jerk: np.ndarray
    reward: np.ndarray
    ttc: np.ndarray          # NaN where not on a collision course
    collided: bool = False

    def mean_gap(self):
        return float(np.mean(self.gap))


def ttc_summary(trace: RunTrace):
    """Statistics over finite TTC values <= TTC_THRESHOLD, with the
    population std.  An empty selection is flagged with n_samples = 0 and
    NaN statistics rather than raised."""
    vals = trace.ttc[np.isfinite(trace.ttc)]
    vals = vals[vals <= TTC_THRESHOLD]
    below2 = int(np.sum(vals < 2.0))
    if len(vals) == 0:
        nan = float("nan")
        return TtcSummary(nan, nan, nan, nan, 0, 0)
    # exactly-rounded accumulation so any independent recomputation agrees
    # bit-for-bit regardless of summation order
    n = len(vals)
    # Python floats: the same libm pow as numpy's float64 scalars, at less
    # cost per element
    xs = vals.tolist()
    mean = math.fsum(xs) / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in xs) / n)
    return TtcSummary(float(np.min(vals)), mean, float(np.median(vals)), std,
                      below2, n)


@dataclass
class Scenario:
    name: str
    profile: np.ndarray      # leader speed at dt spacing
    initial_gap: float
    follower_speed: float = 0.0


def run_scenario(agent, sc: Scenario, cfg: SimConfig = None,
                 rcfg: RewardConfig = None):
    """Deterministic greedy rollout of the agent through the scenario, one
    row per env step; also the loop behind greedy_eval and the recorded
    stand-in human data (datasets.rollout_episode).  Collision terminates
    the trace on the collision row, with the collided flag set and a NaN
    TTC."""
    env = FollowEnv(cfg, rcfg)
    v, a, v_l, g = env.reset(sc.profile, sc.initial_gap, sc.follower_speed)
    rows = []
    while not env.done:
        (v, a, v_l, g), reward, _, info = env.step(agent.act(v, a, v_l, g))
        rows.append((info.t, v_l, v, g, a, info.jerk, reward))
    t, v_l, v, gap, accel, jerk, reward = (np.array(c) for c in zip(*rows))
    # TTC from the columns once; a collision row keeps NaN
    tc = np.full(len(t), math.nan)
    ok = slice(len(t) - info.collision)
    tc[ok] = ttc(gap[ok], v[ok], v_l[ok])
    return RunTrace(getattr(agent, "name", type(agent).__name__), t, v_l, v,
                    gap, accel, jerk, reward, tc, collided=info.collision)


# builtin-s53's leader speed as (start s, speed at start m/s, slope m/s^2)
# segments, each holding from its start until the next one's
S53_SEGMENTS = np.array([
    (0.0, 0.0, 0.0), (18.0, 0.0, 2.0), (27.0, 18.0, 0.0), (48.0, 18.0, -5.0),
    (51.6, 0.0, 0.0), (58.0, 0.0, 2.0), (63.0, 10.0, 0.0), (68.0, 10.0, -2.0),
    (73.0, 0.0, 0.0), (78.0, 0.0, 2.0), (82.0, 8.0, 0.0), (86.0, 8.0, -2.0),
    (90.0, 0.0, 0.0)])


def self_defined_profile(dt=0.1):
    """Built-in safety-critical scenario: standstill start at a 50 m gap,
    leader ramps to 18 m/s from t = 18 s, cruises, brakes at -5 m/s^2 from
    t = 48 s to standstill, then two gentler +-2 m/s^2 trapezoids."""
    t = np.arange(int(round(100.0 / dt)) + 1) * dt
    k = np.searchsorted(S53_SEGMENTS[:, 0], t, side="right") - 1
    start, v0, slope = S53_SEGMENTS[k].T
    return Scenario("builtin-s53", v0 + slope * (t - start), initial_gap=50.0,
                    follower_speed=0.0)


def episode_scenario(rng, sim_cfg, leader_ou):
    """A training or greedy-evaluation episode start: an OU leader profile
    of max_steps + 1 samples (an episode of at most max_steps steps), then
    an initial gap uniform in [init_gap_low, init_gap_high], each from its
    own seed drawn from rng in that order."""
    profile_seed = int(rng.integers(0, 2 ** 31 - 1))
    gap_seed = int(rng.integers(0, 2 ** 31 - 1))
    duration = (sim_cfg.max_steps + 1) * sim_cfg.dt
    profile = gen_leader_profile(profile_seed, duration, sim_cfg, leader_ou)
    gap = np.random.default_rng(gap_seed).uniform(sim_cfg.init_gap_low,
                                                  sim_cfg.init_gap_high)
    return Scenario("episode", profile, float(gap))


def _ou_scenarios(n, seed, floor, duration, cfg: SimConfig, leader_ou):
    """n scenarios synthetic-00, synthetic-01, ... behind OU leaders of
    ``duration`` seconds: one generator seeded with seed draws each one's
    profile seed and then its initial gap, uniform in
    [max(init_gap_low, floor), init_gap_high].  A ceiling below the floor
    raises ValueError naming the key, before any draw."""
    if cfg.init_gap_high < floor:
        raise ValueError(f"[sim] init_gap_high = {cfg.init_gap_high} is below "
                         f"the {floor} m floor of generated initial gaps")
    low = max(cfg.init_gap_low, floor)
    rng = np.random.default_rng(seed)
    # arguments are evaluated left to right: the profile seed, then the gap
    return [Scenario(f"synthetic-{k:02d}",
                     gen_leader_profile(int(rng.integers(0, 2 ** 31 - 1)),
                                        duration, cfg, leader_ou),
                     float(rng.uniform(low, cfg.init_gap_high)))
            for k in range(n)]


def synthetic_suite(n_scenarios=20, seed=0, cfg: SimConfig = None,
                    leader_ou=LEADER_OU):
    """Seeded suite of SUITE_DURATION s OU-leader scenarios with initial
    gaps uniform in [max(init_gap_low, 10 m), init_gap_high]."""
    if n_scenarios < 1:
        raise ValueError(f"n_scenarios must be >= 1, got {n_scenarios}")
    cfg = cfg or SimConfig()
    return _ou_scenarios(n_scenarios, seed, 10.0, SUITE_DURATION + cfg.dt, cfg,
                         leader_ou)


def scenario_from_episode(ep):
    """Replay scenario: recorded leader speeds with the recorded initial
    gap and follower speed."""
    _, v_l, v_f, gap = ep.records.T
    return Scenario(f"replay-{ep.id}", v_l.copy(),
                    initial_gap=float(gap[0]), follower_speed=float(v_f[0]))


TRACE_COLUMNS = ["t", "v_leader", "v_follower", "gap", "accel", "jerk",
                 "reward", "ttc"]
SUMMARY_COLUMNS = ["agent", "minimum", "mean", "median", "std_dev",
                   "count_below_2s", "n_samples", "collided", "mean_gap"]


def compare_report(traces, out_dir):
    """Write ttc_summary.csv, one row per agent, and one trace_<agent>.csv
    of TRACE_COLUMNS per agent into out_dir; returns the summary's path.
    A long-format (t, agent, series, value) view is a reshape of the trace
    columns, so none is written."""
    if not traces:
        raise ValueError("need at least one trace")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "ttc_summary.csv")
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for name, trace in traces.items():
            s = ttc_summary(trace)
            w.writerow([name, repr(float(s.minimum)), repr(float(s.mean)), repr(float(s.median)),
                        repr(float(s.std)), s.count_below_2s, s.n_samples,
                        int(trace.collided), repr(trace.mean_gap())])
    for name, trace in traces.items():
        write_csv(os.path.join(out_dir, f"trace_{name}.csv"), TRACE_COLUMNS,
                  np.column_stack([getattr(trace, c) for c in TRACE_COLUMNS]))
    return summary_path
