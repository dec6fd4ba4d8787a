import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from followrl import FollowEnv, OuParams, SimConfig, gen_leader_profile, normalize_state, ou_path
from followrl.config import LEADER_OU
from followrl.control import REVERSE_HEADER, read_reverse_csv
from followrl.datasets import HEADER, parse_trajectory_csv
from followrl.evaluate import episode_scenario
from followrl.simcore import VEHICLE_LENGTH, unscale_action, write_csv

CFG = SimConfig()


def short_cfg(**kw):
    kw.setdefault("max_steps", 200)
    return SimConfig(**kw)


def make_profile(v, n):
    return np.full(n + 1, float(v))


def seeded_gap(seed, cfg):
    """An initial gap uniform in the configured range under the seed."""
    return np.random.default_rng(seed).uniform(cfg.init_gap_low,
                                               cfg.init_gap_high)


class TestNormalize:
    def test_all_minimum(self):
        assert np.allclose(normalize_state(0, -9, 0, 0, CFG), [0, 0, 0, 0])

    def test_all_maximum(self):
        assert np.allclose(normalize_state(20, 5, 20, 200, CFG), [1, 1, 0, 1])

    def test_direct_arithmetic(self):
        assert np.allclose(normalize_state(10, -2, 14, 50, CFG), [0.5, 0.5, 0.2, 0.25])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_state(float("nan"), 0, 0, 10, CFG)
        with pytest.raises(ValueError):
            normalize_state(0, 0, float("inf"), 10, CFG)

    def test_gap_clamped(self):
        obs = normalize_state(0, 0, 0, 250, CFG)
        assert obs[3] == 1.0


@pytest.mark.parametrize("a_min, a_max", [(-9.0, 5.0), (-3.5, 2.25)])
def test_unscale_action_is_the_python_float_formula(a_min, a_max):
    # unscale_action's 0-d operands give the bits of the Python-float
    # formula, on a batch column and on one action, and follow the range
    cfg = SimConfig(a_min=a_min, a_max=a_max)
    acts = np.random.default_rng(0).uniform(a_min, a_max, (64, 1))
    want = 2.0 * (acts - a_min) / (a_max - a_min) - 1.0
    assert unscale_action(acts, cfg).tobytes() == want.tobytes()
    assert unscale_action(0.0, cfg) == 2.0 * (0.0 - a_min) / (a_max - a_min) - 1.0
    assert unscale_action(a_min, cfg) == -1.0 and unscale_action(a_max, cfg) == 1.0


class TestOuPath:
    def test_noise_free_relaxation(self):
        p = OuParams(theta=0.5, sigma=0.0, mu=3.0, x0=0.0)
        x = ou_path(p, 100, 0.1, seed=0)
        # exponential Euler relaxation toward mu, monotone from below
        assert np.all(np.diff(x) > 0)
        assert x[-1] < 3.0
        assert x[-1] == pytest.approx(3.0 * (1 - (1 - 0.5 * 0.1) ** 99), abs=1e-12)

    def test_pure_random_walk_variance(self):
        p = OuParams(theta=0.0, sigma=1.0, mu=0.0, x0=0.0)
        x = ou_path(p, 20000, 0.1, seed=3)
        steps = np.diff(x)
        assert np.var(steps) == pytest.approx(1.0 * 0.1, rel=0.05)

    def test_stationary_moments(self):
        p = OuParams(theta=0.15, sigma=0.2, mu=0.0, x0=0.0)
        x = ou_path(p, 10 ** 6, 0.1, seed=42)
        assert -0.05 < np.mean(x) < 0.05
        assert np.var(x) == pytest.approx(p.sigma ** 2 / (2 * p.theta), rel=0.10)

    def test_deterministic(self):
        p = OuParams()
        assert np.array_equal(ou_path(p, 100, 0.1, seed=9), ou_path(p, 100, 0.1, seed=9))


def reference_ou_path(params, n_steps, dt, seed):
    """ou_path stepping numpy elements one by one: the bit-for-bit
    reference for its Python-float loop."""
    rng = np.random.default_rng(seed)
    x = np.empty(n_steps)
    x[0] = params.x0
    noise = params.sigma * math.sqrt(dt) * rng.standard_normal(n_steps - 1)
    for k in range(n_steps - 1):
        x[k + 1] = x[k] + params.theta * (params.mu - x[k]) * dt + noise[k]
    return x


def reference_leader_profile(seed, duration, cfg, ou):
    """gen_leader_profile over numpy elements, as reference_ou_path."""
    n = max(1, int(round(duration / cfg.dt)))
    raw = reference_ou_path(OuParams(ou.theta, ou.sigma, ou.mu, 0.0), n,
                            cfg.dt, seed)
    v = np.empty(n)
    v[0] = 0.0
    for k in range(1, n):
        lo = v[k - 1] + cfg.a_min * cfg.dt
        hi = v[k - 1] + cfg.a_max * cfg.dt
        v[k] = min(max(min(max(raw[k], lo), hi), 0.0), cfg.v_des)
    return v


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 400),
       theta=st.floats(0.0, 2.0), sigma=st.floats(0.0, 5.0),
       mu=st.floats(-10.0, 30.0), x0=st.floats(-10.0, 30.0),
       dt=st.sampled_from([0.01, 0.05, 0.1, 0.3]))
def test_episode_starts_match_element_loops(seed, n, theta, sigma, mu, x0, dt):
    ou = OuParams(theta, sigma, mu, x0)
    assert (ou_path(ou, n, dt, seed=seed).tobytes()
            == reference_ou_path(ou, n, dt, seed).tobytes())
    cfg = SimConfig(dt=dt)
    assert (gen_leader_profile(seed, n * dt, cfg, ou).tobytes()
            == reference_leader_profile(seed, n * dt, cfg, ou).tobytes())


class TestLeaderProfile:
    def test_single_sample_is_zero(self):
        prof = gen_leader_profile(0, 0.1, CFG)
        assert len(prof) == 1 and prof[0] == 0.0

    def test_clamps(self):
        for seed in range(10):
            prof = gen_leader_profile(seed, 140.0, CFG)
            assert np.all(prof >= 0.0) and np.all(prof <= CFG.v_des)
            dv = np.diff(prof) / CFG.dt
            assert np.all(dv <= CFG.a_max + 1e-12)
            assert np.all(dv >= CFG.a_min - 1e-12)

    def test_mean_near_ou_mean(self):
        prof = gen_leader_profile(42, 140.0, CFG)
        assert len(prof) == 1400
        sigma_stat = LEADER_OU.sigma / math.sqrt(2 * LEADER_OU.theta)
        assert abs(np.mean(prof) - LEADER_OU.mu) < 3 * sigma_stat


class TestReset:
    # training and evaluation episodes start where episode_scenario says:
    # a leader profile and then a gap, each from a seed drawn from the rng
    def test_deterministic_gap(self):
        cfg = short_cfg()
        sc = episode_scenario(np.random.default_rng(7), cfg, LEADER_OU)
        rng = np.random.default_rng(7)
        profile_seed = int(rng.integers(0, 2 ** 31 - 1))
        gap_seed = int(rng.integers(0, 2 ** 31 - 1))
        assert np.array_equal(sc.profile, gen_leader_profile(
            profile_seed, (cfg.max_steps + 1) * cfg.dt, cfg, LEADER_OU))
        assert sc.initial_gap == seeded_gap(gap_seed, cfg)
        env = FollowEnv(cfg)
        prof = make_profile(5, 200)
        s1 = env.reset(prof, sc.initial_gap)
        g1 = env.gap
        assert env.reset(prof, sc.initial_gap) == s1
        assert env.gap == g1
        # reset returns the physical start (v, a, v_l, g); a policy
        # encodes it with normalize_state
        assert s1 == (0.0, 0.0, 5.0, g1)
        obs = normalize_state(*s1, cfg)
        assert obs[0] == 0.0 and obs[2] == pytest.approx(5.0 / 20.0)

    def test_gap_distribution(self):
        cfg = short_cfg(max_steps=1)
        rng = np.random.default_rng(0)
        gaps = [episode_scenario(rng, cfg, LEADER_OU).initial_gap
                for _ in range(10 ** 4)]
        assert 47.5 <= np.mean(gaps) <= 52.5

    def test_degenerate_interval(self):
        cfg = short_cfg(init_gap_low=50, init_gap_high=50)
        sc = episode_scenario(np.random.default_rng(0), cfg, LEADER_OU)
        env = FollowEnv(cfg)
        env.reset(sc.profile, sc.initial_gap)
        assert sc.initial_gap == 50.0
        assert env.gap == pytest.approx(50.0)

    def test_rejects_short_profile(self):
        # an episode runs to its profile's end, so only a profile without a
        # step is rejected; one shorter than max_steps + 1 samples once was
        env = FollowEnv(short_cfg())
        for n in (0, 1):
            with pytest.raises(ValueError,
                               match=f"^leader profile has {n} samples, need 2$"):
                env.reset(np.zeros(n), 50.0)
        env.reset(make_profile(0, 1), 50.0)
        _, _, done, info = env.step(0.0)
        assert done and info.t == env.cfg.dt

    @pytest.mark.parametrize("where, value", [
        ("profile", math.nan), ("profile", math.inf),
        ("initial_gap", math.inf), ("follower_speed", math.nan)])
    def test_rejects_non_finite_start(self, where, value):
        # reset rejects the start before the episode runs: a NaN leader
        # speed once raised only at step 4, and an inf one ended an IDM
        # rollout silently as an escape at gap inf
        kwargs = {"profile": make_profile(5, 200), "initial_gap": 20.0,
                  "follower_speed": 5.0}
        if where == "profile":
            kwargs["profile"][5] = value
            match = "leader profile value at index 5"
        else:
            kwargs[where] = value
            match = f"{where} {value}"
        env = FollowEnv(short_cfg())
        with pytest.raises(ValueError, match="non-finite " + match):
            env.reset(**kwargs)
        assert env.done

    @pytest.mark.parametrize("gap", [0.0, -5.0])
    def test_rejects_non_positive_gap(self, gap):
        # a start at gap <= 0 once ran: its first step was a collision,
        # and an IDM rollout from it died inside idm_accel
        env = FollowEnv(short_cfg())
        with pytest.raises(ValueError, match=f"non-positive initial_gap {gap}"):
            env.reset(make_profile(5, 200), gap, follower_speed=5.0)
        assert env.done

    @pytest.mark.parametrize("where", ["profile", "follower_speed"])
    def test_rejects_negative_speed(self, where):
        # a negative start speed once made the speed floor's -v/dt the
        # applied accel: 30 m/s^2 from -3 m/s, above a_max
        kwargs = {"profile": make_profile(5, 200), "initial_gap": 20.0,
                  "follower_speed": 5.0}
        if where == "profile":
            kwargs["profile"][7] = -2.0
            match = "negative leader profile value at index 7"
        else:
            kwargs[where] = -3.0
            match = "negative follower_speed -3.0"
        env = FollowEnv(short_cfg())
        with pytest.raises(ValueError, match=match):
            env.reset(**kwargs)
        assert env.done


class TestStep:
    def test_statics(self):
        env = FollowEnv(short_cfg())
        env.reset(make_profile(0, 200), initial_gap=10.0)
        obs, r, done, info = env.step(0.0)
        assert info.gap == pytest.approx(10.0)
        assert not done

    def test_braking_to_standstill(self):
        # v=10, full braking: stops in ceil(10/0.9) = 12 steps, never negative
        env = FollowEnv(short_cfg())
        env.reset(make_profile(20, 200), initial_gap=100.0, follower_speed=10.0)
        speeds = []
        for _ in range(15):
            (v, _, _, _), _, _, _ = env.step(-9.0)
            speeds.append(v)
        assert all(v >= 0 for v in speeds)
        assert speeds[10] > 0.0
        assert speeds[11] == pytest.approx(0.0, abs=1e-12)

    def test_collision_within_one_step(self):
        env = FollowEnv(short_cfg())
        env.reset(make_profile(0, 200), initial_gap=0.3, follower_speed=5.0)
        _, r, done, info = env.step(0.0)
        assert done and info.collision
        assert r == -1.0

    def test_non_finite_action_rejected(self):
        # a NaN action used to clip to a_min and brake the follower
        env = FollowEnv(short_cfg())
        env.reset(make_profile(5, 200), initial_gap=20.0, follower_speed=5.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite action"):
                env.step(bad)
        assert env.step_index == 0 and env.follower.speed == 5.0
        # finite actions outside [a_min, a_max] still clip
        (_, a, _, _), _, _, _ = env.step(-50.0)
        assert a == env.cfg.a_min
        (_, a, _, _), _, _, _ = env.step(50.0)
        assert a == env.cfg.a_max

    def test_step_after_done_rejected(self):
        env = FollowEnv(short_cfg())
        env.reset(make_profile(0, 200), initial_gap=0.3, follower_speed=5.0)
        env.step(0.0)
        with pytest.raises(RuntimeError):
            env.step(0.0)

    def test_gap_exceeds_gmax_terminates(self):
        env = FollowEnv(short_cfg())
        env.reset(make_profile(20, 200), initial_gap=199.0)
        _, _, done, info = env.step(0.0)
        assert done and info.gap > 200.0 and not info.collision

    def test_max_steps_termination(self):
        env = FollowEnv(short_cfg(max_steps=50, init_gap_low=50, init_gap_high=50))
        env.reset(make_profile(5, 50), 50.0)
        done = False
        n = 0
        while not done:
            _, _, done, _ = env.step(0.5)
            n += 1
        assert n == 50

    @pytest.mark.parametrize("steps", [30, 80])
    def test_episode_ends_at_profile_end(self, steps):
        # under max_steps = 50, a profile of steps + 1 samples runs exactly
        # steps steps, fewer or more than 50: the follower matches a 5 m/s
        # leader 50 m ahead, so it neither collides nor escapes
        cfg = short_cfg(max_steps=50)
        env = FollowEnv(cfg)
        env.reset(make_profile(5, steps), 50.0, follower_speed=5.0)
        n, done = 0, False
        while not done:
            _, _, done, info = env.step(0.0)
            n += 1
            assert 0.0 < info.gap <= cfg.g_max
        assert n == steps and info.t == steps * cfg.dt

    def test_determinism_bit_identical(self):
        cfg = short_cfg()
        actions = np.random.default_rng(0).uniform(-3, 3, size=200)
        results = []
        for _ in range(2):
            env = FollowEnv(cfg)
            prof = gen_leader_profile(5, 20.1, cfg)
            env.reset(prof, seeded_gap(11, cfg))
            rows = []
            done = False
            k = 0
            while not done and k < len(actions):
                (v, _, _, _), r, done, info = env.step(actions[k])
                rows.append((v, info.gap, r))
                k += 1
            results.append(rows)
        assert results[0] == results[1]

    def test_trapezoidal_position_invariant(self):
        cfg = short_cfg()
        env = FollowEnv(cfg)
        prof = gen_leader_profile(3, 20.1, cfg)
        env.reset(prof, 40.0)
        rng = np.random.default_rng(4)
        pos0 = env.follower.position
        v_trace = [env.follower.speed]
        done = False
        while not done:
            (v, _, _, _), _, done, _ = env.step(rng.uniform(-9, 5))
            v_trace.append(v)
        v = np.array(v_trace)
        integral = np.sum((v[:-1] + v[1:]) / 2.0 * cfg.dt)
        assert env.follower.position - pos0 == pytest.approx(integral, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(leader=st.one_of(st.integers(0, 2 ** 31 - 2), st.floats(0.0, 20.0)),
           gap=st.floats(0.1, 199.9),
           speed=st.floats(0.0, 20.0),
           actions=st.one_of(st.floats(-11.0, 7.0),
                             st.integers(0, 2 ** 32 - 1)))
    def test_invariants_property(self, leader, gap, speed, actions):
        # behind an OU leader (an int seeds it) or a constant-speed one,
        # under a constant command or seeded ones uniform in [-11, 7]
        # m/s^2: speed never goes negative, the gap is the bumper-to-bumper
        # distance, and the episode ends on the first step that collides
        # (gap <= 0), escapes (gap > g_max) or reaches the profile's last
        # sample, and on no other
        cfg = short_cfg(max_steps=150)
        if isinstance(leader, float):
            profile = make_profile(leader, cfg.max_steps)
        else:
            profile = gen_leader_profile(leader, (cfg.max_steps + 1) * cfg.dt,
                                         cfg)
        rng = None if isinstance(actions, float) else np.random.default_rng(actions)
        env = FollowEnv(cfg)
        env.reset(profile, gap, follower_speed=speed)
        done = False
        while not done:
            (v, _, _, _), _, done, info = env.step(
                actions if rng is None else rng.uniform(-11.0, 7.0))
            assert v >= 0.0 and env.follower.speed == v
            assert info.gap == (env.leader.position - env.follower.position
                                - VEHICLE_LENGTH)
            collision, escape = info.gap <= 0.0, info.gap > cfg.g_max
            assert info.collision == collision
            assert done == (collision or escape
                            or env.step_index == len(profile) - 1)

    def test_observation_bounds(self):
        cfg = short_cfg()
        env = FollowEnv(cfg)
        prof = gen_leader_profile(8, 20.1, cfg)
        state = env.reset(prof, seeded_gap(3, cfg))
        rng = np.random.default_rng(5)
        done = False
        while not done:
            # step returns the env's physical state, whose gap its StepInfo
            # repeats, and its encoding keeps the accel and gap components
            # in [0, 1]
            obs = normalize_state(*state, cfg)
            assert 0.0 <= obs[1] <= 1.0 and 0.0 <= obs[3] <= 1.0
            state, _, done, info = env.step(rng.uniform(-9, 5))
            assert state == (env.follower.speed, env.follower.accel,
                             env.leader.speed, env.gap)
            assert state[3] == info.gap
        obs = normalize_state(*state, cfg)
        assert 0.0 <= obs[1] <= 1.0 and 0.0 <= obs[3] <= 1.0


# Each reader of the numeric CSV codec, with a valid three-row file.
CSV_READERS = {
    "trajectory": (lambda path: parse_trajectory_csv(path, CFG.dt).records,
                   HEADER,
                   ["0.0,5.0,4.0,10.0", "0.1,5.0,4.1,10.0", "0.2,5.0,4.2,10.0"]),
    "reverse": (read_reverse_csv, REVERSE_HEADER,
                ["0.1,0.0,1.0,0.25,0.0", "0.2,0.1,1.0,0.25,0.0",
                 "0.1,0.2,-1.0,0.0,0.5"]),
}
# (line broken, fields -> broken fields); line 1 is the header
CSV_BREAKS = {
    "wrong-header": (1, lambda f: ["x"] + f[1:]),
    "short-row": (3, lambda f: f[:-1]),
    "long-row": (3, lambda f: f + ["1.0"]),
    "non-numeric": (3, lambda f: f[:-1] + ["abc"]),
    "nan": (3, lambda f: f[:-1] + ["nan"]),
    "inf": (3, lambda f: f[:-1] + ["inf"]),
}
# Rows only the reverse-data reader rejects, (v_next, v, a, throttle, brake)
# that the powertrain cannot produce.
REVERSE_BREAKS = {
    "throttle-above-1": (3, lambda f: f[:3] + ["1.5", f[4]]),
    "brake-below-0": (3, lambda f: f[:4] + ["-0.1"]),
    "negative-speed": (3, lambda f: f[:1] + ["-0.1"] + f[2:]),
    "pedals-and-speeds": (3, lambda f: ["1.0", "-3.0", "0.5", "1.5", "-2.0"]),
}
# A row only the trajectory reader rejects: gap_m <= 0 is a collision.
TRAJECTORY_BREAKS = {
    "zero-gap": (3, lambda f: f[:3] + ["0.0"]),
}
CSV_CASES = ([(reader, fault) for reader in CSV_READERS for fault in CSV_BREAKS]
             + [("reverse", fault) for fault in REVERSE_BREAKS]
             + [("trajectory", fault) for fault in TRAJECTORY_BREAKS])


def test_write_csv_writes_each_float_as_its_repr(tmp_path):
    # csv.writer writes a float as its repr, so the file holds the
    # shortest text that reads back as the same double
    rows = np.array([[0.1, -0.0, 1e-310, 1e22], [np.nan, np.inf, -np.inf, 2.0],
                     [1 / 3, -5e-324, 123456789.125, 0.0]])
    path = tmp_path / "values.csv"
    write_csv(path, ["a", "b", "c", "d"], rows)
    assert path.read_text().splitlines() == ["a,b,c,d"] + [
        ",".join(map(repr, row)) for row in rows.tolist()]


def reference_write_csv(path, header, rows):
    """write_csv as it was when csv.writer wrote every row: the
    byte-for-byte reference for the one-format version."""
    rows = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows.tolist())


def per_row_write_csv(path, header, rows):
    """write_csv as it was when it formatted each row with one %r format:
    the byte-for-byte reference for the one format over the whole array."""
    rows = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([line % tuple(row) for row in rows.tolist()]))


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308,
            -1e-310, 1e22, 1e16, 0.1, 1 / 3, 1.7976931348623157e308]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 9)),
                   elements=st.floats() | st.sampled_from(SPECIALS)))
@example(rows=np.array([SPECIALS[:8], SPECIALS[5:]]))
@example(rows=np.array([[x] for x in SPECIALS]))        # one column
@example(rows=np.array([SPECIALS]))                      # one row
@example(rows=np.empty((0, 3)))                          # no rows
def test_write_csv_matches_csv_writer_bytes(tmp_path, rows):
    header = [f"c{k}" for k in range(rows.shape[1])]
    write_csv(tmp_path / "got.csv", header, rows)
    got = (tmp_path / "got.csv").read_bytes()
    for reference in (reference_write_csv, per_row_write_csv):
        reference(tmp_path / "want.csv", header, rows)
        assert got == (tmp_path / "want.csv").read_bytes(), reference.__name__


def test_csv_readers_accept_valid_files(tmp_path):
    for name, (read, header, rows) in CSV_READERS.items():
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join([",".join(header)] + rows) + "\n")
        values = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(read(path), values)


@pytest.mark.parametrize("reader, fault", CSV_CASES)
def test_bad_csv_rejected(tmp_path, reader, fault):
    read, header, rows = CSV_READERS[reader]
    line, broken = {**CSV_BREAKS, **REVERSE_BREAKS, **TRAJECTORY_BREAKS}[fault]
    lines = [",".join(header)] + rows
    lines[line - 1] = ",".join(broken(lines[line - 1].split(",")))
    path = tmp_path / f"{reader}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{reader}\.csv: line {line}\b"):
        read(path)
