"""1-D leader-follower environment with OU-generated leader profiles.

Fixed steps of SimConfig.dt and bumper-to-bumper gap bookkeeping.  The env
returns the physical state (v, a, v_l, g); normalize_state is the
4-component encoding each learned policy applies to it.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import LEADER_OU, OuParams, RewardConfig, SimConfig
from .reward import reward_total

# Reward assigned on the collision step; the safety term saturates at -1
# as the gap closes, so this is its limit value.
COLLISION_REWARD = -1.0

# the width of normalize_state's (v, a, v_l, g) vector
STATE_DIM = 4


def normalize_state(v, a, v_l, g, cfg: SimConfig):
    """Map raw (v, accel, leader v, gap) to the dimensionless 4-vector
    (v/v_des, (a - a_min)/(a_max - a_min), (v_l - v)/v_des, g/g_max).

    The gap is clamped into [0, g_max] before division so the last
    component stays in [0, 1] even on the step that trips the gap > g_max
    termination.
    """
    if not (math.isfinite(v) and math.isfinite(a) and math.isfinite(v_l)
            and math.isfinite(g)):
        # the per-name loop only names the bad input, off the hot path
        for name, x in (("v", v), ("a", a), ("v_l", v_l), ("g", g)):
            if not math.isfinite(x):
                raise ValueError(f"non-finite input {name}={x}")
    g = min(max(g, 0.0), cfg.g_max)
    return np.array([
        v / cfg.v_des,
        (a - cfg.a_min) / (cfg.a_max - cfg.a_min),
        (v_l - v) / cfg.v_des,
        g / cfg.g_max,
    ])


def scale_action(u, cfg: SimConfig):
    """Map a tanh output u in [-1, 1] linearly onto [a_min, a_max]."""
    return cfg.a_min + (u + 1.0) / 2.0 * (cfg.a_max - cfg.a_min)


def unscale_action(a, cfg: SimConfig):
    """Inverse of scale_action: an acceleration in m/s^2 to [-1, 1]."""
    return 2.0 * (a - cfg.a_min) / (cfg.a_max - cfg.a_min) - 1.0


def ou_path(params: OuParams, n_steps, dt, seed=None):
    """Euler-Maruyama discretization of an Ornstein-Uhlenbeck process:
    x_{k+1} = x_k + theta*(mu - x_k)*dt + sigma*sqrt(dt)*xi_k.

    Returns n_steps samples starting at x0; deterministic for a fixed seed.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    x = [float(params.x0)]
    if n_steps > 1:
        noise = params.sigma * math.sqrt(dt) * rng.standard_normal(n_steps - 1)
        # Python floats: the same IEEE arithmetic as numpy scalars, faster
        for xi in noise.tolist():
            x.append(x[-1] + params.theta * (params.mu - x[-1]) * dt + xi)
    return np.array(x)


class OuNoise:
    """Stateful OU exploration noise in normalized action units."""

    def __init__(self, params: OuParams, dt):
        self.params = params
        self.dt = dt
        self.x = params.x0

    def reset(self):
        self.x = self.params.x0

    def sample(self, rng):
        p = self.params
        self.x += p.theta * (p.mu - self.x) * self.dt \
            + p.sigma * math.sqrt(self.dt) * rng.standard_normal()
        return self.x


def gen_leader_profile(seed, duration, cfg: SimConfig, ou: OuParams = LEADER_OU):
    """OU speed trajectory starting at 0 m/s, clamped to [0, v_des] with
    implied accelerations held within [a_min, a_max]."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = max(1, int(round(duration / cfg.dt)))
    raw = ou_path(OuParams(ou.theta, ou.sigma, ou.mu, 0.0), n, cfg.dt, seed=seed)
    dv_min, dv_max = cfg.a_min * cfg.dt, cfg.a_max * cfg.dt
    v = [0.0]
    for x in raw.tolist()[1:]:
        lo, hi = v[-1] + dv_min, v[-1] + dv_max
        v.append(min(max(min(max(x, lo), hi), 0.0), cfg.v_des))
    return np.array(v)


def write_csv(path, header, rows):
    """Numeric CSV: the header line, then one line per row of ``rows``, an
    (n, len(header)) array, each value written as repr(float) so that it
    reads back bit-exactly.  That is csv.writer's form for a float, and no
    float's repr needs quoting, so each row is one %r format."""
    rows = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    line = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([line % tuple(row) for row in rows.tolist()]))


def read_csv(path, header):
    """Read a numeric CSV into an (n, len(header)) float array.  A header
    other than ``header``, a row of another width, a non-numeric field or
    a non-finite one raises ValueError naming the file and the line."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise ValueError(f"{path}: line 1: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: line {lineno}: non-finite field")
            rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, len(header))


LEADER_HEADER = ["t_s", "v_mps"]


def write_leader_csv(path, profile, dt):
    write_csv(path, LEADER_HEADER,
              np.column_stack((np.arange(len(profile)) * dt, profile)))


@dataclass
class VehicleState:
    position: float = 0.0   # m, front-bumper reference
    speed: float = 0.0      # m/s
    accel: float = 0.0      # m/s^2


@dataclass
class StepInfo:
    t: float
    gap: float
    v: float
    v_l: float
    accel: float
    jerk: float
    collision: bool


class FollowEnv:
    """Deterministic longitudinal leader-follower world.

    reset and step return the state (v, a, v_l, g) as Python floats, in
    the argument order of every controller's act and of normalize_state.
    Episodes terminate on collision (gap <= 0), on gap > g_max, or after
    max_steps; reset rejects a profile too short for a full episode and a
    non-finite start.  It draws no random numbers: callers choose each start.
    """

    def __init__(self, cfg: SimConfig = None, rcfg: RewardConfig = None):
        self.cfg = cfg or SimConfig()
        self.rcfg = rcfg or RewardConfig()
        self.leader = VehicleState()
        self.follower = VehicleState()
        self.profile = None
        self.step_index = 0
        self.done = True

    def reset(self, profile, initial_gap, follower_speed=0.0):
        """Start a new episode at the given gap, the follower at
        follower_speed and the leader at the profile's first speed."""
        cfg = self.cfg
        profile = np.asarray(profile, dtype=float)
        if len(profile) - 1 < cfg.max_steps:
            raise ValueError(
                f"leader profile has {len(profile)} samples; an episode of "
                f"{cfg.max_steps} steps needs at least {cfg.max_steps + 1}")
        # a finite start keeps every state finite; speeds >= 0 keep accels in bounds
        bad = np.flatnonzero(~(np.isfinite(profile) & (profile >= 0.0)))
        if len(bad):
            fault = "negative" if np.isfinite(profile[bad[0]]) else "non-finite"
            raise ValueError(f"{fault} leader profile value at index {bad[0]}")
        for name, x in (("initial_gap", initial_gap), ("follower_speed", follower_speed)):
            if not math.isfinite(x):
                raise ValueError(f"non-finite {name} {x}")
        if follower_speed < 0.0:
            raise ValueError(f"negative follower_speed {follower_speed}")
        # Python floats: the same IEEE arithmetic as numpy scalars, several
        # times faster per operation, and every value derived from the
        # leader speed (position, gap, reward, StepInfo) stays a float
        self.profile = profile.tolist()
        self.step_index = 0
        self.done = False
        self.follower = VehicleState(0.0, float(follower_speed), 0.0)
        self.leader = VehicleState(float(initial_gap) + cfg.vehicle_length,
                                   self.profile[0], 0.0)
        return self.follower.speed, 0.0, self.leader.speed, self.gap

    @property
    def gap(self):
        return self.leader.position - self.follower.position - self.cfg.vehicle_length

    def step(self, action):
        if self.done:
            raise RuntimeError("step() called on a finished episode; reset first")
        cfg = self.cfg
        action = float(action)
        if not math.isfinite(action):
            raise ValueError(f"non-finite action {action}")
        a_cmd = min(max(action, cfg.a_min), cfg.a_max)

        # Reduce the applied accel so speed never undershoots zero.
        v = self.follower.speed
        a_app = a_cmd if v + a_cmd * cfg.dt >= 0 else -v / cfg.dt
        v_new = max(0.0, v + a_app * cfg.dt)
        self.follower.position += 0.5 * (v + v_new) * cfg.dt
        self.follower.speed = v_new

        i = self.step_index
        vl_old, vl_new = self.profile[i], self.profile[i + 1]
        self.leader.position += 0.5 * (vl_old + vl_new) * cfg.dt
        self.leader.speed = vl_new

        jerk = 0.0 if i == 0 else (a_app - self.follower.accel) / cfg.dt
        self.follower.accel = a_app
        self.step_index = i + 1

        gap = self.gap
        collision = gap <= 0.0
        reward = (COLLISION_REWARD if collision
                  else reward_total(v_new, vl_new, gap, jerk, self.rcfg).total)
        self.done = collision or gap > cfg.g_max or self.step_index >= cfg.max_steps
        info = StepInfo(self.step_index * cfg.dt, gap, v_new, vl_new, a_app,
                        jerk, collision)
        return (v_new, a_app, vl_new, gap), reward, self.done, info
