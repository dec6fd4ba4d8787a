"""Comparison agents: the Intelligent Driver Model and behavior cloning."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import IdmParams, SimConfig
from .nets import MlpNet, fit_mse
from .simcore import STATE_DIM, VEHICLE_LENGTH, normalize_state, scale_action


def idm_accel(v, v_l, g, p: IdmParams = None, a_min=SimConfig.a_min,
              a_max=SimConfig.a_max):
    """IDM acceleration a*[1 - (v/v_des)^delta - (s*/g)^2] with
    s* = g_min + v*T + v*dv/(2*sqrt(a*b)), clipped to [a_min, a_max]."""
    p = p or IdmParams()
    if g <= 0:
        raise ValueError("idm_accel requires g > 0 (collision state)")
    dv = v - v_l
    s_star = p.g_min + v * p.T + v * dv / (2.0 * math.sqrt(p.a * p.b_comf))
    a = p.a * (1.0 - (v / p.v_des) ** p.delta - (s_star / g) ** 2)
    return min(max(a, a_min), a_max)


def idm_equilibrium_gap(v, p: IdmParams = None):
    """Closed-form steady-state gap behind a same-speed leader:
    s*(v, 0)/sqrt(1 - (v/v_des)^delta).  Testing oracle."""
    p = p or IdmParams()
    if not (0 <= v < p.v_des):
        raise ValueError("no finite equilibrium for v >= v_des")
    return (p.g_min + v * p.T) / math.sqrt(1.0 - (v / p.v_des) ** p.delta)


class IdmController:
    """act(v, a, v_l, g) wrapper so IDM plugs into the eval harness."""

    def __init__(self, params: IdmParams = None, sim_cfg: SimConfig = None):
        self.params = params or IdmParams()
        sim_cfg = sim_cfg or SimConfig()
        self.a_min = sim_cfg.a_min
        self.a_max = sim_cfg.a_max

    def act(self, v, a, v_l, g):
        return idm_accel(v, v_l, g, self.params, self.a_min, self.a_max)


@dataclass
class BcPolicy:
    """Actor-shaped regressor from normalized observations to accel."""
    net: MlpNet
    sim_cfg: SimConfig

    def act(self, v, a, v_l, g):
        obs = normalize_state(v, a, v_l, g, self.sim_cfg)
        return scale_action(float(self.net.forward(obs[None])[0, 0]),
                            self.sim_cfg)

    def predict(self, states):
        return scale_action(self.net.forward(states)[:, 0], self.sim_cfg)


def bc_train(train_ds, epochs=20, seed=0, sim_cfg: SimConfig = None):
    """Behavior cloning: regress dataset actions (m/s^2) from observations
    by MSE over shuffled minibatches.  Deterministic under the seed."""
    if len(train_ds) == 0:
        raise ValueError("empty training split")
    sim_cfg = sim_cfg or SimConfig()
    rows = train_ds.transitions
    net = fit_mse([STATE_DIM, 32, 32, 1], rows.states, rows.actions[:, None],
                  sim_cfg.a_min, sim_cfg.a_max, epochs, seed)
    return BcPolicy(net, sim_cfg)


def bc_mse(policy: BcPolicy, ds):
    rows = ds.transitions
    return float(np.mean((policy.predict(rows.states) - rows.actions) ** 2))


def idm_replay_rmse(grid, ep, cfg: SimConfig):
    """Gap RMSE against the recorded follower of an IDM follower replayed
    behind the recorded leader, for every IdmParams in ``grid`` at once.

    Bit-identical to running each member through FollowEnv.step with an
    IdmController: the members step in lockstep as arrays, term for term
    as idm_accel and the env, with the two power terms taken by Python's
    pow per element (numpy's vector pow can differ from libm's in the last
    bit), and the start gap through the env's bookkeeping, (g0 + L) - 0 - L.
    A member stops on the step that ends its episode (collision or gap >
    g_max) and leaves the arrays; its RMSE is over the steps it ran, that
    one included.
    """
    rec = ep.records
    n = len(rec) - 1
    if n < 1:
        raise ValueError(f"episode {ep.id}: a replay needs at least 2 rows")
    dt, L = cfg.dt, VEHICLE_LENGTH
    v_l = rec[:, 1]
    K = len(grid)
    ids = np.arange(K)
    T, g_min, a_idm, v_des, b_comf = (
        np.array([getattr(p, f) for p in grid])
        for f in ("T", "g_min", "a", "v_des", "b_comf"))
    delta = [p.delta for p in grid]
    root = 2.0 * np.sqrt(a_idm * b_comf)
    v = np.full(K, float(rec[0, 2]))
    x = np.zeros(K)
    x_l = float(rec[0, 3]) + L
    g = x_l - x - L
    gaps = np.empty((K, n))
    lengths = np.full(K, n)
    for i in range(n):
        s_star = g_min + v * T + v * (v - v_l[i]) / root
        free = np.array(list(map(pow, (v / v_des).tolist(), delta)))
        brake = np.array([q ** 2 for q in (s_star / g).tolist()])
        acc = a_idm * (1.0 - free - brake)
        acc = np.minimum(np.maximum(acc, cfg.a_min), cfg.a_max)
        acc = np.where(v + acc * dt >= 0, acc, -v / dt)
        v_new = np.maximum(0.0, v + acc * dt)
        x = x + 0.5 * (v + v_new) * dt
        v = v_new
        x_l += 0.5 * (v_l[i] + v_l[i + 1]) * dt
        g = x_l - x - L
        gaps[ids, i] = g
        ended = (g <= 0.0) | (g > cfg.g_max)
        if ended.any():
            lengths[ids[ended]] = i + 1
            keep = ~ended
            ids, T, g_min, a_idm, v_des, root, v, x, g = (
                arr[keep] for arr in
                (ids, T, g_min, a_idm, v_des, root, v, x, g))
            delta = [d for d, k in zip(delta, keep) if k]
            if not len(ids):
                break
    return np.array([np.sqrt(np.mean((gaps[k, :m] - rec[1:m + 1, 3]) ** 2))
                     for k, m in enumerate(lengths.tolist())])


# calibrate_idm's default grid: time gap (s), minimum gap (m), maximum
# acceleration (m/s^2)
T_GRID = (0.6, 0.8, 1.0, 1.2, 1.5, 2.0)
G_MIN_GRID = (1.5, 2.0, 2.5, 3.0)
A_GRID = (1.0, 1.5, 2.0, 2.5)


def calibrate_idm(episodes, cfg: SimConfig, base: IdmParams = None,
                  T_grid=T_GRID, g_min_grid=G_MIN_GRID, a_grid=A_GRID):
    """Grid-search stand-in for IDM calibration: minimize gap RMSE of a
    simulated IDM follower against the recorded follower over the given
    episodes.  Not the (undocumented) procedure used for Table-3 values.
    An empty grid axis or an empty episode list raises ValueError; ties
    keep the earlier grid point (T outermost, then g_min, then a).
    """
    base = base or IdmParams()
    for name, values in (("T_grid", T_grid), ("g_min_grid", g_min_grid),
                         ("a_grid", a_grid), ("episodes", episodes)):
        if len(values) == 0:
            raise ValueError(f"calibrate_idm: {name} is empty")
    grid = [replace(base, T=T, g_min=g_min, a=a)
            for T in T_grid for g_min in g_min_grid for a in a_grid]
    per_episode = [idm_replay_rmse(grid, ep, cfg) for ep in episodes]
    best, best_rmse = base, float("inf")
    for k, params in enumerate(grid):
        rmse = float(np.mean([r[k] for r in per_episode]))
        if rmse < best_rmse:
            best, best_rmse = params, rmse
    return best, best_rmse
