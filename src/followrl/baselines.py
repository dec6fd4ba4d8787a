"""Comparison agents: the Intelligent Driver Model and behavior cloning."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import IdmParams, SimConfig
from .evaluate import replay_gap_rmse
from .nets import MlpNet, fit_mse
from .simcore import normalize_state, scale_action


def idm_accel(v, v_l, g, p: IdmParams = None, a_min=-9.0, a_max=5.0):
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
        return float(scale_action(self.net.forward(obs)[0], self.sim_cfg))

    def predict(self, states):
        return scale_action(self.net.forward(states)[:, 0], self.sim_cfg)


def bc_train(train_ds, epochs=20, seed=0, sim_cfg: SimConfig = None):
    """Behavior cloning: regress dataset actions (m/s^2) from observations
    by MSE over shuffled minibatches.  Deterministic under the seed."""
    if len(train_ds) == 0:
        raise ValueError("empty training split")
    sim_cfg = sim_cfg or SimConfig()
    rows = train_ds.transitions
    net = fit_mse([4, 32, 32, 1], rows.states, rows.actions[:, None],
                  sim_cfg.a_min, sim_cfg.a_max, epochs, seed)
    return BcPolicy(net, sim_cfg)


def bc_mse(policy: BcPolicy, ds):
    rows = ds.transitions
    return float(np.mean((policy.predict(rows.states) - rows.actions) ** 2))


def calibrate_idm(episodes, cfg: SimConfig, base: IdmParams = None,
                  T_grid=None, g_min_grid=None, a_grid=None):
    """Grid-search stand-in for IDM calibration: minimize gap RMSE of a
    simulated IDM follower against the recorded follower over the given
    episodes.  Not the (undocumented) procedure used for Table-3 values.
    """
    base = base or IdmParams()
    T_grid = T_grid if T_grid is not None else [0.6, 0.8, 1.0, 1.2, 1.5, 2.0]
    g_min_grid = g_min_grid if g_min_grid is not None else [1.5, 2.0, 2.5, 3.0]
    a_grid = a_grid if a_grid is not None else [1.0, 1.5, 2.0, 2.5]
    best, best_rmse = base, float("inf")
    for T in T_grid:
        for g_min in g_min_grid:
            for a in a_grid:
                params = replace(base, T=T, g_min=g_min, a=a)
                ctrl = IdmController(params, cfg)
                rmse = float(np.mean([replay_gap_rmse(ctrl, ep, cfg)
                                      for ep in episodes]))
                if rmse < best_rmse:
                    best, best_rmse = params, rmse
    return best, best_rmse
