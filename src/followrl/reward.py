"""Three-term car-following reward: safety, gap efficiency, jerk comfort.

The same functions relabel recorded trajectories and score the live
simulator, so offline and online rewards agree bit-exactly.
"""

import math
from dataclasses import dataclass

from .config import RewardConfig


@dataclass
class RewardBreakdown:
    r_safe: float
    r_gap: float
    r_jerk: float
    total: float
    b_kin: float    # 1/s as written; see README on its dimensional status
    g_opt: float    # m
    g_lim: float    # m


def reward_safe(v, v_l, g, cfg: RewardConfig):
    """Penalty when the kinematically needed deceleration exceeds b_comf.

    b_kin = (v - v_l)/g while closing, else 0; the penalty
    -tanh{(b_kin - b_comf)/(-a_min)} applies only when b_kin > b_comf
    (strict inequality).
    """
    if g <= 0:
        raise ValueError("reward_safe requires g > 0; handle collision upstream")
    return _safe_term((v - v_l) / g if v > v_l else 0.0, cfg)


def _safe_term(b_kin, cfg: RewardConfig):
    if b_kin > cfg.b_comf:
        return -math.tanh((b_kin - cfg.b_comf) / (-cfg.a_min))
    return 0.0


def _gap_scales(v, cfg: RewardConfig):
    g_opt = v * cfg.T + cfg.g_min
    g_lim = v * cfg.T_lim + 2.0 * cfg.g_min
    return g_opt, g_lim


def reward_gap(v, g, cfg: RewardConfig):
    """Efficiency term: Gaussian peak at g_opt = v*T + g_min, tapered
    linearly to zero at g_lim = v*T_lim + 2*g_min, clamped at 0 beyond."""
    if v < 0 or g < 0:
        raise ValueError("reward_gap requires v >= 0 and g >= 0")
    return _gap_term(g, *_gap_scales(v, cfg))


def _gap_term(g, g_opt, g_lim):
    z = (g - g_opt) / (0.5 * g_opt)
    gauss = math.exp(-0.5 * z * z)      # phi(z)/phi(0)
    if g < g_opt:
        return gauss
    if g > g_lim:
        return 0.0
    return gauss * (1.0 - (g - g_opt) / (g_lim - g_opt))


def reward_jerk(jerk, cfg: RewardConfig):
    """Comfort term -(jerk/j_comf)^2; unbounded below by design, kept
    small in the total by w_jerk."""
    if not math.isfinite(jerk):
        raise ValueError("jerk must be finite")
    x = jerk / cfg.j_comf
    return -x * x


def reward_total(v, v_l, g, jerk, cfg: RewardConfig):
    """Weighted sum of the three sub-rewards, with the breakdown kept for
    diagnostics.  Supremum is w_gap = 0.5, attained at v = v_l, g = g_opt,
    jerk = 0.

    The terms are reward_safe's, reward_gap's and reward_jerk's, bit for
    bit, and their input checks run in that order; b_kin, g_opt and g_lim
    are computed once and shared by the terms and the breakdown."""
    if g <= 0:
        raise ValueError("reward_safe requires g > 0; handle collision upstream")
    if v < 0:
        raise ValueError("reward_gap requires v >= 0 and g >= 0")
    b_kin = (v - v_l) / g if v > v_l else 0.0
    g_opt, g_lim = _gap_scales(v, cfg)
    r_s = _safe_term(b_kin, cfg)
    r_g = _gap_term(g, g_opt, g_lim)
    r_j = reward_jerk(jerk, cfg)
    total = cfg.w_safe * r_s + cfg.w_gap * r_g + cfg.w_jerk * r_j
    return RewardBreakdown(r_s, r_g, r_j, total, b_kin, g_opt, g_lim)
