"""Three-term car-following reward: safety, gap efficiency, jerk comfort.

The same function relabels recorded trajectories and scores the live
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


def reward_total(v, v_l, g, jerk, cfg: RewardConfig):
    """Weighted sum of the three sub-rewards, with the breakdown kept for
    diagnostics.  Supremum is w_gap = 0.5, attained at v = v_l, g = g_opt,
    jerk = 0.

    - Safety: b_kin = (v - v_l)/g while closing, else 0; the penalty
      -tanh{(b_kin - b_comf)/(-a_min)} applies only when b_kin > b_comf
      (strict inequality).
    - Gap: a Gaussian peak at g_opt = v*T + g_min, tapered linearly to zero
      at g_lim = v*T_lim + 2*g_min, clamped at 0 beyond.
    - Jerk: -(jerk/j_comf)^2; unbounded below by design, kept small in the
      total by w_jerk.
    """
    if g <= 0:
        raise ValueError(f"reward_total requires g > 0, got g={g}; "
                         "handle collision upstream")
    if v < 0:
        raise ValueError(f"reward_total requires v >= 0, got v={v}")
    if not math.isfinite(jerk):
        raise ValueError(f"reward_total requires a finite jerk, got jerk={jerk}")
    b_kin = (v - v_l) / g if v > v_l else 0.0
    g_opt = v * cfg.T + cfg.g_min
    g_lim = v * cfg.T_lim + 2.0 * cfg.g_min
    r_s = (-math.tanh((b_kin - cfg.b_comf) / (-cfg.a_min))
           if b_kin > cfg.b_comf else 0.0)
    z = (g - g_opt) / (0.5 * g_opt)
    gauss = math.exp(-0.5 * z * z)      # phi(z)/phi(0)
    if g < g_opt:
        r_g = gauss
    elif g > g_lim:
        r_g = 0.0
    else:
        r_g = gauss * (1.0 - (g - g_opt) / (g_lim - g_opt))
    x = jerk / cfg.j_comf
    r_j = -x * x
    total = cfg.w_safe * r_s + cfg.w_gap * r_g + cfg.w_jerk * r_j
    return RewardBreakdown(r_s, r_g, r_j, total, b_kin, g_opt, g_lim)
