import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from followrl import RewardConfig, reward_total

CFG = RewardConfig()


def test_safe_indicator_off_when_not_closing():
    assert reward_total(5.0, 10.0, 3.0, 0.0, CFG).r_safe == 0.0


def test_safe_hard_braking_value():
    # b_kin = (20-0)/5 = 4 > b_comf -> -tanh(2/9)
    assert reward_total(20.0, 0.0, 5.0, 0.0, CFG).r_safe == pytest.approx(
        -math.tanh(2.0 / 9.0), abs=1e-12)


def test_safe_boundary_is_strict():
    # b_kin = 2 exactly: indicator is strict, so no penalty
    assert reward_total(20.0, 0.0, 10.0, 0.0, CFG).r_safe == 0.0


def test_safe_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        reward_total(5.0, 0.0, 0.0, 0.0, CFG)


def test_gap_peak_at_optimum():
    v = 7.0
    g_opt = v * CFG.T + CFG.g_min
    assert reward_total(v, v, g_opt, 0.0, CFG).r_gap == pytest.approx(1.0, abs=1e-12)


def test_gap_zero_at_limit():
    v = 7.0
    g_lim = v * CFG.T_lim + 2 * CFG.g_min
    assert reward_total(v, v, g_lim, 0.0, CFG).r_gap == pytest.approx(0.0, abs=1e-12)


def test_gap_gaussian_ratio_value():
    # v=10: g_opt=17, g_var=8.5; g=8.5 -> z=-1 -> pdf(-1)/pdf(0)
    expected = norm.pdf(-1.0) / norm.pdf(0.0)
    assert reward_total(10.0, 10.0, 8.5, 0.0, CFG).r_gap == pytest.approx(expected, abs=1e-12)


def test_gap_no_singularity_at_standstill():
    assert reward_total(0.0, 0.0, 2.0, 0.0, CFG).r_gap == pytest.approx(1.0, abs=1e-12)


def test_gap_clamped_beyond_limit():
    assert reward_total(10.0, 10.0, 1000.0, 0.0, CFG).r_gap == 0.0


def test_gap_continuity_at_knots():
    eps = 1e-10
    for v in (0.0, 3.0, 10.0, 20.0):
        g_opt = v * CFG.T + CFG.g_min
        g_lim = v * CFG.T_lim + 2 * CFG.g_min
        for knot in (g_opt, g_lim):
            below = reward_total(v, v, knot - eps, 0.0, CFG).r_gap
            above = reward_total(v, v, knot + eps, 0.0, CFG).r_gap
            assert abs(below - above) < 1e-8


def test_jerk_values():
    assert reward_total(10.0, 10.0, 20.0, 0.0, CFG).r_jerk == 0.0
    assert reward_total(10.0, 10.0, 20.0, CFG.j_comf, CFG).r_jerk == -1.0
    # worst single-step swing with default action bounds and dt=0.1
    assert reward_total(10.0, 10.0, 20.0, 140.0, CFG).r_jerk == pytest.approx(-4900.0)


def test_total_optimum_is_half():
    v = 12.0
    g_opt = v * CFG.T + CFG.g_min
    assert reward_total(v, v, g_opt, 0.0, CFG).total == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(v=st.floats(0.0, 60.0), v_l=st.floats(0.0, 60.0),
       g=st.floats(1e-6, 1e4), jerk=st.floats(-1e4, 1e4))
def test_total_never_above_w_gap(v, v_l, g, jerk):
    # the safety and jerk terms are never positive and the gap term is at
    # most 1, so no state scores above w_gap = 0.5
    assert reward_total(v, v_l, g, jerk, CFG).total <= CFG.w_gap == 0.5


def test_total_composition():
    # independent recomputation of the weighted sum
    br = reward_total(20.0, 0.0, 5.0, 0.0, CFG)
    r_safe = -math.tanh(((20.0 - 0.0) / 5.0 - CFG.b_comf) / (-CFG.a_min))
    z = (5.0 - 32.0) / 16.0
    r_gap = norm.pdf(z) / norm.pdf(0.0)
    assert br.total == pytest.approx(CFG.w_safe * r_safe + CFG.w_gap * r_gap, abs=1e-12)
    assert br.total == pytest.approx(-0.098239846550997, abs=1e-9)


def test_total_zero_region():
    # beyond g_lim, not closing, zero jerk -> exactly 0
    assert reward_total(5.0, 5.0, 200.0, 0.0, CFG).total == 0.0


def test_breakdown_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.uniform(0, 20)
        v_l = rng.uniform(0, 20)
        g = rng.uniform(0.1, 200)
        jerk = rng.uniform(-140, 140)
        br = reward_total(v, v_l, g, jerk, CFG)
        assert br.total == pytest.approx(
            CFG.w_safe * br.r_safe + CFG.w_gap * br.r_gap + CFG.w_jerk * br.r_jerk,
            abs=1e-15)
        assert -1.0 < br.r_safe <= 0.0
        assert br.r_jerk <= 0.0


def test_safe_monotone_in_b_kin():
    # for b_kin > b_comf the penalty is non-increasing: fix v_l=0, shrink g
    gaps = np.linspace(9.9, 0.1, 100)
    vals = [reward_total(20.0, 0.0, g, 0.0, CFG).r_safe for g in gaps]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def reference_reward_total(v, v_l, g, jerk, cfg):
    """reward_total as it was when it called its per-term functions and
    then computed b_kin, g_opt and g_lim again: the bit-for-bit reference
    for the one pass.  Its checks run in the old order, each raising
    reward_total's message for its input."""
    if g <= 0:
        raise ValueError(f"reward_total requires g > 0, got g={g}; "
                         "handle collision upstream")
    b_kin = (v - v_l) / g if v > v_l else 0.0
    r_s = (-math.tanh((b_kin - cfg.b_comf) / (-cfg.a_min))
           if b_kin > cfg.b_comf else 0.0)
    if v < 0 or g < 0:
        raise ValueError(f"reward_total requires v >= 0, got v={v}")
    g_opt = v * cfg.T + cfg.g_min
    g_var = 0.5 * g_opt
    g_lim = v * cfg.T_lim + 2.0 * cfg.g_min
    z = (g - g_opt) / g_var
    gauss = math.exp(-0.5 * z * z)
    if g < g_opt:
        r_g = gauss
    elif g > g_lim:
        r_g = 0.0
    else:
        r_g = gauss * (1.0 - (g - g_opt) / (g_lim - g_opt))
    if not math.isfinite(jerk):
        raise ValueError(f"reward_total requires a finite jerk, got jerk={jerk}")
    x = jerk / cfg.j_comf
    r_j = -x * x
    total = cfg.w_safe * r_s + cfg.w_gap * r_g + cfg.w_jerk * r_j
    b_kin = (v - v_l) / g if v > v_l else 0.0
    g_opt = v * cfg.T + cfg.g_min
    g_lim = v * cfg.T_lim + 2.0 * cfg.g_min
    return (r_s, r_g, r_j, total, b_kin, g_opt, g_lim)


def reward_grid():
    """(v, v_l, g, jerk) states: closing and opening, b_kin above and below
    b_comf, and g below g_opt, between g_opt and g_lim, and beyond g_lim."""
    for v in (0.0, 0.3, 7.0, 13.7, 30.0):
        g_opt = v * CFG.T + CFG.g_min
        g_lim = v * CFG.T_lim + 2.0 * CFG.g_min
        gaps = (0.05, 0.5 * g_opt, g_opt, 0.5 * (g_opt + g_lim), g_lim,
                3.0 * g_lim)
        for v_l in (0.0, 0.5 * v, v, v + 4.0):
            for g in gaps:
                for jerk in (-75.0, 0.0, 1.0 / 3.0):
                    yield v, v_l, g, jerk


def test_total_matches_reference_field_by_field():
    branches = set()
    for v, v_l, g, jerk in reward_grid():
        got = reward_total(v, v_l, g, jerk, CFG)
        want = reference_reward_total(v, v_l, g, jerk, CFG)
        fields = (got.r_safe, got.r_gap, got.r_jerk, got.total, got.b_kin,
                  got.g_opt, got.g_lim)
        for a, b in zip(fields, want):
            assert a == b and repr(a) == repr(b), (v, v_l, g, jerk)
        branches.add(("closing" if v > v_l else "opening",
                      "brake" if got.b_kin > CFG.b_comf else "comfort",
                      "short" if g < got.g_opt else
                      "beyond" if g > got.g_lim else "between"))
    assert {b[0] for b in branches} == {"closing", "opening"}
    assert {b[1] for b in branches} == {"brake", "comfort"}
    assert {b[2] for b in branches} == {"short", "between", "beyond"}


@pytest.mark.parametrize("v, v_l, g, jerk", [
    (5.0, 0.0, 0.0, 0.0), (5.0, 0.0, -1.0, 0.0), (-1.0, 0.0, 5.0, 0.0),
    (-1.0, 0.0, -1.0, 0.0), (5.0, 0.0, 5.0, math.inf),
    (-1.0, 0.0, 5.0, math.nan)])
def test_total_rejects_as_reference(v, v_l, g, jerk):
    # the same check fails first, with the same message
    with pytest.raises(ValueError) as want:
        reference_reward_total(v, v_l, g, jerk, CFG)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        reward_total(v, v_l, g, jerk, CFG)
