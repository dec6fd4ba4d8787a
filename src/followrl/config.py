"""Configuration dataclasses and the plain-text (INI-style) config loader.

Every tunable constant of the simulator, reward, agent, leader generator,
IDM baseline and surrogate powertrain lives here so that a single
``key = value`` file can override any of them.
"""

import configparser
import dataclasses
import math
from dataclasses import dataclass, field


@dataclass
class SimConfig:
    dt: float = 0.1                 # s
    v_des: float = 20.0             # m/s
    a_min: float = -9.0             # m/s^2
    a_max: float = 5.0              # m/s^2
    g_max: float = 200.0            # m
    # every generated initial gap is uniform in [max(init_gap_low, floor),
    # init_gap_high]: the floor is 0 for training and greedy_eval, 5 m for
    # make_synthetic and 10 m for synthetic_suite
    init_gap_low: float = 0.0       # m
    init_gap_high: float = 100.0    # m
    # steps in each generated training episode and recorded synthetic one;
    # an episode itself runs to the end of its leader profile
    max_steps: int = 1000

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.a_min < 0 < self.a_max):
            raise ValueError("need a_min < 0 < a_max")
        if not (0 <= self.init_gap_low <= self.init_gap_high <= self.g_max):
            raise ValueError("init gap range must satisfy 0 <= low <= high <= g_max")
        # v_des and g_max divide in normalize_state
        if not (self.v_des > 0 and self.g_max > 0):
            raise ValueError("v_des and g_max must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class RewardConfig:
    w_safe: float = 1.0
    w_gap: float = 0.5
    w_jerk: float = 0.004
    b_comf: float = 2.0     # m/s^2
    T: float = 1.5          # s, desired time gap
    g_min: float = 2.0      # m
    T_lim: float = 15.0     # s, upper time gap limit for zero reward
    j_comf: float = 2.0     # m/s^3
    a_min: float = -9.0     # m/s^2, normalizes the safety tanh

    def __post_init__(self):
        if min(self.w_safe, self.w_gap, self.w_jerk) < 0:
            raise ValueError("reward weights must be non-negative")
        if self.b_comf <= 0 or self.j_comf <= 0:
            raise ValueError("b_comf and j_comf must be positive")
        if self.T_lim <= self.T:
            raise ValueError("T_lim must exceed T")
        # g_min > 0 and T >= 0 keep reward_total's g_opt positive; a_min < 0
        # keeps the safety term a penalty
        if not (self.g_min > 0 and self.T >= 0):
            raise ValueError("g_min must be positive and T non-negative")
        if not self.a_min < 0:
            raise ValueError("a_min must be negative")


@dataclass
class OuParams:
    theta: float = 0.15     # 1/s
    # exploration noise runs in normalized action units (x 7 m/s^2 at the
    # default bounds): 0.05 gives a stationary std of ~0.64 m/s^2, while 0.2
    # drifts ~2.6 m/s^2 over the ~7 s correlation time and cuts even IDM's
    # mean per-step reward from 0.43 to 0.2, below criterion 4's 0.3 bar
    sigma: float = 0.05     # unit/sqrt(s)
    mu: float = 0.0

    def __post_init__(self):
        if self.theta < 0 or self.sigma < 0:
            raise ValueError("theta and sigma must be non-negative")


# Leader-speed OU generator defaults; chosen to produce 0-14 m/s wandering
# profiles within the configured speed/accel envelope.
LEADER_OU = OuParams(theta=0.05, sigma=1.5, mu=8.0)


@dataclass
class DdpgConfig:
    lr: float = 0.001               # critic; the actor's is ddpg.ACTOR_LR
    gamma: float = 0.99
    buffer_size: int = 100_000
    batch_size: int = 32
    tau: float = 0.005
    noise: OuParams = field(default_factory=OuParams)
    hidden: tuple = (32, 32)

    def __post_init__(self):
        if not (0 <= self.gamma <= 1):
            raise ValueError("gamma must lie in [0, 1]")
        if not (0 < self.tau <= 1):
            raise ValueError("tau must lie in (0, 1]")
        # a negative lr ascends the critic loss; a batch larger than the
        # buffer never fills, so training would make no update at all
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if not (1 <= self.batch_size <= self.buffer_size):
            raise ValueError("batch_size must lie in [1, buffer_size]")
        if any(width < 1 for width in self.hidden):
            raise ValueError("hidden layer sizes must be >= 1")


@dataclass
class IdmParams:
    v_des: float = 20.0     # m/s
    T: float = 1.0          # s
    a: float = 2.0          # m/s^2
    b_comf: float = 2.0     # m/s^2
    g_min: float = 2.5      # m
    delta: float = 4.0

    def __post_init__(self):
        if min(self.v_des, self.T, self.a, self.b_comf, self.g_min, self.delta) <= 0:
            raise ValueError("all IDM parameters must be positive")


@dataclass
class PowertrainParams:
    c_throttle: float = 4.0     # m/s^2 peak drive accel
    c_brake: float = 9.0        # m/s^2 peak brake decel
    c_drag: float = 0.0008      # 1/m
    c_roll: float = 0.1         # m/s^2
    v_max: float = 40.0         # m/s

    def __post_init__(self):
        if min(self.c_throttle, self.c_brake, self.c_drag, self.c_roll, self.v_max) < 0:
            raise ValueError("powertrain coefficients must be non-negative")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")


_SECTIONS = {
    "sim": SimConfig,
    "reward": RewardConfig,
    "ddpg": DdpgConfig,
    "idm": IdmParams,
    "powertrain": PowertrainParams,
    "leader_ou": OuParams,
    "noise_ou": OuParams,
}


def _coerce(current, raw, where):
    """raw read as the type of current, the field's default: an int, a
    finite float, or a tuple of ints split at commas or spaces.  A value
    that does not parse, or a float that is nan or infinite, raises a
    ValueError naming ``where`` and raw."""
    try:
        if isinstance(current, tuple):
            return tuple(int(x) for x in raw.replace(",", " ").split())
        value = type(current)(raw)
    except ValueError:
        kind = ("tuple of ints" if isinstance(current, tuple)
                else type(current).__name__)
        raise ValueError(f"{where}: {raw!r} is not a valid {kind}") from None
    # comparisons with nan are false, so most field checks would pass it
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: {raw!r} is not a finite float")
    return value


def load_config(path):
    """Read a key=value config file into a dict of config dataclasses.

    Sections map to the dataclasses above, and each value is read as the
    type of its field's default.  Keys match field names exactly, case
    included.  Unknown sections or keys, and values that do not parse,
    raise a ValueError naming them, so typos never pass silently.  Missing
    sections fall back to defaults, and a path of None gives the defaults
    of every section.
    """
    parser = configparser.ConfigParser()
    # keys are field names, matched case-sensitively: configparser's default
    # lowercasing would leave T, T_lim and IDM's T unreachable
    parser.optionxform = str
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")
    out = {}
    for name, cls in _SECTIONS.items():
        defaults = cls(**{}) if name != "leader_ou" else dataclasses.replace(LEADER_OU)
        if parser.has_section(name):
            kwargs = {}
            valid = {
                f.name: getattr(defaults, f.name)
                for f in dataclasses.fields(cls)
                if not dataclasses.is_dataclass(getattr(defaults, f.name))
            }
            for key, raw in parser.items(name):
                if key not in valid:
                    raise ValueError(f"unknown key '{key}' in section [{name}]")
                kwargs[key] = _coerce(valid[key], raw, f"[{name}] {key}")
            defaults = dataclasses.replace(defaults, **kwargs)
        out[name] = defaults
    out["ddpg"] = dataclasses.replace(out["ddpg"], noise=out["noise_ou"])
    return out
