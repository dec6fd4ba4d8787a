"""Surrogate longitudinal powertrain, reverse-data collection and the inverse
control network mapping (v_next, v, a) -> (throttle, brake).

The powertrain stands in for a full vehicle-physics engine: a monotone
drive force fading with speed, constant brake authority, rolling
resistance and quadratic drag.  Its closed form gives a ground-truth
invertibility oracle for the control net.

Reverse data is one (n, 5) float array of (v_next, v, a, throttle, brake)
rows, the columns of REVERSE_HEADER, read from and written to CSV through
simcore's numeric codec.  The pipeline samples, commands and tracks pedals
at a fixed PEDAL_DT step, independent of the simulator's SimConfig.dt.
"""

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import PowertrainParams
from .nets import MlpNet, fit_mse
from .simcore import read_csv, write_csv

REVERSE_HEADER = ["v_next_mps", "v_mps", "a_mps2", "throttle", "brake"]
# save_control_net writes a net's input mean and std to its path + this
NORM_SUFFIX = ".norm.npz"

PEDAL_DT = 0.1              # s, one reverse-data sample or pedal command
DWELL_RANGE = (0.5, 3.0)    # s, how long collection holds each pedal setting


def powertrain_step(model: PowertrainParams, throttle, brake, v, dt):
    """Surrogate plant: accel = c_th*throttle*(1 - v/v_max) - c_br*brake
    - c_roll*1{v>0} - c_drag*v^2; speed floored at zero."""
    if not (0.0 <= throttle <= 1.0 and 0.0 <= brake <= 1.0):
        raise ValueError("pedals must lie in [0, 1]")
    if v < 0:
        raise ValueError("speed must be non-negative")
    accel = (model.c_throttle * throttle * (1.0 - v / model.v_max)
             - model.c_brake * brake
             - (model.c_roll if v > 0 else 0.0)
             - model.c_drag * v * v)
    v_next = max(0.0, v + accel * dt)
    return accel, v_next


def collect_reverse_data(model: PowertrainParams, duration, seed):
    """Drive the surrogate with a seeded piecewise-constant random pedal
    policy (never pressing both pedals; brake released at standstill,
    where it carries no information) and record one sample per PEDAL_DT:
    an (n, 5) array in REVERSE_HEADER order."""
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    n = int(round(duration / PEDAL_DT))
    if n < 1:
        raise ValueError(f"duration {duration} s rounds to {n} samples of "
                         f"PEDAL_DT = {PEDAL_DT} s; need at least 1")
    rng = np.random.default_rng(seed)
    samples = []
    v = 0.0
    throttle = brake = 0.0
    dwell_left = 0
    for _ in range(n):
        if dwell_left <= 0:
            dwell_left = int(round(rng.uniform(*DWELL_RANGE) / PEDAL_DT))
            mode = rng.uniform()
            if mode < 0.5:
                throttle, brake = float(rng.uniform(0.0, 1.0)), 0.0
            elif mode < 0.85:
                throttle, brake = 0.0, float(rng.uniform(0.0, 1.0))
            else:
                throttle = brake = 0.0
        t_eff, b_eff = (throttle, brake) if v > 0 else (throttle, 0.0)
        accel, v_next = powertrain_step(model, t_eff, b_eff, v, PEDAL_DT)
        samples.append((v_next, v, accel, t_eff, b_eff))
        v = v_next
        dwell_left -= 1
    return np.array(samples).reshape(n, len(REVERSE_HEADER))


def write_reverse_csv(path, samples):
    write_csv(path, REVERSE_HEADER, samples)


def read_reverse_csv(path):
    """Besides what read_csv rejects, rejects rows the plant cannot
    produce, a pedal outside [0, 1] or a negative speed, naming the line."""
    samples = read_csv(path, REVERSE_HEADER)
    for lineno, (v_next, v, _, throttle, brake) in enumerate(samples.tolist(),
                                                             start=2):
        if not (0.0 <= throttle <= 1.0 and 0.0 <= brake <= 1.0):
            raise ValueError(f"{path}: line {lineno}: pedal outside [0, 1]")
        if v < 0 or v_next < 0:
            raise ValueError(f"{path}: line {lineno}: negative speed")
    return samples


@dataclass
class ControlNet:
    """Inverse map (v_next, v, a) -> (throttle, brake) with input
    standardization baked in; outputs bounded in [0, 1] by a tanh head."""
    net: MlpNet
    mean: np.ndarray
    std: np.ndarray

    def predict(self, x):
        """Pedals (n, 2) for an (n, 3) batch of (v_next, v, a) rows."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != 3:
            raise ValueError(f"predict takes an (n, 3) batch, got shape "
                             f"{x.shape}")
        pedals = (self.net.forward((x - self.mean) / self.std) + 1.0) / 2.0
        return np.clip(pedals, 0.0, 1.0)


def train_control_net(samples, epochs=40, seed=0):
    """Supervised MSE regression of pedals from (v_next, v, a), given
    reverse data as an (n, 5) array in REVERSE_HEADER order."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 1000:
        raise ValueError("need at least 1000 samples")
    x, y = samples[:, :3], samples[:, 3:]
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-9] = 1.0
    net = fit_mse([3, 16, 16, 2], (x - mean) / std, y, 0.0, 1.0, epochs, seed)
    return ControlNet(net, mean, std)


def save_control_net(cn: ControlNet, path):
    """The net at path, its input mean and std at path + NORM_SUFFIX."""
    cn.net.save(path)
    np.savez(path + NORM_SUFFIX, mean=cn.mean, std=cn.std)


def load_control_net(path):
    """What save_control_net wrote at path.  A norm file that is not a
    readable npz, lacks mean or std, or holds anything but a finite (3,)
    mean and std with std > 0 raises ValueError naming the file: a zero or
    NaN std once made every pedal NaN, and train_control_net never writes
    a std below 1e-9."""
    net = MlpNet.load(path)
    norm_path = path + NORM_SUFFIX
    try:
        with open(norm_path, "rb") as fh:
            norm = np.load(fh)
            mean, std = (np.asarray(norm[key], dtype=float)
                         for key in ("mean", "std"))
    except (EOFError, IndexError, KeyError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ValueError(f"{norm_path}: not a norm file with a mean and a "
                         f"std ({exc})") from None
    if mean.shape != (3,) or std.shape != (3,):
        raise ValueError(f"{norm_path}: mean and std must be shaped (3,), "
                         f"got {mean.shape} and {std.shape}")
    if not np.isfinite([mean, std]).all():
        raise ValueError(f"{norm_path}: mean and std must be finite")
    if not (std > 0).all():
        raise ValueError(f"{norm_path}: std must be positive, got {std}")
    return ControlNet(net, mean, std)


def accel_to_pedals(cn: ControlNet, v, a_cmd):
    """Pedal command realizing a_cmd at speed v: feeds the one-step-ahead
    speed target (v + a_cmd*PEDAL_DT, v, a_cmd) through the inverse net.
    A speed the plant cannot reach or a non-finite command raises."""
    if not (0.0 <= v < math.inf and math.isfinite(a_cmd)):
        raise ValueError(f"need a finite speed >= 0 and a finite command, "
                         f"got v={v}, a_cmd={a_cmd}")
    throttle, brake = cn.predict(np.array([[max(0.0, v + a_cmd * PEDAL_DT), v,
                                            a_cmd]]))[0]
    return float(throttle), float(brake)


def track_accel_commands(cn: ControlNet, model: PowertrainParams, commands,
                         v0=0.0):
    """Closed loop policy -> pedals -> powertrain, one command per
    PEDAL_DT; returns the achieved accelerations and speeds for each
    commanded accel."""
    v = v0
    achieved, speeds = [], []
    for a_cmd in np.asarray(commands, dtype=float).tolist():
        throttle, brake = accel_to_pedals(cn, v, a_cmd)
        accel, v = powertrain_step(model, throttle, brake, v, PEDAL_DT)
        achieved.append(accel)
        speeds.append(v)
    return np.array(achieved), np.array(speeds)
