"""Surrogate longitudinal powertrain, reverse-data collection and the inverse
control network mapping (v_next, v, a) -> (throttle, brake).

The powertrain stands in for a full vehicle-physics engine: a monotone
drive force fading with speed, constant brake authority, rolling
resistance and quadratic drag.  Its closed form gives a ground-truth
invertibility oracle for the control net.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .config import PowertrainParams
from .nets import AdamState, MlpNet, opt_step

REVERSE_HEADER = ["v_next_mps", "v_mps", "a_mps2", "throttle", "brake"]


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


@dataclass
class ControlSample:
    v_next: float
    v: float
    a: float
    throttle: float
    brake: float


def collect_reverse_data(model: PowertrainParams, duration, seed, dt=0.1,
                         dwell_range=(0.5, 3.0)):
    """Drive the surrogate with a seeded piecewise-constant random pedal
    policy (never pressing both pedals; brake released at standstill,
    where it carries no information) and record one sample per dt."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration / dt))
    samples = []
    v = 0.0
    throttle = brake = 0.0
    dwell_left = 0
    for _ in range(n):
        if dwell_left <= 0:
            dwell_left = int(round(rng.uniform(*dwell_range) / dt))
            mode = rng.uniform()
            if mode < 0.5:
                throttle, brake = float(rng.uniform(0.0, 1.0)), 0.0
            elif mode < 0.85:
                throttle, brake = 0.0, float(rng.uniform(0.0, 1.0))
            else:
                throttle = brake = 0.0
        t_eff, b_eff = (throttle, brake) if v > 0 else (throttle, 0.0)
        accel, v_next = powertrain_step(model, t_eff, b_eff, v, dt)
        samples.append(ControlSample(v_next, v, accel, t_eff, b_eff))
        v = v_next
        dwell_left -= 1
    return samples


def write_reverse_csv(path, samples):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REVERSE_HEADER)
        for s in samples:
            w.writerow([repr(float(s.v_next)), repr(float(s.v)), repr(float(s.a)),
                        repr(float(s.throttle)), repr(float(s.brake))])


def read_reverse_csv(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r) != REVERSE_HEADER:
            raise ValueError(f"unexpected reverse-data header in {path}")
        return [ControlSample(*(float(x) for x in row)) for row in r]


@dataclass
class ControlNet:
    """Inverse map (v_next, v, a) -> (throttle, brake) with input
    standardization baked in; outputs bounded in [0, 1] by a tanh head."""
    net: MlpNet
    mean: np.ndarray
    std: np.ndarray

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        z = (x.reshape(-1, 3) - self.mean) / self.std
        pedals = (self.net.forward(z) + 1.0) / 2.0
        pedals = np.clip(pedals, 0.0, 1.0)
        return pedals[0] if squeeze else pedals


def train_control_net(samples, epochs=40, seed=0, hidden=(16, 16),
                      batch_size=32, lr=0.001):
    """Supervised MSE regression of pedals from (v_next, v, a)."""
    if len(samples) < 1000:
        raise ValueError("need at least 1000 samples")
    x = np.array([[s.v_next, s.v, s.a] for s in samples])
    y = np.array([[s.throttle, s.brake] for s in samples])
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-9] = 1.0
    z = (x - mean) / std

    ss = np.random.SeedSequence(seed)
    net_seed, shuffle_seed = ss.spawn(2)
    net = MlpNet([3] + list(hidden) + [2], "tanh", seed=net_seed)
    opt = AdamState(net, lr=lr)
    rng = np.random.default_rng(shuffle_seed)
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            u, cache = net.forward(z[idx], cache=True)
            pred = (u + 1.0) / 2.0
            diff = pred - y[idx]
            grads = net.backward(cache, diff / len(idx))   # 2*(1/2) factor
            opt_step(net, grads, opt)
    return ControlNet(net, mean, std)


def accel_to_pedals(cn: ControlNet, v, a_cmd, dt=0.1):
    """Pedal command realizing a_cmd at speed v: feeds the one-step-ahead
    speed target (v + a_cmd*dt, v, a_cmd) through the inverse net."""
    throttle, brake = cn.predict(np.array([max(0.0, v + a_cmd * dt), v, a_cmd]))
    return float(throttle), float(brake)


def track_accel_commands(cn: ControlNet, model: PowertrainParams, commands,
                         v0=0.0, dt=0.1):
    """Closed loop policy -> pedals -> powertrain; returns the achieved
    accelerations and speeds for each commanded accel."""
    v = v0
    achieved, speeds = [], []
    for a_cmd in commands:
        throttle, brake = accel_to_pedals(cn, v, a_cmd, dt)
        accel, v = powertrain_step(model, throttle, brake, v, dt)
        achieved.append(accel)
        speeds.append(v)
    return np.array(achieved), np.array(speeds)
