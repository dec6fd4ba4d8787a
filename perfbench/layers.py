"""Span tracer that times the followrl layers from outside the package.

The tracer wraps public followrl functions from outside the package: each
wrapper is patched onto the defining class or module and onto every
followrl module that imported the function by name, so a call made through
any of those names opens a span.  A span is (layer id, parent span, start,
end); spans stay in compact in-memory arrays and are written out at exit.

The wrappers draw no random numbers and pass arguments and results through
untouched, so a traced round produces the same files as an untraced one.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute path).  ``nets.forward`` is one wrapper that
# records ``nets.forward_single`` for one sample and ``nets.forward_batch``
# otherwise.
LAYERS = [
    ("nets.forward", "followrl.nets", "MlpNet.forward"),
    ("nets.backward", "followrl.nets", "MlpNet.backward"),
    ("nets.opt_step", "followrl.nets", "opt_step"),
    ("nets.soft_update", "followrl.nets", "soft_update"),
    ("nets.save", "followrl.nets", "MlpNet.save"),
    ("nets.load", "followrl.nets", "MlpNet.load"),
    ("ddpg.select_action", "followrl.ddpg", "DdpgAgent.select_action"),
    ("ddpg.train_step", "followrl.ddpg", "DdpgAgent.train_step"),
    ("ddpg.ReplayBuffer.add", "followrl.ddpg", "ReplayBuffer.add"),
    ("ddpg.ReplayBuffer.sample", "followrl.ddpg", "ReplayBuffer.sample"),
    ("ddpg.sample_mixed", "followrl.ddpg", "sample_mixed"),
    ("simcore.FollowEnv.step", "followrl.simcore", "FollowEnv.step"),
    ("simcore.FollowEnv.reset", "followrl.simcore", "FollowEnv.reset"),
    ("simcore.gen_leader_profile", "followrl.simcore", "gen_leader_profile"),
    ("simcore.normalize_state", "followrl.simcore", "normalize_state"),
    ("reward.reward_total", "followrl.reward", "reward_total"),
    ("baselines.IdmController.act", "followrl.baselines", "IdmController.act"),
    ("baselines.BcPolicy.act", "followrl.baselines", "BcPolicy.act"),
    ("baselines.bc_train", "followrl.baselines", "bc_train"),
    ("baselines.calibrate_idm", "followrl.baselines", "calibrate_idm"),
    ("datasets.write_trajectory_csv", "followrl.datasets", "write_trajectory_csv"),
    ("datasets.parse_trajectory_csv", "followrl.datasets", "parse_trajectory_csv"),
    ("datasets.build_transitions", "followrl.datasets", "build_transitions"),
    ("datasets.save_transition_store", "followrl.datasets", "save_transition_store"),
    ("datasets.load_transition_store", "followrl.datasets", "load_transition_store"),
    ("datasets.to_buffer", "followrl.datasets", "RelabeledDataset.to_buffer"),
    ("control.collect_reverse_data", "followrl.control", "collect_reverse_data"),
    ("control.train_control_net", "followrl.control", "train_control_net"),
    ("control.track_accel_commands", "followrl.control", "track_accel_commands"),
    ("evaluate.run_scenario", "followrl.evaluate", "run_scenario"),
    ("evaluate.ttc_summary", "followrl.evaluate", "ttc_summary"),
    ("evaluate.compare_report", "followrl.evaluate", "compare_report"),
]

SPAN_NAMES = ["nets.forward_single", "nets.forward_batch"] + [
    name for name, _, _ in LAYERS if name != "nets.forward"]

# Functions called once per environment step or per minibatch; only these
# get latency percentiles.
PER_STEP = [
    "nets.forward_single", "nets.forward_batch", "nets.backward",
    "nets.opt_step", "nets.soft_update", "ddpg.select_action",
    "ddpg.train_step", "ddpg.ReplayBuffer.sample", "simcore.FollowEnv.step",
    "reward.reward_total", "baselines.IdmController.act",
    "baselines.BcPolicy.act",
]


# Ratios the traced run reports beside the span statistics.
RATIOS = ["ddpg.update_ratio", "datasets.clipped_ratio", "trace.overhead_ratio"]


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.busy_s"] = "s"
        out[f"{name}.self_s"] = "s"
        if name in PER_STEP:
            out[f"{name}.us_p50"] = "us"
            out[f"{name}.us_p99"] = "us"
    out.update((name, "ratio") for name in RATIOS)
    return out


class Tracer:
    """Patches the layer wrappers in on ``install`` and out on ``remove``."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._patches = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def clear(self):
        """Drop the recorded spans; the wrappers keep their array binding."""
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()

    def _wrap(self, fn, pick):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            layer.append(pick(args))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def _picker(self, name):
        if name != "nets.forward":
            layer_id = self.ids[name]
            return lambda args: layer_id
        single = self.ids["nets.forward_single"]
        batch = self.ids["nets.forward_batch"]
        # args = (net, x, ...); one sample is a 1-D vector or a 1-row batch
        return lambda args: single if (np.ndim(args[1]) == 1
                                       or np.shape(args[1])[0] == 1) else batch

    def install(self):
        """Wrap every layer; raises if a layer is missing or was renamed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "followrl" or n.startswith("followrl.")]
        for name, module_name, path in LAYERS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]   # KeyError: the layer was renamed
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, self._picker(name)))
            else:
                wrapped = self._wrap(raw, self._picker(name))
            self._patch(owner, attr, wrapped)
            if outer:
                continue
            # module function: also replace every by-name import of it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw and mod is not owner:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def spans(self):
        """The recorded spans as numpy arrays (layer, parent, start, end)."""
        return (np.frombuffer(self.layer, dtype=np.intc).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def round_stats(self):
        """calls, busy and self seconds per layer plus percentiles for the
        per-step layers, over the spans recorded since ``clear``.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap, so that difference
        is the time no child covered.
        """
        layer, parent, start, end = self.spans()
        dur = end - start
        n = len(SPAN_NAMES)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(layer, minlength=n)
        busy = np.bincount(layer, weights=dur, minlength=n)
        own = np.bincount(layer, weights=self_t, minlength=n)
        stats = {}
        for name, i in self.ids.items():
            stats[f"{name}.calls"] = int(calls[i])
            stats[f"{name}.busy_s"] = float(busy[i])
            stats[f"{name}.self_s"] = float(own[i])
            if name in PER_STEP:
                d = dur[layer == i] * 1e6
                p50, p99 = np.percentile(d, [50, 99]) if len(d) else (0.0, 0.0)
                stats[f"{name}.us_p50"] = float(p50)
                stats[f"{name}.us_p99"] = float(p99)
        return stats

    def write(self, path):
        layer, parent, start, end = self.spans()
        np.savez(path, names=np.array(SPAN_NAMES), layer=layer, parent=parent,
                 start=start, end=end)
