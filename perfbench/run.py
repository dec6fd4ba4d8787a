"""followrl benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Runs the workload's fixed round of work (see workloads.py) back to back
for ``--seconds`` from a single thread with BLAS pinned to one thread,
checks every round's outputs, and prints one line per metric followed by
a final JSON line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing and with times normalized to a reference CPU speed by the speed
probe (speed.py); with ``--trace 1`` untraced and traced rounds alternate
and the metrics are the per-layer ones from the traced rounds.  The run's record
(environment, all metrics, digest) and, when traced, the spans of the last
traced round are written under ``.perfbench_out/`` in the checkout root.
Exits non-zero without a result when followrl's sources are missing or no
round completes.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:      # before numpy loads BLAS
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def seed_arg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train", "rollout", "offline"])
    p.add_argument("--seed", type=seed_arg, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--holdout-seed", type=seed_arg, default=None,
                   help="also set up and check one round on this seed, one "
                        "kept out of the seeds used while writing a change")
    return p.parse_args(argv)


def environment(seed, holdout_seed):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"    # a checkout without git metadata
    source = hashlib.sha256()
    for path in sorted((SRC / "followrl").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_sha": sha, "source_sha256": source.hexdigest(),
            "seed": seed, "holdout_seed": holdout_seed}


class Checks:
    """Tally of checked operations; every failure is also printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED check {name}", file=sys.stderr)


def play_round(run, inputs, scratch, checks, digest=None, probe=None):
    """One round in a fresh output directory; returns (wall_s, Round).
    With a speed probe, ``Round.slowdown`` is set for the round."""
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    mark = probe.mark() if probe else 0
    t = time.perf_counter()
    rnd = run(inputs, scratch)
    wall = time.perf_counter() - t
    if probe:
        rnd.slowdown = probe.slowdown(mark)
    for name, ok in rnd.checks.items():
        checks.add(name, ok)
    if digest is not None:
        checks.add("digest_repeats", rnd.digest == digest)
    return wall, rnd


def traced_round(tracer, workload, run, inputs, scratch, checks, digest):
    """One round with every layer wrapped; returns (wall_s, layer stats)."""
    tracer.clear()
    tracer.install()
    try:
        wall, rnd = play_round(run, inputs, scratch, checks, digest)
    finally:
        tracer.remove()
    from workloads import EXPECTED_LAYERS
    stats = tracer.round_stats()
    for name in EXPECTED_LAYERS[workload]:
        checks.add(f"layer_called:{name}", stats[f"{name}.calls"] > 0)
    if workload == "train":
        checks.add("train_step_count",
                   stats["ddpg.train_step.calls"] == rnd.counts["grad_steps"])
    stats["ddpg.update_ratio"] = (stats["ddpg.train_step.calls"]
                                  / max(1, stats["simcore.FollowEnv.step.calls"]))
    stats["datasets.clipped_ratio"] = rnd.counts.get("clipped_ratio", 0.0)
    return wall, stats


def workload_metrics(rounds, walls, setup_s, checks):
    """The metrics named for this workload (raw wall-clock values) and the
    gated end-to-end metrics (times at reference CPU speed), each a dict
    name -> (value, unit), plus the latency sample counts."""
    wall_s = statistics.median(walls)
    counts, rate = rounds[0].counts, rounds[0].rate
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
             f"{rate}_per_s": (statistics.median(r.counts[rate] / r.part_s
                                                 for r in rounds), "1/s")}
    if "grad_steps" in counts:
        named["grad_steps_per_s"] = (counts["grad_steps"] / wall_s, "1/s")
    pooled = {k: [x for r in rounds for x in r.samples[k]]
              for k in rounds[0].samples}
    for key, values in pooled.items():    # "<what>.<unit>[.<agent>]"
        base, unit, *agent = key.split(".")
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in (50, 90):
            name = ".".join([f"{base}_{unit}_p{q}"] + agent)
            named[name] = (cuts[q - 1], unit)
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["fail_ratio"] = (checks.failed / max(1, checks.attempted), "share")
    named["cpu_slowdown"] = (statistics.median(r.slowdown for r in rounds), "ratio")
    named[f"norm_{rate}_per_s"] = (statistics.median(
        r.counts[rate] * r.slowdown / r.part_s for r in rounds), "1/s")
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "norm_wall_s": (statistics.median(w / r.slowdown
                                          for r, w in zip(rounds, walls)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB")}
    return named, end_to_end, {k: len(v) for k, v in pooled.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "followrl" / "__init__.py").is_file():
        print(f"followrl sources not found under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import followrl
    import layers
    import workloads
    import_s = time.perf_counter() - t0
    if Path(followrl.__file__).resolve().parent != SRC / "followrl":
        print(f"imported followrl from {followrl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from speed import SpeedProbe

    # the probe's own signal handler would land inside traced spans, so
    # traced runs (which report no end-to-end metric) go without it
    probe = None if args.trace else SpeedProbe()
    setup, run = workloads.WORKLOADS[args.workload]
    setup_times = []
    with probe or contextlib.nullcontext():
        for _ in range(SETUP_REPEATS):
            mark = probe.mark() if probe else 0
            t = time.perf_counter()
            inputs = setup(args.seed)
            setup_times.append((time.perf_counter() - t)
                               / (probe.slowdown(mark) if probe else 1.0))
    # the import ran before the probe could; scale it by the set-ups' speed
    setup_s = (import_s / (probe.slowdown(0) if probe else 1.0)
               + statistics.median(setup_times))

    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-", dir=OUT))
    scratch = run_dir / "round"
    checks = Checks()
    tracer = layers.Tracer() if args.trace else None
    rounds, walls, traced_walls, layer_rounds = [], [], [], []
    digest, holdout = None, None
    deadline = time.perf_counter() + args.seconds
    try:
        with probe or contextlib.nullcontext():
            while True:
                wall, rnd = play_round(run, inputs, scratch, checks, digest,
                                       probe)
                digest = digest or rnd.digest
                walls.append(wall)
                rounds.append(rnd)
                if tracer:
                    wall, stats = traced_round(tracer, args.workload, run,
                                               inputs, scratch, checks, digest)
                    traced_walls.append(wall)
                    layer_rounds.append(stats)
                if time.perf_counter() >= deadline:
                    break
        if args.holdout_seed is not None:
            wall, rnd = play_round(run, setup(args.holdout_seed), scratch, checks)
            holdout = {"seed": args.holdout_seed, "wall_s": wall,
                       "digest": rnd.digest}
    except Exception:      # report the failure instead of a result
        traceback.print_exc()
        checks.add("round_completed", False)
        if not rounds or (tracer and not layer_rounds):
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if tracer and len(tracer.end):
            tracer.write(run_dir / "spans.npz")

    named, end_to_end, samples = workload_metrics(rounds, walls, setup_s, checks)
    layer = {}
    if tracer:
        stats = {k: statistics.median(r[k] for r in layer_rounds)
                 for k in layer_rounds[0]}
        stats["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        layer = {k: (stats[k], unit)
                 for k, unit in layers.layer_metric_names().items()}

    env = environment(args.seed, args.holdout_seed)
    print(f"# followrl benchmark workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={len(rounds)} samples={samples}")
    print("env " + json.dumps(env, sort_keys=True))
    shown = {**named, **end_to_end, **layer}
    for name, (value, unit) in shown.items():
        print(f"{args.workload:8s} {name:40s} {value!r} {unit}")
    print(f"digest {args.workload} seed={args.seed} {digest}")
    if holdout:
        print(f"holdout {json.dumps(holdout)}")

    as_json = lambda metrics: {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": as_json(layer if tracer else end_to_end)}
    record = {"workload": args.workload, "env": env, "digest": digest,
              "holdout": holdout, "walls": walls, "traced_walls": traced_walls,
              "metrics": as_json(shown), "result": result}
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
