"""Self-tests of the benchmark, kept apart from the package's test suite.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import followrl  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = layers.layer_metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == names
    assert len(names) <= 128


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_round_reaches_every_expected_layer(workload, tmp_path):
    """Coverage: a renamed or re-imported function must not silently drop
    a layer.  The traced round must also write the bytes of a round run
    under the speed probe."""
    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(3)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    with SpeedProbe() as probe:
        plain = run(inputs, tmp_path / "plain")
    assert probe.samples
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = run(inputs, tmp_path / "traced")
    finally:
        tracer.remove()
    stats = tracer.round_stats()
    silent = [name for name in workloads.EXPECTED_LAYERS[workload]
              if stats[f"{name}.calls"] == 0]
    assert silent == []
    assert all(plain.checks.values()) and all(traced.checks.values())
    assert traced.digest == plain.digest


def test_remove_restores_every_patched_name():
    modules = [m for n, m in sys.modules.items() if n.startswith("followrl")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    classes = [followrl.nets.MlpNet, followrl.ddpg.DdpgAgent,
               followrl.simcore.FollowEnv]
    methods = {(c, k): v for c in classes for k, v in vars(c).items()}
    tracer = layers.Tracer()
    tracer.install()
    assert followrl.ddpg.opt_step is followrl.nets.opt_step
    assert hasattr(followrl.ddpg.opt_step, "__wrapped__")
    tracer.remove()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert {(c, k): v for c in classes for k, v in vars(c).items()} == methods


def test_fails_without_followrl_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
