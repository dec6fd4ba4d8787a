"""End-to-end command-line tests: every subcommand, plus bit-exact
determinism of repeated seeded invocations."""

import csv
import filecmp
import hashlib
import os

import numpy as np
import pytest

from followrl import DdpgAgent, MlpNet
from followrl.cli import main
from followrl.config import RewardConfig, SimConfig, load_config
from followrl.datasets import ingest, load_transition_store
from followrl.simcore import LEADER_HEADER, read_csv


def run(*argv):
    main(list(argv))


class TestGenLeader:
    def test_writes_profile(self, tmp_path, capsys):
        out = tmp_path / "leader.csv"
        run("gen-leader", "--seed", "42", "--duration-s", "30", "--out", str(out))
        profile = read_csv(out, LEADER_HEADER)[:, 1]
        assert len(profile) == 300
        assert np.all(profile >= 0.0) and np.all(profile <= 20.0)
        assert "300 samples" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen-leader", "--seed", "7", "--duration-s", "20", "--out", str(a))
        run("gen-leader", "--seed", "7", "--duration-s", "20", "--out", str(b))
        assert filecmp.cmp(a, b, shallow=False)

    def test_seed_matters(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen-leader", "--seed", "1", "--duration-s", "20", "--out", str(a))
        run("gen-leader", "--seed", "2", "--duration-s", "20", "--out", str(b))
        assert not filecmp.cmp(a, b, shallow=False)


class TestRewardProbe:
    def test_prints_breakdown(self, capsys):
        run("reward-probe", "--v", "10", "--vl", "10", "--g", "17")
        out = capsys.readouterr().out
        assert "total" in out and "r_gap" in out
        # optimal gap at v = 10 is 17 m: the gap term prints as 1.0
        line = [l for l in out.splitlines() if l.startswith("r_gap")][0]
        assert float(line.split()[1]) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def synth_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run("make-synthetic", "--episodes", "3", "--seed", "5", "--out", str(data))
    store = root / "store.npz"
    run("ingest", "--in", str(data / "*.csv"), "--out", str(store))
    return store


class TestPipeline:
    def test_make_synthetic_files(self, tmp_path):
        run("make-synthetic", "--episodes", "2", "--seed", "1",
            "--out", str(tmp_path))
        files = sorted(os.listdir(tmp_path))
        assert files == ["synthetic-000.csv", "synthetic-001.csv"]

    def test_ingest_store(self, synth_store):
        ds = load_transition_store(synth_store)
        assert len(ds) > 0
        assert len(ds.provenance) == 3

    def test_ingest_deterministic(self, synth_store, tmp_path):
        data = tmp_path / "data"
        run("make-synthetic", "--episodes", "3", "--seed", "5",
            "--out", str(data))
        store2 = tmp_path / "store.npz"
        run("ingest", "--in", str(data / "*.csv"), "--out", str(store2))
        a, b = load_transition_store(synth_store), load_transition_store(store2)
        assert len(a) == len(b)
        assert all(np.array_equal(x.state, y.state) and x.action == y.action
                   and x.reward == y.reward
                   for x, y in zip(a.transitions, b.transitions))


class TestTrainEval:
    def test_bc_train_and_eval(self, synth_store, tmp_path, capsys):
        out = tmp_path / "bc"
        run("train", "--mode", "bc", "--dataset", str(synth_store),
            "--epochs", "2", "--seed", "0", "--out", str(out))
        assert (out / "bc.bin").exists()
        assert (out / "config.json").exists()
        rep = tmp_path / "rep"
        run("eval", "--agents", f"idm,bc:{out / 'bc.bin'}",
            "--scenario", "builtin:s53", "--out", str(rep))
        scen_dir = rep / "builtin-s53"
        assert (scen_dir / "ttc_summary.csv").exists()
        assert (scen_dir / "trace_idm.csv").exists()
        assert (scen_dir / "trace_bc.csv").exists()
        capsys.readouterr()
        run("report", "--in", str(rep))
        assert "ttc_summary" not in capsys.readouterr().out  # prints rows, not paths

    def test_off_policy_smoke_and_determinism(self, synth_store, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            run("train", "--mode", "off-policy", "--dataset", str(synth_store),
                "--budget", "500", "--seed", "3", "--out", str(out))
        for name in ("actor.bin", "critic.bin", "rewards.csv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
        with open(out1 / "rewards.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["episode", "steps", "mean_reward", "collisions"]
        assert len(rows) > 1

    def test_pure_smoke(self, tmp_path):
        out = tmp_path / "pure"
        run("train", "--mode", "pure", "--budget", "300", "--seed", "0",
            "--out", str(out))
        assert (out / "actor.bin").exists()
        assert (out / "actor_target.bin").exists()

    def test_two_stage_smoke(self, synth_store, tmp_path):
        pre = tmp_path / "pre"
        run("train", "--mode", "pure", "--budget", "300", "--seed", "0",
            "--out", str(pre))
        out = tmp_path / "ts"
        run("train", "--mode", "two-stage", "--dataset", str(synth_store),
            "--from", str(pre), "--ratio", "0.6", "--budget", "300",
            "--seed", "0", "--out", str(out))
        assert (out / "actor.bin").exists()

    def test_eval_determinism(self, tmp_path):
        reps = []
        for name in ("e1", "e2"):
            rep = tmp_path / name
            run("eval", "--agents", "idm", "--scenario", "builtin:s53",
                "--out", str(rep))
            reps.append(rep / "builtin-s53" / "trace_idm.csv")
        assert filecmp.cmp(*reps, shallow=False)

    @pytest.mark.parametrize("kind", ["bc", "ddpg"])
    def test_eval_rejects_clashing_names(self, tmp_path, kind):
        if kind == "bc":
            path = tmp_path / "p.bin"
            MlpNet([4, 8, 1], "tanh", seed=0).save(str(path))
            spec, name = f"bc:{path},idm,bc:{path}", "bc"
        else:
            dirs = [tmp_path / parent / "run" for parent in ("a", "b")]
            for d in dirs:
                DdpgAgent(seed=0).save(str(d))
            spec, name = ",".join(f"ddpg:{d}" for d in dirs), "run"
        with pytest.raises(SystemExit, match=f"'{name}' given twice"):
            run("eval", "--agents", spec, "--scenario", "builtin:s53",
                "--out", str(tmp_path / "rep"))
        assert not (tmp_path / "rep").exists()


class TestControlCli:
    def test_collect_train_probe(self, tmp_path, capsys):
        data = tmp_path / "rev.csv"
        run("control", "collect", "--duration-s", "120", "--seed", "0",
            "--out", str(data))
        net = tmp_path / "ctrl.bin"
        run("control", "train", "--data", str(data), "--seed", "0",
            "--out", str(net))
        capsys.readouterr()
        run("control", "probe", "--net", str(net), "--v", "10", "--a", "1.0")
        out = capsys.readouterr().out
        assert "throttle=" in out and "brake=" in out

    def test_collect_reads_powertrain_config(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[powertrain]\nc_throttle = 3.0\n")
        outs = [tmp_path / "default.csv", tmp_path / "config.csv"]
        run("control", "collect", "--duration-s", "20", "--out", str(outs[0]))
        run("control", "collect", "--duration-s", "20", "--config", str(cfg),
            "--out", str(outs[1]))
        assert not filecmp.cmp(*outs, shallow=False)


class TestConfigFile:
    def test_override_applies(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[reward]\nw_gap = 0.0\n")
        run("reward-probe", "--config", str(cfg),
            "--v", "10", "--vl", "10", "--g", "17")
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("total")][0]
        assert float(line.split()[1]) == pytest.approx(0.0)

    @pytest.mark.parametrize("raw, value", [("yes", True), ("Off", False)])
    def test_boolean_words(self, tmp_path, raw, value):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[ddpg]\nstage2_explore = {raw}\n")
        assert load_config(str(cfg))["ddpg"].stage2_explore is value

    def test_unknown_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[ddpg]\nstage2_explore = ture\n")
        with pytest.raises(ValueError, match=r"\[ddpg\] stage2_explore"):
            load_config(str(cfg))

    def test_unknown_section_rejected(self, tmp_path):
        # a mistyped section name would drop all of its settings
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[simm]\ndt = 0.2\n")
        with pytest.raises(ValueError, match=r"unknown section \[simm\]"):
            load_config(str(cfg))

    def test_calibrate_idm_runs(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("make-synthetic", "--episodes", "1", "--seed", "2",
            "--out", str(data))
        run("calibrate-idm", "--dataset", str(data / "*.csv"))
        out = capsys.readouterr().out
        assert "best parameters" in out and "T = 1.0" in out

    def test_calibrate_idm_glob_matching_nothing(self, tmp_path):
        # the same file-matching rule as ingest
        with pytest.raises(ValueError, match="no files match"):
            run("calibrate-idm", "--dataset", str(tmp_path / "nomatch/*.csv"))

    def test_one_time_step_for_recorded_data(self, tmp_path):
        """[sim] dt is the spacing recorded data is checked and relabeled
        at, by every command that reads it."""
        cfg = tmp_path / "5hz.cfg"
        cfg.write_text("[sim]\ndt = 0.2\nmax_steps = 150\n")
        data = tmp_path / "data"
        run("make-synthetic", "--episodes", "2", "--config", str(cfg),
            "--out", str(data))
        run("ingest", "--in", str(data / "*.csv"), "--config", str(cfg),
            "--out", str(tmp_path / "store.npz"))
        run("calibrate-idm", "--dataset", str(data / "*.csv"),
            "--config", str(cfg))
        run("eval", "--agents", "idm", "--scenario",
            f"replay:{data / 'synthetic-000.csv'}", "--config", str(cfg),
            "--out", str(tmp_path / "rep"))
        # a 5 Hz recording of a follower speeding up at 1 m/s^2
        path = tmp_path / "5hz.csv"
        path.write_text("t_s,v_leader_mps,v_follower_mps,gap_m\n" + "".join(
            f"{0.2 * k:.1f},10.0,{0.2 * k:.1f},50.0\n" for k in range(20)))
        parts = ingest(str(path), SimConfig(dt=0.2), RewardConfig())
        # 1.0 up to the rounding of the decimal speeds' differences
        assert parts[0].transitions.actions == pytest.approx(
            np.ones(18), rel=0, abs=1e-12)
        with pytest.raises(ValueError, match=r"5hz\.csv: line 3: timestamp "
                           r"spacing 0\.2 s != 0\.1 s \(set \[sim\] dt"):
            ingest(str(path), SimConfig(), RewardConfig())


# sha256 over every file the CLI pipeline below writes: each file's path
# relative to the run directory, then its bytes, or for an .npz (whose zip
# members carry timestamps) each array's name, dtype, shape and bytes.  The
# hash was taken before the time step of recorded data got one source.  As
# with the hashes in test_ddpg.py, record any move with a numpy or BLAS
# upgrade in CHANGES.md.
GOLDEN_CLI_SHA256 = \
    "e6a2ad69ba67d4704a68c7dfe842311770155331eedf370aaee62ed8cddfbaf0"


def _tree_sha256(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            if name.endswith(".npz"):
                with np.load(path) as data:
                    for key in sorted(data.files):
                        arr = data[key]
                        h.update(f"{key} {arr.dtype} {arr.shape}".encode())
                        h.update(arr.tobytes())
            else:
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def test_golden_cli_pipeline(tmp_path, monkeypatch, capsys):
    """Every command, in the order a study runs them, from recorded data to
    the control net, pinned byte for byte."""
    monkeypatch.chdir(tmp_path)
    agents = "idm,ddpg:runs/ts,bc:runs/bc/bc.bin"
    for argv in (
            "make-synthetic --episodes 4 --seed 0 --out data",
            "ingest --in data/*.csv --out store.npz",
            "train --mode pure --budget 6000 --out runs/pure",
            "train --mode two-stage --ratio 0.6 --budget 2000 "
            "--dataset store.npz --from runs/pure --out runs/ts",
            "train --mode off-policy --budget 2000 --dataset store.npz "
            "--out runs/off",
            "train --mode bc --epochs 5 --dataset store.npz --out runs/bc",
            f"eval --agents {agents} --scenario builtin:s53 --out report",
            f"eval --agents {agents} --scenario replay:data/synthetic-000.csv "
            "--out report",
            "gen-leader --seed 42 --duration-s 30 --out leader.csv",
            "control collect --duration-s 120 --out reverse.csv",
            "control train --data reverse.csv --out control.bin"):
        run(*argv.split())
    capsys.readouterr()
    assert sum(len(files) for _, _, files in os.walk(tmp_path)) == 54
    assert _tree_sha256(tmp_path) == GOLDEN_CLI_SHA256
