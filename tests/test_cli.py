"""End-to-end command-line tests: every subcommand, plus bit-exact
determinism of repeated seeded invocations."""

import csv
import filecmp
import hashlib
import os
import re

import numpy as np
import pytest

from followrl import DdpgAgent, MlpNet
from followrl.cli import main
from followrl.baselines import IdmController
from followrl.config import (IdmParams, PowertrainParams, RewardConfig,
                             SimConfig, load_config)
from followrl.datasets import (ingest, load_transition_store, make_synthetic,
                               write_trajectory_csv)
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

    def test_make_synthetic_idm_from_config(self, tmp_path):
        # IDM's time gap has one handle, [idm] T
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[idm]\nT = 1.8\n")
        run("make-synthetic", "--config", str(cfg), "--episodes", "2",
            "--seed", "3", "--out", str(tmp_path / "cli"))
        sim = SimConfig()
        want = make_synthetic(2, 3, sim, RewardConfig(),
                              IdmController(IdmParams(T=1.8), sim))
        for ep in want:
            path = tmp_path / f"{ep.id}.csv"
            write_trajectory_csv(path, ep)
            assert (tmp_path / "cli" / path.name).read_bytes() == \
                path.read_bytes()
        default = make_synthetic(2, 3, sim, RewardConfig())
        assert not np.array_equal(default[0].records, want[0].records)

    def test_idm_time_gap_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run("make-synthetic", "--idm-time-gap", "1.0", "--out",
                str(tmp_path))
        assert "unrecognized arguments: --idm-time-gap 1.0" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        "--mode pure --budget -5", "--mode bc", "--mode off-policy",
        "--mode two-stage --dataset {store}",
        "--mode bc --dataset {store} --epochs -3"])
    def test_rejected_run_leaves_no_out_dir(self, synth_store, tmp_path, argv):
        # the run directory was once made before any check, and left empty
        out = tmp_path / "run"
        with pytest.raises((ValueError, SystemExit)):
            run("train", *argv.format(store=synth_store).split(),
                "--out", str(out))
        assert not out.exists()

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

    @pytest.mark.parametrize("spec", ["builtin:s99", "suite:foo", "replay:",
                                      "s53"])
    def test_eval_rejects_unknown_scenario(self, tmp_path, spec):
        # builtin:s99 once ran builtin-s53 and suite:foo the synthetic suite
        with pytest.raises(SystemExit, match=f"unknown scenario '{spec}'"):
            run("eval", "--agents", "idm", "--scenario", spec,
                "--n-scenarios", "1", "--out", str(tmp_path / "rep"))
        assert not (tmp_path / "rep").exists()


class TestControlCli:
    @pytest.mark.parametrize("argv, flag", [
        (["collect"], "--out"), (["train", "--out", "n.bin"], "--data"),
        (["train", "--data", "rev.csv"], "--out"), (["probe"], "--net")],
        ids=["collect", "train-data", "train-out", "probe"])
    def test_missing_path_flag_named(self, tmp_path, monkeypatch, argv, flag):
        # each once died with a bare TypeError on a None path
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"control {argv[0]} needs {flag}"):
            run("control", *argv, "--duration-s", "1")

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

    @pytest.mark.parametrize("section, key, raw", [
        ("ddpg", "batch_size", "abc"), ("sim", "dt", "fast"),
        ("ddpg", "hidden", "32,x"), ("sim", "max_steps", "1.5")])
    def test_unparsable_value_names_its_key(self, tmp_path, section, key, raw):
        # int() and float() once raised without naming the section or key
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ValueError,
                           match=rf"^\[{section}\] {key}: '{re.escape(raw)}' "
                           "is not a valid"):
            load_config(str(cfg))

    @pytest.mark.parametrize("section, key, raw", [
        ("reward", "w_gap", "nan"), ("sim", "dt", "inf"),
        ("reward", "g_min", "-inf"), ("ddpg", "lr", "NaN"),
        ("leader_ou", "sigma", "+Infinity")])
    def test_non_finite_float_rejected(self, tmp_path, section, key, raw):
        # comparisons with nan are false, so [reward] w_gap = nan once
        # loaded and reward-probe printed "total nan"
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ValueError,
                           match=rf"^\[{section}\] {key}: '{re.escape(raw)}' "
                           "is not a finite float$"):
            load_config(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        # a removed field is an unknown key: stage 2 always explores now
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[ddpg]\nstage2_explore = yes\n")
        with pytest.raises(ValueError, match=r"unknown key 'stage2_explore' "
                           r"in section \[ddpg\]"):
            load_config(str(cfg))

    def test_leader_ou_x0_rejected(self, tmp_path):
        # every leader profile starts at 0 m/s, so a leader x0 once loaded
        # and changed nothing; the exploration noise's x0 is still read
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[leader_ou]\nx0 = 12.5\n")
        with pytest.raises(ValueError, match=r"unknown key 'x0' in section "
                           r"\[leader_ou\]"):
            load_config(str(cfg))
        cfg.write_text("[noise_ou]\nx0 = 0.25\n")
        assert load_config(str(cfg))["ddpg"].noise.x0 == 0.25

    @pytest.mark.parametrize("section, key, raw, want", [
        ("reward", "T", "1.0", 1.0), ("reward", "T_lim", "12", 12.0),
        ("idm", "T", "1.2", 1.2)])
    def test_capitalized_key_sets_its_field(self, tmp_path, section, key, raw,
                                            want):
        # configparser lowercases keys by default, so these fields were
        # once rejected as unknown keys 't' and 't_lim'
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[{section}]\n{key} = {raw}\n")
        assert getattr(load_config(str(cfg))[section], key) == want

    @pytest.mark.parametrize("section, key", [
        ("reward", "t"), ("reward", "t_lim"), ("idm", "t"), ("sim", "DT")])
    def test_wrong_case_key_rejected(self, tmp_path, section, key):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[{section}]\n{key} = 1.0\n")
        with pytest.raises(ValueError, match=rf"unknown key '{key}' in "
                           rf"section \[{section}\]"):
            load_config(str(cfg))

    def test_unknown_section_rejected(self, tmp_path):
        # a mistyped section name would drop all of its settings
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[simm]\ndt = 0.2\n")
        with pytest.raises(ValueError, match=r"unknown section \[simm\]"):
            load_config(str(cfg))

    @pytest.mark.parametrize("cls, kwargs", [
        (SimConfig, {"max_steps": 0}), (SimConfig, {"v_des": 0.0}),
        (SimConfig, {"g_max": 0.0, "init_gap_high": 0.0}),
        (RewardConfig, {"g_min": 0.0}), (RewardConfig, {"T": -1.0}),
        (RewardConfig, {"a_min": 0.0}), (RewardConfig, {"a_min": 1.0}),
        (PowertrainParams, {"v_max": 0.0})],
        ids=lambda x: ",".join(f"{k}={v}" for k, v in x.items())
        if isinstance(x, dict) else x.__name__)
    def test_values_that_would_crash_later_rejected(self, cls, kwargs):
        # each once failed only later: a division by zero, an IndexError
        # in FollowEnv.step, or a safety penalty turned into a bonus.  The
        # error names the first field given
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            cls(**kwargs)

    def test_zero_max_steps_rejected_by_train(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[sim]\nmax_steps = 0\n")
        with pytest.raises(ValueError, match="max_steps"):
            run("train", "--mode", "pure", "--budget", "10", "--config",
                str(cfg), "--out", str(tmp_path / "run"))

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
# hash was re-taken when long.csv, the nets' .manifest.json files and the
# stage2_explore config field went, after checking that every other file
# stayed byte-identical.  As with the hashes in test_ddpg.py, record any move
# with a numpy or BLAS upgrade in CHANGES.md.
GOLDEN_CLI_SHA256 = \
    "f9462bfc90c0d2ee2ba49c0471a860b88c4fc289b51bdd9fe5ee76e96b8cf5b5"


# the relative path of every file the pipeline writes
GOLDEN_CLI_FILES = [
    "control.bin", "control.bin.norm.npz", "data/synthetic-000.csv",
    "data/synthetic-001.csv", "data/synthetic-002.csv",
    "data/synthetic-003.csv", "leader.csv", "report/builtin-s53/trace_bc.csv",
    "report/builtin-s53/trace_idm.csv", "report/builtin-s53/trace_ts.csv",
    "report/builtin-s53/ttc_summary.csv",
    "report/replay-synthetic-000/trace_bc.csv",
    "report/replay-synthetic-000/trace_idm.csv",
    "report/replay-synthetic-000/trace_ts.csv",
    "report/replay-synthetic-000/ttc_summary.csv", "reverse.csv",
    "runs/bc/bc.bin", "runs/bc/config.json", "runs/off/actor.bin",
    "runs/off/actor_target.bin", "runs/off/config.json", "runs/off/critic.bin",
    "runs/off/critic_target.bin", "runs/off/rewards.csv",
    "runs/pure/actor.bin", "runs/pure/actor_target.bin",
    "runs/pure/config.json", "runs/pure/critic.bin",
    "runs/pure/critic_target.bin", "runs/pure/rewards.csv",
    "runs/ts/actor.bin", "runs/ts/actor_target.bin", "runs/ts/config.json",
    "runs/ts/critic.bin", "runs/ts/critic_target.bin", "runs/ts/rewards.csv",
    "store.manifest.json", "store.npz"]


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
    assert sorted(os.path.relpath(os.path.join(d, f), tmp_path)
                  for d, _, files in os.walk(tmp_path)
                  for f in files) == GOLDEN_CLI_FILES
    assert _tree_sha256(tmp_path) == GOLDEN_CLI_SHA256
