"""End-to-end command-line tests: every subcommand, plus bit-exact
determinism of repeated seeded invocations."""

import csv
import filecmp
import hashlib
import io
import json
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


def run(*argv):
    main(list(argv))


# the flags each train --mode reads and needs, and a value for each; no
# run below gets past the flag check, so the paths need not exist
TRAIN_MODES = {"pure": {"--budget"},
               "two-stage": {"--dataset", "--from", "--ratio", "--budget"},
               "off-policy": {"--dataset", "--budget"},
               "bc": {"--dataset", "--epochs"}}
TRAIN_VALUES = {"--dataset": "store.npz", "--from": "runs/pure",
                "--ratio": "0.5", "--budget": "10", "--epochs": "2"}


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def train_argv(flags):
    return [x for flag in sorted(flags) for x in (flag, TRAIN_VALUES[flag])]


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

    def test_gen_leader_removed(self, capsys):
        # its leader CSV duplicated the v_leader column of every trajectory
        # and trace file, and no command read it
        with pytest.raises(SystemExit) as exit_:
            run("gen-leader", "--seed", "42", "--duration-s", "30", "--out",
                "leader.csv")
        assert exit_.value.code == 2
        assert "invalid choice: 'gen-leader'" in capsys.readouterr().err

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
    def test_config_json_holds_the_sections_read(self, synth_store, tmp_path):
        # the DDPG modes once left out [leader_ou], which they read, so a
        # run under [leader_ou] sigma = 3.0 wrote the default run's
        # config.json; bc wrote [reward] and [ddpg], which it does not read
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[leader_ou]\nsigma = 3.0\n")
        run("train", "--mode", "pure", "--budget", "50", "--config", str(cfg),
            "--out", str(tmp_path / "pure"))
        run("train", "--mode", "bc", "--dataset", str(synth_store),
            "--epochs", "1", "--out", str(tmp_path / "bc"))
        pure = json.loads((tmp_path / "pure" / "config.json").read_text())
        assert list(pure) == ["sim", "reward", "ddpg", "leader_ou"]
        assert pure["leader_ou"]["sigma"] == 3.0
        bc = json.loads((tmp_path / "bc" / "config.json").read_text())
        assert list(bc) == ["sim"]

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

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode, flags in TRAIN_MODES.items()
        for flag in TRAIN_VALUES if flag not in flags])
    def test_flag_of_another_mode_rejected(self, tmp_path, mode, flag):
        # every mode once took every flag, so --mode pure trained with
        # --ratio 0.3 --epochs 5 and ignored both
        out = tmp_path / "run"
        with pytest.raises(SystemExit, match=f"^train --mode {mode} does not "
                           f"take {flag}$"):
            run("train", "--mode", mode, *train_argv(TRAIN_MODES[mode]),
                flag, TRAIN_VALUES[flag], "--out", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode, flags in TRAIN_MODES.items()
        for flag in sorted(flags)])
    def test_missing_flag_of_its_mode_rejected(self, tmp_path, mode, flag):
        # a missing --budget once fell back to [ddpg] stage1_budget, and a
        # missing --ratio or --epochs to a parser default
        out = tmp_path / "run"
        with pytest.raises(SystemExit, match=f"^train --mode {mode} needs "
                           f"{flag}$"):
            run("train", "--mode", mode,
                *train_argv(TRAIN_MODES[mode] - {flag}), "--out", str(out))
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

    @pytest.mark.parametrize("scenario, argv, fault", [
        ("builtin:s53", ["--n-scenarios", "5", "--seed", "3"],
         "does not take --n-scenarios"),
        ("builtin:s53", ["--seed", "3"], "does not take --seed"),
        ("replay:{csv}", ["--n-scenarios", "2"], "does not take --n-scenarios"),
        ("suite:synthetic", ["--n-scenarios", "2"], "needs --seed"),
        ("suite:synthetic", ["--seed", "3"], "needs --n-scenarios")])
    def test_eval_takes_only_its_scenarios_flags(self, tmp_path, scenario,
                                                 argv, fault):
        # builtin:s53 once ran with --n-scenarios 5 --seed 3 and ignored them
        csv_path = tmp_path / "ep.csv"
        scenario = scenario.format(csv=csv_path)
        with pytest.raises(SystemExit, match=f"^eval --scenario "
                           f"{re.escape(scenario)} {fault}$"):
            run("eval", "--agents", "idm", "--scenario", scenario, *argv,
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


class TestBadCounts:
    def test_make_synthetic_negative_episodes(self, tmp_path):
        with pytest.raises(ValueError, match="n_episodes must be >= 1, got -2"):
            run("make-synthetic", "--episodes", "-2", "--out",
                str(tmp_path / "data"))
        assert not (tmp_path / "data").exists()

    def test_eval_zero_scenarios(self, tmp_path):
        with pytest.raises(ValueError, match="n_scenarios must be >= 1, got 0"):
            run("eval", "--agents", "idm", "--scenario", "suite:synthetic",
                "--n-scenarios", "0", "--seed", "0", "--out",
                str(tmp_path / "rep"))
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("make, fault", [
        (lambda path: None, "not a directory"),
        (lambda path: path.write_text("x"), "not a directory"),
        (lambda path: (path / "sub").mkdir(parents=True),
         "no ttc_summary.csv found")], ids=["missing", "file", "empty"])
    def test_report_needs_summaries(self, tmp_path, capsys, make, fault):
        path = tmp_path / "rep"
        make(path)
        with pytest.raises(SystemExit, match=re.escape(
                f"report --in {path}: {fault}")):
            run("report", "--in", str(path))
        assert capsys.readouterr().out == ""


class TestControlCli:
    @pytest.mark.parametrize("argv, flag", [
        (["collect", "--duration-s", "1"], "--out"),
        (["train", "--out", "n.bin"], "--data"),
        (["train", "--data", "rev.csv"], "--out"), (["probe"], "--net")],
        ids=["collect", "train-data", "train-out", "probe"])
    def test_missing_path_flag_named(self, tmp_path, monkeypatch, capsys,
                                     argv, flag):
        # each once died with a bare TypeError on a None path
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            run("control", *argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: followrl control {argv[0]} ")
        assert f"the following arguments are required: {flag}" in err

    def test_flag_of_another_subcommand_rejected(self, capsys):
        # every control flag was once accepted by every subcommand, so
        # probe took --duration-s and ignored it
        with pytest.raises(SystemExit) as exit_:
            run("control", "probe", "--duration-s", "1", "--net", "X")
        assert exit_.value.code == 2
        assert "unrecognized arguments: --duration-s 1" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("write, fault", [
        (lambda p: np.savez(p, mean=np.zeros(3), std=np.array([1.0, 0.0, 1.0])),
         "std must be positive"),
        (lambda p: np.savez(p, mean=np.zeros(3), std=-np.ones(3)),
         "std must be positive"),
        (lambda p: np.savez(p, mean=np.array([0.0, np.nan, 0.0]),
                            std=np.ones(3)), "mean and std must be finite"),
        (lambda p: np.savez(p, mean=np.zeros(3), std=np.full(3, np.inf)),
         "mean and std must be finite"),
        (lambda p: np.savez(p, mean=np.zeros(2), std=np.ones(2)),
         r"mean and std must be shaped \(3,\), got \(2,\) and \(2,\)"),
        (lambda p: np.savez(p, mean=np.zeros((1, 3)), std=np.ones(3)),
         r"mean and std must be shaped \(3,\), got \(1, 3\) and \(3,\)"),
        (lambda p: np.savez(p, mean=np.zeros(3)), "not a norm file"),
        (lambda p: np.savez(p, std=np.ones(3)), "not a norm file"),
        (lambda p: np.savez(p, mean=np.array(["a", "b", "c"]),
                            std=np.ones(3)), "not a norm file"),
        (lambda p: p.write_bytes(b""), "not a norm file"),
        (lambda p: p.write_text("mean,std\n"), "not a norm file"),
        (lambda p: p.write_bytes(npy_bytes(np.zeros(3))), "not a norm file"),
        (lambda p: (np.savez(p, mean=np.zeros(3), std=np.ones(3)),
                    p.write_bytes(p.read_bytes()[:100])), "not a norm file")],
        ids=["zero-std", "negative-std", "nan-mean", "inf-std", "shape-2",
             "shape-1x3", "no-std", "no-mean", "text-mean", "empty", "text",
             "npy", "truncated"])
    def test_probe_rejects_bad_norm_file(self, tmp_path, capsys, write,
                                         fault):
        # a zero std or a NaN mean once printed throttle=nan brake=nan and
        # exited 0; a truncated file raised BadZipFile and a file missing
        # std a KeyError, neither naming the file
        net = tmp_path / "ctrl.bin"
        MlpNet([3, 16, 16, 2], "tanh", seed=0).save(str(net))
        norm = tmp_path / "ctrl.bin.norm.npz"
        write(norm)
        with pytest.raises(ValueError, match=f"^{re.escape(str(norm))}: "
                           f"{fault}"):
            run("control", "probe", "--net", str(net), "--v", "10")
        assert capsys.readouterr().out == ""

    def test_collect_reads_powertrain_config(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[powertrain]\nc_throttle = 3.0\n")
        outs = [tmp_path / "default.csv", tmp_path / "config.csv"]
        run("control", "collect", "--duration-s", "20", "--out", str(outs[0]))
        run("control", "collect", "--duration-s", "20", "--config", str(cfg),
            "--out", str(outs[1]))
        assert not filecmp.cmp(*outs, shallow=False)


# an argv per command with float flags, each value finite and each path
# absent, so a run that got past argparse would fail or write
FLOAT_ARGV = {
    "reward-probe": ["reward-probe", "--v", "1", "--vl", "1", "--g", "5",
                     "--jerk", "0"],
    "train": ["train", "--mode", "two-stage", "--ratio", "0.5", "--dataset",
              "store.npz", "--from", "runs/pure", "--budget", "10", "--out",
              "out"],
    "control collect": ["control", "collect", "--duration-s", "1", "--out",
                        "rev.csv"],
    "control probe": ["control", "probe", "--net", "net.bin", "--v", "1",
                      "--a", "0"]}
FLOAT_FLAGS = [("reward-probe", "--v"), ("reward-probe", "--vl"),
               ("reward-probe", "--g"), ("reward-probe", "--jerk"),
               ("train", "--ratio"), ("control collect", "--duration-s"),
               ("control probe", "--v"), ("control probe", "--a")]


class TestFloatFlags:
    @pytest.mark.parametrize("raw, kind", [
        ("nan", "finite"), ("inf", "finite"), ("abc", "valid")])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS,
                             ids=[c.replace(" ", "-") + f
                                  for c, f in FLOAT_FLAGS])
    def test_bad_float_named(self, tmp_path, monkeypatch, capsys, command,
                             flag, raw, kind):
        # type=float took nan and inf: reward-probe --v nan printed
        # "total nan", and control collect --duration-s inf died on an
        # OverflowError naming no flag
        monkeypatch.chdir(tmp_path)
        argv = list(FLOAT_ARGV[command])
        argv[argv.index(flag) + 1] = raw
        with pytest.raises(SystemExit) as exit_:
            run(*argv)
        assert exit_.value.code == 2
        assert (f"argument {flag}: '{raw}' is not a {kind} float"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []


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

    @pytest.mark.parametrize("argv, ceiling, floor", [
        (["make-synthetic", "--episodes", "1"], 3.0, 5.0),
        (["eval", "--agents", "idm", "--scenario", "suite:synthetic",
          "--n-scenarios", "2", "--seed", "0"], 8.0, 10.0)],
        ids=["make-synthetic", "eval-suite"])
    def test_gap_ceiling_below_floor_named(self, tmp_path, argv, ceiling,
                                           floor):
        # SimConfig accepts these ceilings, and numpy's uniform once died
        # on "high - low < 0", naming no key
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[sim]\ninit_gap_high = {ceiling}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"[sim] init_gap_high = {ceiling} is below the {floor} m floor")):
            run(*argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["stage1_budget", "stage2_budget"])
    def test_budget_key_rejected(self, tmp_path, key):
        # --budget is the one budget setting: [ddpg] stage1_budget once set
        # the pure and off-policy budgets whenever --budget was left out
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[ddpg]\n{key} = 5\n")
        with pytest.raises(ValueError, match=rf"^unknown key '{key}' in "
                           r"section \[ddpg\]$"):
            load_config(str(cfg))

    def test_unknown_key_rejected(self, tmp_path):
        # a removed field is an unknown key: stage 2 always explores now
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[ddpg]\nstage2_explore = yes\n")
        with pytest.raises(ValueError, match=r"unknown key 'stage2_explore' "
                           r"in section \[ddpg\]"):
            load_config(str(cfg))

    def test_vehicle_length_rejected(self, tmp_path):
        # it cancels out of every gap, so a length other than 4.5 m once
        # loaded and changed no result; it is simcore.VEHICLE_LENGTH now
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[sim]\nvehicle_length = 5\n")
        with pytest.raises(ValueError, match=r"unknown key 'vehicle_length' "
                           r"in section \[sim\]"):
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
# stage2_explore config field went, and when leader.csv and the config.json
# key sim.vehicle_length went, when the config.json keys
# ddpg.stage1_budget and ddpg.stage2_budget went, and when config.json came
# to hold the sections its mode reads (leader_ou in, and out of bc's
# reward and ddpg), after checking that every other file stayed
# byte-identical.  As with the hashes in test_ddpg.py,
# record any move with a numpy or BLAS upgrade in CHANGES.md.
GOLDEN_CLI_SHA256 = \
    "e0cb2cd69e59f52b302f32cc5d733e8012d3e9f380200fa8292a9ce91ecbe778"


# the relative path of every file the pipeline writes
GOLDEN_CLI_FILES = [
    "control.bin", "control.bin.norm.npz", "data/synthetic-000.csv",
    "data/synthetic-001.csv", "data/synthetic-002.csv",
    "data/synthetic-003.csv", "report/builtin-s53/trace_bc.csv",
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
            "control collect --duration-s 120 --out reverse.csv",
            "control train --data reverse.csv --out control.bin"):
        run(*argv.split())
    capsys.readouterr()
    assert sorted(os.path.relpath(os.path.join(d, f), tmp_path)
                  for d, _, files in os.walk(tmp_path)
                  for f in files) == GOLDEN_CLI_FILES
    assert _tree_sha256(tmp_path) == GOLDEN_CLI_SHA256
