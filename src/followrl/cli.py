"""Command-line entry points for the car-following lab.

    followrl reward-probe --v 20 --vl 0 --g 5 --jerk 0
    followrl make-synthetic --episodes 25 --seed 7 --out data/
    followrl ingest --in 'data/*.csv' --out store.npz
    followrl train --mode pure --budget 100000 --seed 0 --out runs/pure0
    followrl train --mode two-stage --ratio 0.6 --dataset store.npz \\
        --from runs/pure0 --budget 50000 --out runs/ts06
    followrl eval --agents idm,ddpg:runs/ts06 --scenario builtin:s53 --out report/
    followrl report --in report/
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from . import baselines, control, datasets, ddpg, evaluate
from .config import load_config
from .nets import MlpNet
from .reward import reward_total


def cmd_reward_probe(args, cfg):
    br = reward_total(args.v, args.vl, args.g, args.jerk, cfg["reward"])
    for key, val in dataclasses.asdict(br).items():
        print(f"{key:8s} {val: .6f}")


def cmd_make_synthetic(args, cfg):
    controller = baselines.IdmController(cfg["idm"], cfg["sim"])
    episodes = datasets.make_synthetic(args.episodes, args.seed, cfg["sim"],
                                       cfg["reward"], controller,
                                       cfg["leader_ou"])
    os.makedirs(args.out, exist_ok=True)
    for ep in episodes:
        datasets.write_trajectory_csv(os.path.join(args.out, f"{ep.id}.csv"), ep)
    print(f"wrote {len(episodes)} episodes to {args.out}")


def cmd_ingest(args, cfg):
    parts = datasets.ingest(args.inputs, cfg["sim"], cfg["reward"])
    merged = datasets.merge_parts(parts)
    datasets.save_transition_store(args.out, merged)
    print(f"{len(merged)} transitions from {len(parts)} episodes "
          f"({merged.clipped_actions} clipped actions) -> {args.out}")


def cmd_calibrate_idm(args, cfg):
    episodes = [datasets.parse_trajectory_csv(p, cfg["sim"].dt)
                for p in datasets.matching_files(args.dataset)]
    best, rmse = baselines.calibrate_idm(episodes, cfg["sim"], cfg["idm"])
    print(f"best parameters (gap RMSE {rmse:.3f} m):")
    for key, val in dataclasses.asdict(best).items():
        print(f"  {key} = {val}")


def _write_history(path, history):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "steps", "mean_reward", "collisions"])
        for h in history:
            w.writerow([h.episode, h.steps, repr(float(h.mean_reward)), h.collisions])


def _check_flags(args, what, needed, flags):
    """Exit naming what and the flag unless exactly the needed flags are given."""
    for option, dest in flags.items():
        if (getattr(args, dest) is None) == (option in needed):
            sys.exit(f"{what} {'needs' if option in needed else 'does not take'}"
                     f" {option}")


# the flags each train --mode reads and needs; --seed and --out serve all
TRAIN_MODES = {"pure": {"--budget"},
               "two-stage": {"--dataset", "--from", "--ratio", "--budget"},
               "off-policy": {"--dataset", "--budget"}, "bc": {"--dataset", "--epochs"}}
TRAIN_FLAGS = {"--dataset": "dataset", "--from": "resume_from",
               "--ratio": "ratio", "--budget": "budget", "--epochs": "epochs"}
SUITE_FLAGS = {"--n-scenarios": "n_scenarios", "--seed": "seed"}


def cmd_train(args, cfg):
    _check_flags(args, f"train --mode {args.mode}", TRAIN_MODES[args.mode], TRAIN_FLAGS)
    ds = None if args.dataset is None else datasets.load_transition_store(args.dataset)
    if args.mode == "bc":
        policy = baselines.bc_train(ds, epochs=args.epochs, seed=args.seed,
                                    sim_cfg=cfg["sim"])
        # --out appears only with its first file, so a rejected run leaves
        # nothing behind; DdpgAgent.save makes it in the other modes
        os.makedirs(args.out, exist_ok=True)
        policy.net.save(os.path.join(args.out, "bc.bin"))
        print(f"BC policy trained on {len(ds)} transitions "
              f"(final MSE {baselines.bc_mse(policy, ds):.4f})")
    else:
        agent = ddpg.DdpgAgent(cfg["ddpg"], cfg["sim"], seed=args.seed)
        kw = dict(seed=args.seed, rcfg=cfg["reward"], leader_ou=cfg["leader_ou"])
        buf = None if ds is None else ds.to_buffer()
        if args.mode == "pure":
            history = ddpg.train_stage1(agent, args.budget, **kw)
        elif args.mode == "two-stage":
            agent.load(args.resume_from)
            history = ddpg.train_stage2(agent, buf, args.ratio, args.budget, **kw)
        else:
            history = ddpg.train_fully_offpolicy(agent, buf, args.budget, **kw)
        agent.save(args.out)
        _write_history(os.path.join(args.out, "rewards.csv"), history)
        print(f"trained mode={args.mode}; {len(history)} reward rows -> {args.out}")
    # the config sections the mode reads
    sections = (("sim",) if args.mode == "bc"
                else ("sim", "reward", "ddpg", "leader_ou"))
    snapshot = {k: dataclasses.asdict(cfg[k]) for k in sections}
    with open(os.path.join(args.out, "config.json"), "w") as fh:
        json.dump(snapshot, fh, indent=2, default=str)


def _load_agents(spec, sim_cfg, dcfg, idm_params):
    """Agents by name: "idm", "bc", or a ddpg directory's basename.  The
    names key the trace files, so a name given twice is an error."""
    agents = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if entry == "idm":
            name, agent = "idm", baselines.IdmController(idm_params, sim_cfg)
        elif entry.startswith("ddpg:"):
            name = os.path.basename(entry[5:].rstrip("/")) or "ddpg"
            agent = ddpg.DdpgAgent(dcfg, sim_cfg, seed=0)
            agent.load(entry[5:])
        elif entry.startswith("bc:"):
            name = "bc"
            agent = baselines.BcPolicy(MlpNet.load(entry[3:]), sim_cfg)
        else:
            sys.exit(f"unknown agent spec {entry!r} (idm | ddpg:DIR | bc:FILE)")
        if name in agents:
            sys.exit(f"agent name {name!r} given twice in --agents {spec!r}: "
                     "each agent needs its own name (ddpg dirs are named by "
                     "their basename)")
        agents[name] = agent
    return agents


def cmd_eval(args, cfg):
    sim_cfg = cfg["sim"]
    kind, _, arg = args.scenario.partition(":")
    if not (args.scenario in ("builtin:s53", "suite:synthetic")
            or kind == "replay" and arg):
        sys.exit(f"unknown scenario {args.scenario!r} "
                 "(builtin:s53 | replay:FILE | suite:synthetic)")
    _check_flags(args, f"eval --scenario {args.scenario}",
                 SUITE_FLAGS if kind == "suite" else (), SUITE_FLAGS)
    agents = _load_agents(args.agents, sim_cfg, cfg["ddpg"], cfg["idm"])
    if kind == "suite":
        scenarios = evaluate.synthetic_suite(args.n_scenarios, args.seed,
                                             sim_cfg, cfg["leader_ou"])
    elif kind == "replay":
        ep = datasets.parse_trajectory_csv(arg, sim_cfg.dt)
        scenarios = [evaluate.scenario_from_episode(ep)]
    else:
        scenarios = [evaluate.self_defined_profile(sim_cfg.dt)]
    os.makedirs(args.out, exist_ok=True)
    for sc in scenarios:
        traces = {name: evaluate.run_scenario(agent, sc, sim_cfg, cfg["reward"])
                  for name, agent in agents.items()}
        evaluate.compare_report(traces, os.path.join(args.out, sc.name))
    print(f"evaluated {len(agents)} agents on {len(scenarios)} scenarios -> {args.out}")


def cmd_report(args, cfg):
    if not os.path.isdir(args.indir):
        sys.exit(f"report --in {args.indir}: not a directory")
    roots = [root for root, _, files in sorted(os.walk(args.indir))
             if "ttc_summary.csv" in files]
    if not roots:
        sys.exit(f"report --in {args.indir}: no ttc_summary.csv found")
    for root in roots:
        print(f"== {root}")
        with open(os.path.join(root, "ttc_summary.csv")) as fh:
            for line in fh:
                print("  " + line.rstrip())


def cmd_control_collect(args, cfg):
    samples = control.collect_reverse_data(cfg["powertrain"], args.duration_s,
                                           args.seed)
    control.write_reverse_csv(args.out, samples)
    print(f"collected {len(samples)} samples -> {args.out}")


def cmd_control_train(args, cfg):
    samples = control.read_reverse_csv(args.data)
    cn = control.train_control_net(samples, seed=args.seed)
    control.save_control_net(cn, args.out)
    print(f"control net trained on {len(samples)} samples -> {args.out}")


def cmd_control_probe(args, cfg):
    cn = control.load_control_net(args.net)
    throttle, brake = control.accel_to_pedals(cn, args.v, args.a)
    print(f"v={args.v} a_cmd={args.a} -> throttle={throttle:.3f} brake={brake:.3f}")


def finite_float(raw):
    """argparse type of the float options: like a config file's floats,
    nan and inf are refused."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{raw!r} is not a valid float") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite float")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="followrl", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, parent=sub, **kwargs):
        sp = parent.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", help="key=value config file")
        return sp

    sp = add("reward-probe", cmd_reward_probe, help="print a reward breakdown")
    sp.add_argument("--v", type=finite_float, required=True)
    sp.add_argument("--vl", type=finite_float, required=True)
    sp.add_argument("--g", type=finite_float, required=True)
    sp.add_argument("--jerk", type=finite_float, default=0.0)

    sp = add("make-synthetic", cmd_make_synthetic,
             help="fabricate IDM-driven stand-in human episodes")
    sp.add_argument("--episodes", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("ingest", cmd_ingest, help="parse and relabel trajectory CSVs")
    sp.add_argument("--in", dest="inputs", required=True, help="file or glob")
    sp.add_argument("--out", required=True)

    sp = add("calibrate-idm", cmd_calibrate_idm,
             help="grid-search IDM parameters against recorded followers")
    sp.add_argument("--dataset", required=True)

    sp = add("train", cmd_train, help="train an agent")
    sp.add_argument("--mode", choices=list(TRAIN_MODES), required=True)
    sp.add_argument("--ratio", type=finite_float,
                    help="batch share of the dataset")
    sp.add_argument("--budget", type=int, help="environment or update steps")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dataset", help="transition store (.npz)")
    sp.add_argument("--from", dest="resume_from", help="stage-1 parameter directory")
    sp.add_argument("--epochs", type=int, help="BC epochs")
    sp.add_argument("--out", required=True)

    sp = add("eval", cmd_eval, help="run agents through scenarios")
    sp.add_argument("--agents", required=True,
                    help="comma list: idm | ddpg:DIR | bc:FILE")
    sp.add_argument("--scenario", required=True,
                    help="builtin:s53 | replay:FILE | suite:synthetic")
    sp.add_argument("--n-scenarios", type=int, help="suite:synthetic only")
    sp.add_argument("--seed", type=int, help="suite:synthetic only")
    sp.add_argument("--out", required=True)

    sp = add("report", cmd_report, help="print TTC summaries from an eval dir")
    sp.add_argument("--in", dest="indir", required=True)

    ctl = sub.add_parser("control", help="reverse-data control pipeline") \
        .add_subparsers(dest="control_cmd", required=True)
    sp = add("collect", cmd_control_collect, ctl, help="record reverse data")
    sp.add_argument("--duration-s", type=finite_float, default=600.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="reverse-data CSV")

    sp = add("train", cmd_control_train, ctl, help="fit the pedal net")
    sp.add_argument("--data", required=True, help="reverse-data CSV")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="pedal net file")

    sp = add("probe", cmd_control_probe, ctl, help="print one pedal command")
    sp.add_argument("--net", required=True, help="trained pedal net")
    sp.add_argument("--v", type=finite_float, default=0.0)
    sp.add_argument("--a", type=finite_float, default=0.0)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.fn(args, load_config(args.config))


if __name__ == "__main__":
    main()
