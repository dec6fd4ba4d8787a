"""Command-line entry points for the car-following lab.

    followrl gen-leader --seed 42 --duration-s 140 --out leader.csv
    followrl reward-probe --v 20 --vl 0 --g 5 --jerk 0
    followrl make-synthetic --episodes 25 --seed 7 --out data/
    followrl ingest --in 'data/*.csv' --out store.npz
    followrl train --mode pure --budget 100000 --seed 0 --out runs/pure0
    followrl train --mode two-stage --ratio 0.6 --dataset store.npz \\
        --from runs/pure0 --out runs/ts06
    followrl eval --agents idm,ddpg:runs/ts06 --scenario builtin:s53 --out report/
    followrl report --in report/
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import baselines, control, datasets, ddpg, evaluate, simcore
from .config import load_config
from .nets import MlpNet
from .reward import reward_total


def cmd_gen_leader(args, cfg):
    profile = simcore.gen_leader_profile(args.seed, args.duration_s, cfg["sim"],
                                         cfg["leader_ou"])
    simcore.write_leader_csv(args.out, profile, cfg["sim"].dt)
    print(f"wrote {len(profile)} samples to {args.out}")


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


def cmd_train(args, cfg):
    if args.mode == "bc":
        if not args.dataset:
            sys.exit("--dataset is required for BC")
        ds = datasets.load_transition_store(args.dataset)
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
        if args.mode == "pure":
            history = ddpg.train_stage1(agent, args.budget, **kw)
        elif args.mode == "two-stage":
            if not (args.dataset and args.resume_from):
                sys.exit("two-stage needs --dataset and --from")
            agent.load(args.resume_from)
            buf = datasets.load_transition_store(args.dataset).to_buffer()
            history = ddpg.train_stage2(agent, buf, args.ratio, args.budget, **kw)
        elif args.mode == "off-policy":
            if not args.dataset:
                sys.exit("--dataset is required for off-policy")
            buf = datasets.load_transition_store(args.dataset).to_buffer()
            history = ddpg.train_fully_offpolicy(agent, buf, args.budget, **kw)
        agent.save(args.out)
        _write_history(os.path.join(args.out, "rewards.csv"), history)
        print(f"trained mode={args.mode}; {len(history)} reward rows -> {args.out}")
    snapshot = {k: dataclasses.asdict(cfg[k]) for k in ("sim", "reward", "ddpg")}
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
    agents = _load_agents(args.agents, sim_cfg, cfg["ddpg"], cfg["idm"])
    kind, _, arg = args.scenario.partition(":")
    if args.scenario == "builtin:s53":
        scenarios = [evaluate.self_defined_profile(sim_cfg.dt)]
    elif kind == "replay" and arg:
        ep = datasets.parse_trajectory_csv(arg, sim_cfg.dt)
        scenarios = [evaluate.scenario_from_episode(ep)]
    elif args.scenario == "suite:synthetic":
        scenarios = evaluate.synthetic_suite(args.n_scenarios, args.seed,
                                             sim_cfg, cfg["leader_ou"])
    else:
        sys.exit(f"unknown scenario {args.scenario!r} "
                 "(builtin:s53 | replay:FILE | suite:synthetic)")
    os.makedirs(args.out, exist_ok=True)
    for sc in scenarios:
        traces = {name: evaluate.run_scenario(agent, sc, sim_cfg, cfg["reward"])
                  for name, agent in agents.items()}
        evaluate.compare_report(traces, os.path.join(args.out, sc.name))
    print(f"evaluated {len(agents)} agents on {len(scenarios)} scenarios -> {args.out}")


def cmd_report(args, cfg):
    for root, _, files in sorted(os.walk(args.indir)):
        if "ttc_summary.csv" in files:
            print(f"== {root}")
            with open(os.path.join(root, "ttc_summary.csv")) as fh:
                for line in fh:
                    print("  " + line.rstrip())


# the path flags each control subcommand cannot run without
CONTROL_PATHS = {"collect": ("out",), "train": ("data", "out"), "probe": ("net",)}


def cmd_control(args, cfg):
    missing = [f"--{flag}" for flag in CONTROL_PATHS[args.control_cmd]
               if getattr(args, flag) is None]
    if missing:
        sys.exit(f"control {args.control_cmd} needs {' and '.join(missing)}")
    model = cfg["powertrain"]
    if args.control_cmd == "collect":
        samples = control.collect_reverse_data(model, args.duration_s, args.seed)
        control.write_reverse_csv(args.out, samples)
        print(f"collected {len(samples)} samples -> {args.out}")
    elif args.control_cmd == "train":
        samples = control.read_reverse_csv(args.data)
        cn = control.train_control_net(samples, seed=args.seed)
        cn.net.save(args.out)
        np.savez(args.out + ".norm.npz", mean=cn.mean, std=cn.std)
        print(f"control net trained on {len(samples)} samples -> {args.out}")
    elif args.control_cmd == "probe":
        net = MlpNet.load(args.net)
        norm = np.load(args.net + ".norm.npz")
        cn = control.ControlNet(net, norm["mean"], norm["std"])
        throttle, brake = control.accel_to_pedals(cn, args.v, args.a)
        print(f"v={args.v} a_cmd={args.a} -> throttle={throttle:.3f} brake={brake:.3f}")


def build_parser():
    p = argparse.ArgumentParser(prog="followrl", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", help="key=value config file")
        return sp

    sp = add("gen-leader", cmd_gen_leader, help="generate an OU leader profile CSV")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--duration-s", type=float, required=True)
    sp.add_argument("--out", required=True)

    sp = add("reward-probe", cmd_reward_probe, help="print a reward breakdown")
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--vl", type=float, required=True)
    sp.add_argument("--g", type=float, required=True)
    sp.add_argument("--jerk", type=float, default=0.0)

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
    sp.add_argument("--mode", choices=["pure", "two-stage", "off-policy", "bc"],
                    required=True)
    sp.add_argument("--ratio", type=float, default=0.6)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dataset", default=None, help="transition store (.npz)")
    sp.add_argument("--from", dest="resume_from", default=None,
                    help="stage-1 parameter directory for two-stage")
    sp.add_argument("--epochs", type=int, default=20, help="BC epochs")
    sp.add_argument("--out", required=True)

    sp = add("eval", cmd_eval, help="run agents through scenarios")
    sp.add_argument("--agents", required=True,
                    help="comma list: idm | ddpg:DIR | bc:FILE")
    sp.add_argument("--scenario", required=True,
                    help="builtin:s53 | replay:FILE | suite:synthetic")
    sp.add_argument("--n-scenarios", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = add("report", cmd_report, help="print TTC summaries from an eval dir")
    sp.add_argument("--in", dest="indir", required=True)

    sp = add("control", cmd_control, help="reverse-data control pipeline")
    sp.add_argument("control_cmd", choices=["collect", "train", "probe"])
    sp.add_argument("--duration-s", type=float, default=600.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--data", help="reverse-data CSV for training")
    sp.add_argument("--net", help="trained control net for probe")
    sp.add_argument("--v", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--out", help="output file")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.fn(args, load_config(args.config))


if __name__ == "__main__":
    main()
