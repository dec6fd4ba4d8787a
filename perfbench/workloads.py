"""The three benchmark workloads: ``train``, ``rollout`` and ``offline``.

Each workload is a ``setup(seed)`` that generates its inputs and a
``run(inputs, workdir)`` that does one round of fixed work through the
public followrl API, in the order the ``followrl`` CLI commands use it,
and checks what came out.  Rounds from the same inputs must write
byte-identical outputs, so ``Round.digest`` repeats exactly.
See NOTES.md for why each workload exists.
"""

import dataclasses
import glob
import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from followrl import baselines, control, datasets, ddpg, evaluate
from followrl.config import (LEADER_OU, DdpgConfig, IdmParams,
                             PowertrainParams, RewardConfig, SimConfig)

# train: stage-1 env steps, stage-2 env steps and the stage-2 mixing ratio
STAGE1_STEPS = 3000
STAGE2_STEPS = 2000
RATIO = 0.6
PRACTICAL_EPISODES = 2

# BC epochs, the CLI default
BC_EPOCHS = 20

# rollout: recorded episodes for calibrate_idm (short, since the default
# grid replays each one 96 times) and the synthetic-suite size.  With fewer
# than ~16 full IDM episodes of training data the BC policy collides in
# some suites, which would make the work per round depend on the seed.
CALIBRATE_EPISODES = 2
CALIBRATE_DURATION_S = 30.0
SUITE_SCENARIOS = 12
BC_EPISODES = 16

# offline: 5 episodes of 619 transitions put ~3.1k transitions in the store,
# enough for the quadratic load_transition_store to dominate.  The control
# pipeline is acceptance criterion 10's configuration, seeds included: its
# RMSE bound is established only there, and with data and training seeds
# drawn from the workload seed it exceeds 0.3 for some of them (NOTES.md).
OFFLINE_EPISODES = 5
OFFLINE_DURATION_S = 62.0
REVERSE_DURATION_S = 600.0
CONTROL_EPOCHS = 40
CONTROL_SEED = 0
CONTROL_RMSE_BOUND = 0.3


def sub_seeds(seed, n):
    """n independent library seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


@dataclass
class Round:
    """What one round did: named pass/fail checks, a digest of its outputs,
    work counts, the count its throughput is over (``rate``) and the time
    of the part of the round that did that work, per-operation latency
    samples, and the CPU slowdown the speed probe saw during it."""
    checks: dict
    digest: str
    counts: dict
    rate: str
    part_s: float
    samples: dict = field(default_factory=dict)
    slowdown: float = 1.0   # set by the runner from the speed probe


def _hash_files(h, root):
    for path in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True)):
        if os.path.isfile(path) and not path.endswith(".npz"):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())


def _hash_arrays(h, path):
    # .npz members carry zip timestamps, so hash the arrays, not the file
    with np.load(path) as data:
        for key in sorted(data.files):
            arr = data[key]
            h.update(key.encode() + str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())


def _stack(ds):
    """Column arrays of a RelabeledDataset, for exact comparisons."""
    trs = ds.transitions
    return (np.stack([t.state for t in trs]), np.array([t.action for t in trs]),
            np.array([t.reward for t in trs]),
            np.stack([t.next_state for t in trs]), np.array([t.done for t in trs]))


def _same(a, b):
    return len(a.transitions) == len(b.transitions) and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(_stack(a), _stack(b)))


def _finite_params(*nets):
    return all(np.all(np.isfinite(p)) for net in nets for p in net.parameters())


# -- train -------------------------------------------------------------------

class _EpisodeClock:
    """``progress`` callback timing each episode: wall time per step."""

    def __init__(self):
        self.us_per_step = []
        self.mark = time.perf_counter()

    def restart(self):
        self.mark = time.perf_counter()

    def __call__(self, stats):
        now = time.perf_counter()
        self.us_per_step.append((now - self.mark) / stats.steps * 1e6)
        self.mark = now


def setup_train(seed):
    s = sub_seeds(seed, 4)
    sim, rcfg, dcfg = SimConfig(), RewardConfig(), DdpgConfig()
    episodes = datasets.make_synthetic(PRACTICAL_EPISODES, s[0], sim, rcfg)
    practical = datasets.relabel_episodes(episodes, sim, rcfg).to_buffer()
    probe = practical.sample(np.random.default_rng(s[3]), dcfg.batch_size)
    return {"sim": sim, "rcfg": rcfg, "dcfg": dcfg, "practical": practical,
            "probe": probe, "agent_seed": s[1], "train_seed": s[2]}


def run_train(inp, workdir):
    """Stage-1 DDPG from a fresh agent, save; load it as the two-stage CLI
    mode does, stage 2 at ratio r, save; then one probe update to read the
    critic loss."""
    sim, rcfg, dcfg = inp["sim"], inp["rcfg"], inp["dcfg"]
    t0 = time.perf_counter()
    clock = _EpisodeClock()
    agent = ddpg.DdpgAgent(dcfg, sim, seed=inp["agent_seed"])
    h1 = ddpg.train_stage1(agent, STAGE1_STEPS, seed=inp["train_seed"],
                           rcfg=rcfg, leader_ou=LEADER_OU, progress=clock)
    stage1 = os.path.join(workdir, "stage1")
    agent.save(stage1)

    agent = ddpg.DdpgAgent(dcfg, sim, seed=inp["agent_seed"])
    agent.load(stage1)
    clock.restart()
    h2 = ddpg.train_stage2(agent, inp["practical"], RATIO, STAGE2_STEPS,
                           seed=inp["train_seed"], rcfg=rcfg,
                           leader_ou=LEADER_OU, progress=clock)
    agent.save(os.path.join(workdir, "stage2"))
    probe = agent.train_step(inp["probe"])
    part_s = time.perf_counter() - t0

    h = hashlib.sha256()
    _hash_files(h, workdir)
    for stats in h1 + h2:
        h.update(repr(dataclasses.astuple(stats)).encode())
    steps = [sum(e.steps for e in hist) for hist in (h1, h2)]
    # one update per env step once the fresh buffer holds a full batch
    grad_steps = sum(max(0, n - dcfg.batch_size + 1) for n in steps) + 1
    checks = {
        "budget_used": steps == [STAGE1_STEPS, STAGE2_STEPS],
        "rewards_finite": all(math.isfinite(e.mean_reward) for e in h1 + h2),
        "params_finite": _finite_params(agent.actor, agent.critic,
                                        agent.actor_target, agent.critic_target),
        "critic_loss_finite": math.isfinite(probe["critic_loss"])
        and math.isfinite(probe["actor_q"]),
    }
    return Round(checks, h.hexdigest(),
                 {"env_steps": sum(steps), "grad_steps": grad_steps},
                 "env_steps", part_s, {"interaction.us": clock.us_per_step})


# -- rollout -----------------------------------------------------------------

def setup_rollout(seed):
    s = sub_seeds(seed, 4)
    sim, rcfg = SimConfig(), RewardConfig()
    recorded = datasets.make_synthetic(CALIBRATE_EPISODES, s[0], sim, rcfg,
                                       duration=CALIBRATE_DURATION_S)
    bc_data = datasets.relabel_episodes(
        datasets.make_synthetic(BC_EPISODES, s[1], sim, rcfg), sim, rcfg)
    bc = baselines.bc_train(bc_data, epochs=BC_EPOCHS, seed=s[2],
                            sim_cfg=sim)
    agents = {"idm": baselines.IdmController(IdmParams(), sim), "bc": bc}
    return {"sim": sim, "rcfg": rcfg, "recorded": recorded, "agents": agents,
            "suite_seed": s[3]}


def run_rollout(inp, workdir):
    """calibrate-idm over the recorded episodes, then the synthetic eval
    suite for IDM and the BC policy with a TTC report per scenario."""
    sim, rcfg = inp["sim"], inp["rcfg"]
    best, rmse = baselines.calibrate_idm(inp["recorded"], sim, IdmParams())

    t0 = time.perf_counter()
    scenario_ms = {name: [] for name in inp["agents"]}
    full_runs, env_steps = True, 0
    for sc in evaluate.synthetic_suite(SUITE_SCENARIOS, inp["suite_seed"], sim,
                                       LEADER_OU):
        traces = {}
        for name, agent in inp["agents"].items():
            t = time.perf_counter()
            trace = evaluate.run_scenario(agent, sc, sim, rcfg)
            scenario_ms[name].append((time.perf_counter() - t) * 1e3)
            traces[name] = trace
            env_steps += len(trace.t)
            full_runs &= len(trace.t) == len(sc.profile) - 1 and not trace.collided
            full_runs &= all(np.all(np.isfinite(getattr(trace, col))) for col in
                             ("gap", "v_follower", "accel", "jerk", "reward"))
        evaluate.compare_report(traces, os.path.join(workdir, sc.name))
    part_s = time.perf_counter() - t0

    h = hashlib.sha256(repr((dataclasses.astuple(best), rmse)).encode())
    _hash_files(h, workdir)
    checks = {"calibration_finite": math.isfinite(rmse),
              "full_scenarios_no_collision": full_runs}
    samples = {f"scenario.ms.{name}": v for name, v in scenario_ms.items()}
    return Round(checks, h.hexdigest(),
                 {"env_steps": env_steps},
                 "env_steps", part_s, samples)


# -- offline -----------------------------------------------------------------

def setup_offline(seed):
    s = sub_seeds(seed, 2)
    sim, rcfg = SimConfig(), RewardConfig()
    episodes = datasets.make_synthetic(OFFLINE_EPISODES, s[0], sim, rcfg,
                                       duration=OFFLINE_DURATION_S)
    t = np.arange(0.0, 60.0, 0.1)
    return {"sim": sim, "rcfg": rcfg, "episodes": episodes,
            "relabeled": datasets.relabel_episodes(episodes, sim, rcfg),
            "square_wave": np.where((t // 4).astype(int) % 2 == 0, 2.0, -2.0),
            "bc_seed": s[1]}


def run_offline(inp, workdir):
    """make-synthetic's CSV write, ingest into a store, reload it into a
    buffer, BC training on the reloaded store, then the reverse-data
    control pipeline tracking a +-2 m/s^2 square wave."""
    sim, rcfg = inp["sim"], inp["rcfg"]
    t0 = time.perf_counter()
    data_dir = os.path.join(workdir, "data")
    os.makedirs(data_dir)
    for ep in inp["episodes"]:
        datasets.write_trajectory_csv(os.path.join(data_dir, f"{ep.id}.csv"), ep)
    merged = datasets.merge_parts(
        datasets.ingest(os.path.join(data_dir, "*.csv"), sim, rcfg))
    store = os.path.join(workdir, "store.npz")
    datasets.save_transition_store(store, merged)
    ds = datasets.load_transition_store(store)
    buf = ds.to_buffer()
    part_s = time.perf_counter() - t0

    policy = baselines.bc_train(ds, epochs=BC_EPOCHS, seed=inp["bc_seed"],
                                sim_cfg=sim)
    policy.net.save(os.path.join(workdir, "bc.bin"))
    mse = baselines.bc_mse(policy, ds)

    model = PowertrainParams()
    samples = control.collect_reverse_data(model, REVERSE_DURATION_S,
                                           CONTROL_SEED)
    cn = control.train_control_net(samples, epochs=CONTROL_EPOCHS,
                                   seed=CONTROL_SEED)
    cn.net.save(os.path.join(workdir, "control.bin"))
    commands = inp["square_wave"]
    achieved, _ = control.track_accel_commands(cn, model, commands, v0=10.0)
    rmse = float(np.sqrt(np.mean((achieved - commands) ** 2)))

    h = hashlib.sha256()
    _hash_files(h, workdir)
    _hash_arrays(h, store)
    n = len(buf)
    # 32 rows: the default minibatch of bc_train and train_control_net
    batches = lambda rows, epochs: epochs * math.ceil(rows / 32)
    checks = {
        "store_equals_relabel": _same(ds, merged) and _same(ds, inp["relabeled"]),
        "buffer_complete": n == len(inp["relabeled"]),
        "bc_mse_finite": math.isfinite(mse),
        "control_rmse_bound": rmse <= CONTROL_RMSE_BOUND,
    }
    actions = sum(len(ep) - 1 for ep in inp["episodes"])
    return Round(checks, h.hexdigest(),
                 {"transitions": n,
                  "grad_steps": batches(n, BC_EPOCHS)
                  + batches(len(samples), CONTROL_EPOCHS),
                  "clipped_ratio": merged.clipped_actions / actions},
                 "transitions", part_s)


WORKLOADS = {
    "train": (setup_train, run_train),
    "rollout": (setup_rollout, run_rollout),
    "offline": (setup_offline, run_offline),
}

# Layers each workload must reach; the traced run fails a workload whose
# listed layer records no call (e.g. after a rename or a re-import).
EXPECTED_LAYERS = {
    "train": [
        "nets.forward_single", "nets.forward_batch", "nets.backward",
        "nets.opt_step", "nets.soft_update", "nets.save", "nets.load",
        "ddpg.select_action", "ddpg.train_step", "ddpg.ReplayBuffer.add",
        "ddpg.ReplayBuffer.sample", "ddpg.sample_mixed",
        "simcore.FollowEnv.step", "simcore.FollowEnv.reset",
        "simcore.gen_leader_profile", "simcore.normalize_state",
        "reward.reward_total"],
    "rollout": [
        "nets.forward_single", "simcore.FollowEnv.step",
        "simcore.FollowEnv.reset", "simcore.gen_leader_profile",
        "simcore.normalize_state", "reward.reward_total",
        "baselines.IdmController.act", "baselines.BcPolicy.act",
        "baselines.calibrate_idm", "evaluate.run_scenario",
        "evaluate.ttc_summary", "evaluate.compare_report"],
    "offline": [
        "nets.forward_single", "nets.forward_batch", "nets.backward",
        "nets.opt_step", "nets.save", "ddpg.ReplayBuffer.add",
        "simcore.normalize_state", "reward.reward_total",
        "baselines.bc_train", "datasets.write_trajectory_csv",
        "datasets.parse_trajectory_csv", "datasets.build_transitions",
        "datasets.save_transition_store", "datasets.load_transition_store",
        "datasets.to_buffer", "control.collect_reverse_data",
        "control.train_control_net", "control.track_accel_commands"],
}
