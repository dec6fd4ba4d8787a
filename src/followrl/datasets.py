"""Car-following trajectory ingestion and relabeling into RL transitions.

A recorded episode is one (n, 4) float array of (t, leader speed,
follower speed, gap) rows spaced SimConfig.dt apart, the columns of
HEADER, read from and written to CSV through simcore's numeric codec.
Relabeling turns it into (s, a, r, s', done) transitions, the rows of one
ddpg.Batch: actions recovered by forward-differencing the follower speed
over the same dt, rewards recomputed with the exact reward code path used
online, episode boundaries marked terminal so learning never bootstraps
across recordings.
"""

import glob
import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import IdmController
from .config import LEADER_OU, RewardConfig, SimConfig
from .ddpg import STATE_DIM, Batch, ReplayBuffer
from .reward import reward_total
from .simcore import (FollowEnv, gen_leader_profile, normalize_state, read_csv,
                      write_csv)

HEADER = ["t_s", "v_leader_mps", "v_follower_mps", "gap_m"]

# reward_histogram's regular bins: HIST_WIDTH wide over [HIST_LO, HIST_HI]
HIST_WIDTH, HIST_LO, HIST_HI = 0.05, -1.0, 0.5


@dataclass(eq=False)
class FollowingEpisode:
    id: str
    records: np.ndarray     # (n, 4) float64, columns in HEADER order

    def __len__(self):
        return len(self.records)


@dataclass
class RelabeledDataset:
    transitions: Batch
    provenance: list = field(default_factory=list)  # (episode_id, count)
    clipped_actions: int = 0

    def __len__(self):
        return len(self.transitions)

    def to_buffer(self):
        buf = ReplayBuffer(max(1, len(self)))
        buf.extend(self.transitions)
        return buf


def parse_trajectory_csv(path, dt):
    """Read one leader-follower episode recorded every dt seconds (the
    SimConfig.dt it will be relabeled at).  Besides what read_csv rejects,
    rejects negative speeds, gaps <= 0 and timestamps not spaced dt apart
    (tolerance 1e-6 s), naming the line number."""
    records = read_csv(path, HEADER)
    for lineno, (t, v_l, v_f, g) in enumerate(records.tolist(), start=2):
        if v_l < 0 or v_f < 0:
            raise ValueError(f"{path}: line {lineno}: negative speed")
        if g <= 0:
            raise ValueError(f"{path}: line {lineno}: gap <= 0 (a collision)")
        if lineno > 2 and abs((t - t_prev) - dt) > 1e-6:
            raise ValueError(
                f"{path}: line {lineno}: timestamp spacing "
                f"{t - t_prev:.6g} s != {dt} s "
                "(set [sim] dt in the --config file)")
        t_prev = t
    if len(records) < 2:
        raise ValueError(f"{path}: an episode needs at least 2 rows")
    return FollowingEpisode(os.path.splitext(os.path.basename(path))[0], records)


def write_trajectory_csv(path, episode: FollowingEpisode):
    write_csv(path, HEADER, episode.records)


def build_transitions(ep: FollowingEpisode, cfg: SimConfig, rcfg: RewardConfig):
    """Relabel one episode into N-2 transitions.

    For row index t in [1, N-2]: action a_t = (v_{t+1} - v_t)/dt clipped
    to the feasible range, jerk from the previous recovered action, state
    from row t (holding the t-1 action as current accel), reward scored on
    the post-action row t+1, matching the simulator's convention.
    """
    n = len(ep.records)
    if n < 3:
        raise ValueError("episode too short to relabel (need >= 3 rows)")
    dt = cfg.dt
    _, v_l, v, gap = ep.records.T
    accel = (v[1:] - v[:-1]) / dt                       # a_t for t in [0, N-2]
    clipped = int(np.sum((accel < cfg.a_min) | (accel > cfg.a_max)))
    accel = np.clip(accel, cfg.a_min, cfg.a_max)

    jerk = (accel[1:] - accel[:-1]) / dt                # jerk[t-1] at row t
    out = Batch.empty(n - 2)
    for i, t in enumerate(range(1, n - 1)):
        out.states[i] = normalize_state(v[t], accel[t - 1], v_l[t], gap[t], cfg)
        out.next_states[i] = normalize_state(v[t + 1], float(accel[t]),
                                             v_l[t + 1], gap[t + 1], cfg)
        out.rewards[i] = reward_total(v[t + 1], v_l[t + 1], gap[t + 1],
                                      float(jerk[i]), rcfg).total
    out.actions[:] = accel[1:]
    out.dones[:] = np.arange(n - 2) == n - 3
    return RelabeledDataset(out, [(ep.id, n - 2)], clipped)


def relabel_episodes(episodes, cfg: SimConfig, rcfg: RewardConfig):
    return merge_parts([build_transitions(ep, cfg, rcfg) for ep in episodes])


def split_train_eval(parts, frac=0.95, seed=0):
    """Split a list of per-episode RelabeledDatasets ~95/5 by episode.

    With fewer than 20 episodes the split falls back to contiguous
    transition blocks inside each episode, so the eval share is never
    empty.  Deterministic under the seed.
    """
    if not parts or all(len(p) == 0 for p in parts):
        raise ValueError("nothing to split")
    rng = np.random.default_rng(seed)
    if len(parts) >= 20:
        order = rng.permutation(len(parts))
        total = sum(len(p) for p in parts)
        train_parts, eval_parts, tally = [], [], 0
        for i in order:
            if tally < frac * total:
                train_parts.append(parts[i])
                tally += len(parts[i])
            else:
                eval_parts.append(parts[i])
        if not eval_parts:
            eval_parts.append(train_parts.pop())
        return merge_parts(train_parts), merge_parts(eval_parts)
    train, evl = [], []
    for p in parts:
        cut = int(round(frac * len(p)))
        cut = min(max(cut, 0), len(p) - 1) if len(p) > 1 else len(p)
        eid = p.provenance[0][0]
        train.append(RelabeledDataset(p.transitions.take(slice(cut)),
                                      [(eid, cut)], p.clipped_actions))
        evl.append(RelabeledDataset(p.transitions.take(slice(cut, None)),
                                    [(eid, len(p) - cut)]))
    return merge_parts(train), merge_parts(evl)


def merge_parts(parts):
    return RelabeledDataset(
        Batch.concat([p.transitions for p in parts]),
        [prov for p in parts for prov in p.provenance],
        sum(p.clipped_actions for p in parts))


def reward_histogram(ds: RelabeledDataset):
    """Bin counts over [HIST_LO, HIST_HI] at HIST_WIDTH plus under/overflow
    bins; also reports the fraction of good actions (r >= 0.4) and of
    exactly zero reward."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    rewards = ds.transitions.rewards
    n_bins = int(round((HIST_HI - HIST_LO) / HIST_WIDTH))
    edges = HIST_LO + HIST_WIDTH * np.arange(n_bins + 1)
    # [underflow, bins..., overflow]; HIST_HI itself (the attainable
    # maximum) falls in the top regular bin
    scaled = (np.clip(rewards, HIST_LO, HIST_HI) - HIST_LO) / HIST_WIDTH
    bins = 1 + np.minimum(scaled, n_bins - 1).astype(int)
    bins[rewards < HIST_LO] = 0
    bins[rewards > HIST_HI] = n_bins + 1
    counts = np.bincount(bins, minlength=n_bins + 2)
    return {
        "edges": edges,
        "counts": counts,
        "frac_good": float(np.mean(rewards >= 0.4)),
        "frac_zero": float(np.mean(np.abs(rewards) < 1e-9)),
    }


def save_transition_store(path, ds: RelabeledDataset):
    """Binary transition store (.npz) plus a text manifest next to it.
    Transitions holding a non-finite value are refused, as on loading."""
    path = os.fspath(path)
    if not all(np.isfinite(col).all() for col in ds.transitions.columns):
        raise ValueError(f"{path}: non-finite value in the transitions")
    hist = reward_histogram(ds)
    np.savez(path, **vars(ds.transitions))
    manifest = {
        "n_transitions": len(ds),
        "episodes": [{"id": eid, "transitions": n} for eid, n in ds.provenance],
        "clipped_actions": ds.clipped_actions,
        "reward_histogram": {
            "edges": [float(e) for e in hist["edges"]],
            "counts": [int(c) for c in hist["counts"]],
            "frac_good": hist["frac_good"],
            "frac_zero": hist["frac_zero"],
        },
    }
    base = path[:-4] if path.endswith(".npz") else path
    with open(base + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def load_transition_store(path):
    """Read a store written by save_transition_store.  A missing member,
    columns of unequal length, states not shaped (n, 4) or a non-finite
    value raise ValueError naming the file."""
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path = path + ".npz"
    names = [f.name for f in fields(Batch)]
    # read each member once: data[key] decompresses the whole member anew
    with np.load(path) as data:
        missing = [k for k in names if k not in data.files]
        if missing:
            raise ValueError(f"{path}: missing member(s) {', '.join(missing)}")
        batch = Batch(*(data[k] for k in names))
    shapes = [col.shape for col in batch.columns]
    n = batch.actions.size
    if shapes != [(n, STATE_DIM), (n,), (n,), (n, STATE_DIM), (n,)]:
        raise ValueError(f"{path}: column shapes {shapes}; want one length n, "
                         f"(n, {STATE_DIM}) states and next_states, (n,) others")
    if not all(np.isfinite(col).all() for col in batch.columns):
        raise ValueError(f"{path}: non-finite value in the store")
    provenance, clipped = [], 0
    base = path[:-4] if path.endswith(".npz") else path
    manifest_path = base + ".manifest.json"
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        provenance = [(e["id"], e["transitions"]) for e in manifest["episodes"]]
        clipped = manifest["clipped_actions"]
    return RelabeledDataset(batch, provenance, clipped)


def matching_files(pattern):
    """The files a glob matches, sorted, or the one path given; a glob
    matching nothing raises ValueError."""
    paths = sorted(glob.glob(pattern)) if any(ch in pattern for ch in "*?[") \
        else [pattern]
    if not paths:
        raise ValueError(f"no files match {pattern!r}")
    return paths


def ingest(pattern, cfg: SimConfig, rcfg: RewardConfig):
    """Parse every file matching the glob, each checked to be spaced
    cfg.dt apart, and relabel per episode."""
    return [build_transitions(parse_trajectory_csv(p, cfg.dt), cfg, rcfg)
            for p in matching_files(pattern)]


def rollout_episode(controller, profile, cfg: SimConfig, rcfg: RewardConfig,
                    initial_gap, episode_id="synthetic"):
    """Roll a controller with an act(v, a, v_l, g) interface through the
    simulator from standstill and record the trajectory rows the
    relabeler expects."""
    env = FollowEnv(cfg, rcfg)
    env.reset(profile, initial_gap=initial_gap)
    records = [(0.0, env.leader.speed, env.follower.speed, env.gap)]
    rewards = []
    done = False
    while not done:
        action = controller.act(env.follower.speed, env.follower.accel,
                                env.leader.speed, env.gap)
        _, reward, done, info = env.step(action)
        if info.collision:
            break   # a gap <= 0 row would not be a valid trajectory record
        records.append((info.t, info.v_l, info.v, info.gap))
        rewards.append(reward)
    return FollowingEpisode(episode_id, np.array(records)), rewards


def make_synthetic(n_episodes, seed, cfg: SimConfig, rcfg: RewardConfig,
                   controller=None, leader_ou=None, duration=None):
    """Fabricate a stand-in human dataset by rolling out IDM (or any
    act-style controller) behind OU leaders.  ``duration`` (seconds)
    optionally shortens the episode horizon."""
    if duration is not None:
        cfg = replace(cfg, max_steps=int(round(duration / cfg.dt)))
    controller = controller or IdmController()
    leader_ou = leader_ou or LEADER_OU
    rng = np.random.default_rng(seed)
    episodes = []
    for k in range(n_episodes):
        profile = gen_leader_profile(int(rng.integers(0, 2 ** 31 - 1)),
                                     (cfg.max_steps + 1) * cfg.dt, cfg, leader_ou)
        gap0 = float(rng.uniform(max(cfg.init_gap_low, 5.0), cfg.init_gap_high))
        ep, _ = rollout_episode(controller, profile, cfg, rcfg, gap0,
                                episode_id=f"synthetic-{k:03d}")
        episodes.append(ep)
    return episodes
