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
from .ddpg import Batch, ReplayBuffer
from .evaluate import Scenario, run_scenario
from .reward import reward_total
from .simcore import (STATE_DIM, FollowEnv, gen_leader_profile, normalize_state,
                      read_csv, write_csv)

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
        for tr in self.transitions:
            buf.add(tr)
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
    v = ep.records[:, 2]
    accel = (v[1:] - v[:-1]) / dt                       # a_t for t in [0, N-2]
    clipped = int(np.sum((accel < cfg.a_min) | (accel > cfg.a_max)))
    accel = np.clip(accel, cfg.a_min, cfg.a_max)

    jerk = (accel[1:] - accel[:-1]) / dt                # jerk[t-1] at row t
    # rows t in [1, N-1] normalized once: row t is the state of transition t
    # and the next state of transition t-1.  Python floats: the same IEEE
    # arithmetic as numpy scalars, faster
    _, vl_rows, v_rows, gap_rows = ep.records[1:].T.tolist()
    rows = np.array([normalize_state(*row, cfg) for row in
                     zip(v_rows, accel.tolist(), vl_rows, gap_rows)])
    rewards = np.array([reward_total(*row, rcfg).total for row in
                        zip(v_rows[1:], vl_rows[1:], gap_rows[1:],
                            jerk.tolist())])
    out = Batch(rows[:-1], accel[1:], rewards, rows[1:].copy(),
                np.arange(n - 2) == n - 3)
    return RelabeledDataset(out, [(ep.id, n - 2)], clipped)


def relabel_episodes(episodes, cfg: SimConfig, rcfg: RewardConfig):
    return merge_parts([build_transitions(ep, cfg, rcfg) for ep in episodes])


def split_train_eval(parts, frac=0.95, seed=0):
    """Split a list of per-episode RelabeledDatasets ~95/5 by episode: each
    episode lands whole in one share, and both shares hold at least one.
    Needs two or more episodes.  Deterministic under the seed."""
    if not parts or all(len(p) == 0 for p in parts):
        raise ValueError("nothing to split")
    if len(parts) < 2:
        raise ValueError("a split needs at least 2 episodes, got 1")
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must lie in (0, 1), got {frac}")
    order = np.random.default_rng(seed).permutation(len(parts))
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


def merge_parts(parts):
    if not parts:
        raise ValueError("no datasets to merge")
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
    columns of unequal length, states not shaped (n, 4), dones not bool or
    another column not float64, a non-finite value, or a manifest that is
    missing, unreadable, lacks a key or counts other than the store's rows
    raise ValueError naming the file."""
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
    # a float done of 0.5 would bootstrap at half weight in train_step
    for name, col in zip(names, batch.columns):
        want = np.dtype(bool if name == "dones" else np.float64)
        if col.dtype != want:
            raise ValueError(f"{path}: member {name} has dtype {col.dtype}, "
                             f"not {want}")
    if not all(np.isfinite(col).all() for col in batch.columns):
        raise ValueError(f"{path}: non-finite value in the store")
    base = path[:-4] if path.endswith(".npz") else path
    manifest_path = base + ".manifest.json"
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        provenance = [(e["id"], e["transitions"]) for e in manifest["episodes"]]
        clipped = manifest["clipped_actions"]
        counts = (manifest["n_transitions"], sum(k for _, k in provenance))
    except FileNotFoundError:
        raise ValueError(f"{manifest_path}: missing manifest") from None
    except (ValueError, KeyError, TypeError) as err:
        raise ValueError(f"{manifest_path}: unreadable manifest "
                         f"({type(err).__name__}: {err})") from None
    if counts != (n, n):
        raise ValueError(f"{manifest_path}: n_transitions {counts[0]} "
                         f"and episode counts summing to {counts[1]} do "
                         f"not both match the store's {n} rows")
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
    """Roll an act(v, a, v_l, g) controller from standstill through
    run_scenario: a start row, then the trace's first four columns and
    rewards, less a collision row (gap <= 0), which is no valid record."""
    if len(profile) <= cfg.max_steps:
        raise ValueError(f"leader profile has {len(profile)} samples; "
                         f"{cfg.max_steps} steps need {cfg.max_steps + 1}")
    profile = profile[:cfg.max_steps + 1]
    # the start row is the env's: its gap (g0 + L) - 0 - L may not be g0
    v, _, v_l, g = FollowEnv(cfg, rcfg).reset(profile, initial_gap)
    trace = run_scenario(controller, Scenario(episode_id, profile, initial_gap),
                         cfg, rcfg)
    n = len(trace.t) - trace.collided
    records = np.vstack([(0.0, v_l, v, g),
                         np.column_stack((trace.t, trace.v_leader,
                                          trace.v_follower, trace.gap))[:n]])
    return FollowingEpisode(episode_id, records), trace.reward[:n].tolist()


def make_synthetic(n_episodes, seed, cfg: SimConfig, rcfg: RewardConfig,
                   controller=None, leader_ou=LEADER_OU, duration=None):
    """Fabricate a stand-in human dataset by rolling out IDM (clipped to
    cfg's accel bounds) or any act-style controller behind OU leaders.
    ``duration`` (seconds) optionally shortens the episode horizon."""
    if duration is not None:
        cfg = replace(cfg, max_steps=int(round(duration / cfg.dt)))
    controller = controller or IdmController(sim_cfg=cfg)
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
