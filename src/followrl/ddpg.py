"""DDPG with dual replay buffers and the five training regimes.

Stage 1 learns purely from simulator interaction; stage 2 resumes
training with minibatches mixed at ratio r from a practical buffer of
relabeled human transitions and the live simulation buffer.  A fully
off-policy mode (no interaction at all) demonstrates extrapolation error.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import LEADER_OU, DdpgConfig, OuParams, RewardConfig, SimConfig
from .evaluate import Scenario, run_scenario
from .nets import (AdamState, MlpNet, hard_update, member_cache, opt_step,
                   soft_update)
from .simcore import (STATE_DIM, FollowEnv, OuNoise, gen_leader_profile,
                      normalize_state, scale_action, unscale_action)

# Adam turns a fresh critic's noise-sized dQ/da into full lr-sized actor
# steps, which pinned the tanh actor at an action bound within its first
# stage-1 episode; a pinned actor then only collects data at that bound.
# So stage 1 holds the actor for its first ACTOR_DELAY critic updates, the
# actor learns at a smaller rate than the critic, and PREACT_L2 penalizes
# the actor head's pre-activation, pulling a saturated head back into the
# range where tanh still passes dQ/da to the weights.
ACTOR_LR = 1e-4
ACTOR_DELAY = 5000
PREACT_L2 = 1e-3

# the four nets, each a member (stack attribute, row) of a DdpgAgent: an
# online net and its target are one K = 2 stack
_NETS = {"actor": ("actors", 0), "critic": ("critics", 0),
         "actor_target": ("actors", 1), "critic_target": ("critics", 1)}

# gradient steps between off-policy training's greedy evaluation episodes
OFFPOLICY_EVAL_EVERY = 2000


@dataclass(slots=True)
class Transition:
    state: np.ndarray
    action: float       # m/s^2, raw
    reward: float
    next_state: np.ndarray
    done: bool


@dataclass(eq=False)
class Batch:
    """Transitions as column arrays, row i of each for transition i:
    states (n, 4), actions (n,) in m/s^2, rewards (n,), next_states (n, 4)
    and dones (n,) bool.  Iterating yields one Transition per row."""
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    @classmethod
    def empty(cls, n):
        """n rows, uninitialised until written with ``put``."""
        return cls(np.empty((n, STATE_DIM)), np.empty(n), np.empty(n),
                   np.empty((n, STATE_DIM)), np.empty(n, dtype=bool))

    @classmethod
    def concat(cls, batches):
        return cls(*(np.concatenate(cols)
                     for cols in zip(*(b.columns for b in batches))))

    @property
    def columns(self):
        return (self.states, self.actions, self.rewards, self.next_states,
                self.dones)

    def __len__(self):
        return len(self.actions)

    def __iter__(self):
        return map(Transition, self.states, self.actions.tolist(),
                   self.rewards.tolist(), self.next_states, self.dones.tolist())

    def put(self, i, tr: Transition):
        self.states[i] = tr.state
        self.actions[i] = tr.action
        self.rewards[i] = tr.reward
        self.next_states[i] = tr.next_state
        self.dones[i] = tr.done

    def take(self, idx):
        """Rows idx, an index array, copied into a new Batch."""
        return Batch(*(col.take(idx, axis=0) for col in self.columns))


class ReplayBuffer:
    """Fixed-capacity ring buffer with FIFO eviction.  The first len(self)
    rows of ``rows`` hold the stored transitions; ``cursor`` is the row the
    next add writes."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.size = 0
        self.cursor = 0
        self.rows = Batch.empty(min(capacity, 1024))

    def __len__(self):
        return self.size

    def add(self, tr: Transition):
        i = self.cursor
        if i == len(self.rows):
            # the rows double up to the capacity: with one capacity-sized
            # allocation per buffer, peak RSS crept up buffer by buffer
            grown = Batch.empty(min(2 * i, self.capacity))
            for new, old in zip(grown.columns, self.rows.columns):
                new[:i] = old
            self.rows = grown
        self.rows.put(i, tr)
        self.size = min(self.size + 1, self.capacity)
        self.cursor = (i + 1) % self.capacity

    def sample(self, rng, n):
        if not self.size:
            raise ValueError("cannot sample from an empty buffer")
        return self.rows.take(rng.integers(0, self.size, size=n))


def mix_count(r, batch_size):
    """Practical-buffer share of a batch: round-half-up of r*B."""
    return int(np.floor(r * batch_size + 0.5))


def sample_mixed(sim_buf, practical_buf, batch_size, r, rng):
    """Exactly round(r*B) transitions from the practical buffer and the
    remainder from the simulation buffer, shuffled together."""
    if not (0.0 <= r <= 1.0):
        raise ValueError("ratio r must lie in [0, 1]")
    n_prac = mix_count(r, batch_size)
    n_sim = batch_size - n_prac
    parts = []
    if n_prac:
        parts.append(practical_buf.sample(rng, n_prac))
    if n_sim:
        parts.append(sim_buf.sample(rng, n_sim))
    return Batch.concat(parts).take(rng.permutation(batch_size))


def _member(name):
    """One of the four nets: reading gives its member view, and assigning
    a net of the same architecture copies its parameters in."""
    return property(lambda agent: agent._members[name],
                    lambda agent, net: hard_update(agent._members[name], net))


class DdpgAgent:
    """Actor-critic pair with target networks and OU exploration noise.

    Each online net and its target are one K = 2 stack: ``actors`` holds
    [actor, actor_target] and ``critics`` [critic, critic_target], so
    train_step runs each pair's forwards as one.  The four nets are that
    stack's member views."""

    actor = _member("actor")
    critic = _member("critic")
    actor_target = _member("actor_target")
    critic_target = _member("critic_target")

    def __init__(self, cfg: DdpgConfig = None, sim_cfg: SimConfig = None, seed=0):
        self.cfg = cfg or DdpgConfig()
        self.sim_cfg = sim_cfg or SimConfig()
        hidden = list(self.cfg.hidden)
        ss = np.random.SeedSequence(seed)
        actor_seed, critic_seed, agent_seed, head_seed = ss.spawn(4)
        actor = MlpNet([STATE_DIM] + hidden + [1], "tanh", seed=actor_seed)
        critic = MlpNet([STATE_DIM + 1] + hidden + [1], "linear",
                        seed=critic_seed)
        # near-zero output heads keep the initial Q surface flat and the
        # first actions nearly state-independent.  The actor head's bias then
        # starts at the pre-activation of 0 m/s^2: u = 0 maps to -2 m/s^2,
        # and braking at standstill leaves the follower where it is, so an
        # actor that starts there never reaches the leader to learn from it.
        head_rng = np.random.default_rng(head_seed)
        for net in (actor, critic):
            net.weights[-1][...] = head_rng.uniform(-3e-3, 3e-3,
                                                    net.weights[-1].shape)
            net.biases[-1][...] = head_rng.uniform(-3e-3, 3e-3,
                                                   net.biases[-1].shape)
        actor.biases[-1] += np.arctanh(unscale_action(0.0, self.sim_cfg))
        # once the actor learns, the heads no longer keep it out of
        # saturation: ACTOR_DELAY, ACTOR_LR and PREACT_L2 do (see above).
        # Each target starts as a copy of its online net.
        self.actors = MlpNet.stack([actor, actor])
        self.critics = MlpNet.stack([critic, critic])
        self._members = {name: getattr(self, stack).member(k)
                         for name, (stack, k) in _NETS.items()}
        self._reset_optimizers()
        self.noise = OuNoise(self.cfg.noise, self.sim_cfg.dt)
        self.rng = np.random.default_rng(agent_seed)
        self.buffer = ReplayBuffer(self.cfg.buffer_size)

    def select_action(self, obs, explore=False):
        """Greedy actor output mapped to [a_min, a_max]; with explore=True
        adds OU noise scaled to half the action range, then clips."""
        c = self.sim_cfg
        u = float(self.actor.forward(obs[None])[0, 0])
        a = scale_action(u, c)
        if explore:
            a += self.noise.sample(self.rng) * (c.a_max - c.a_min) / 2.0
        return min(max(a, c.a_min), c.a_max)

    def act(self, v, a, v_l, g):
        """Controller interface used by the evaluation harness."""
        return self.select_action(normalize_state(v, a, v_l, g, self.sim_cfg))

    # -- learning ----------------------------------------------------------
    def train_step(self, batch, update_actor=True):
        """One critic regression + actor ascent + target soft update on a
        Batch.  With update_actor=False the actor (not its soft target) is
        held, and the returned "actor_q", the batch mean of Q(s, actor(s))
        after the critic step, is None.
        A non-finite critic loss raises ValueError before any net changes."""
        if not batch:
            raise ValueError("train_step needs a non-empty batch")
        n = len(batch)
        s, a, r, s2, done = batch.columns
        a = unscale_action(a[:, None], self.sim_cfg)
        live = 1.0 - done[:, None]
        actor, critic = self.actor, self.critic

        # the critic step leaves the actor as it is, so actor(s) and
        # actor_target(s') are one stacked forward; a held update needs
        # only actor_target(s').  Then critic(s, a) and critic_target(s', a')
        # are one stacked forward
        if update_actor:
            xs = np.empty((2, n, STATE_DIM))
            xs[0], xs[1] = s, s2
            (u, a2), acache = self.actors.forward(xs, cache=True)
        else:
            a2 = self.actor_target.forward(s2)
        xc = np.empty((2, n, STATE_DIM + 1))
        xc[0, :, :STATE_DIM], xc[1, :, :STATE_DIM] = s, s2
        xc[0, :, STATE_DIM:], xc[1, :, STATE_DIM:] = a, a2
        (q, q2), ccache = self.critics.forward(xc, cache=True)
        y = r[:, None] + self.cfg.gamma * live * q2
        diff = q - y
        critic_loss = float((diff ** 2).sum() / n)
        if not math.isfinite(critic_loss):
            raise ValueError(f"non-finite critic loss {critic_loss}: the batch "
                             "or the nets hold a non-finite value")
        grads = critic.backward(member_cache(ccache, 0), 2.0 * diff / n,
                                out=self.critic_opt.grads)
        opt_step(critic, grads, self.critic_opt)

        actor_q = None
        if update_actor:
            qa, qcache = critic.forward(np.concatenate((s, u), axis=1),
                                        cache=True)
            dq = critic.input_grad(qcache, np.full((n, 1), 1.0 / n))
            da = dq[:, STATE_DIM:]
            # ascend on Q - PREACT_L2 * mean(z^2), z the head's
            # pre-activation, by descending on its negative
            acache = member_cache(acache, 0)
            dpre = 2.0 * PREACT_L2 * acache["pre"][-1] / n
            opt_step(actor, actor.backward(acache, -da, dpre,
                                           out=self.actor_opt.grads),
                     self.actor_opt)
            actor_q = float(qa.sum() / n)

        soft_update(self.actor_target, actor, self.cfg.tau)
        soft_update(self.critic_target, critic, self.cfg.tau)
        return {"critic_loss": critic_loss, "actor_q": actor_q}

    # -- persistence ---------------------------------------------------------
    def save(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        for name in _NETS:
            getattr(self, name).save(os.path.join(out_dir, name + ".bin"))

    def load(self, out_dir):
        """Copy the four nets saved in out_dir into this agent's and restart
        both optimizers at t = 0 with zero moments; a net whose layer sizes
        or head differ from this agent's is rejected before any is
        copied."""
        nets = {}
        for name in _NETS:
            path = os.path.join(out_dir, name + ".bin")
            net, own = MlpNet.load(path), getattr(self, name)
            if net.sizes != own.sizes:
                raise ValueError(f"{path}: layer sizes {net.sizes} != "
                                 f"this agent's {own.sizes}")
            if net.out_activation != own.out_activation:
                raise ValueError(f"{path}: {net.out_activation} head != "
                                 f"this agent's {own.out_activation}")
            nets[name] = net
        for name, net in nets.items():
            setattr(self, name, net)
        self._reset_optimizers()

    def _reset_optimizers(self):
        """Adam at step 0 with zero moments: no state is saved with the
        nets, and moments built for other parameters would mislead."""
        self.actor_opt = AdamState(self.actor, lr=ACTOR_LR)
        self.critic_opt = AdamState(self.critic, lr=self.cfg.lr)


@dataclass
class EpisodeStats:
    episode: int
    steps: int
    mean_reward: float
    collisions: int
    # why the episode ended: "collision", "escape" (gap > g_max), "horizon"
    # (max_steps reached) or "budget" (training budget ran out mid-episode);
    # "" where no single episode is meant (off-policy evaluation points)
    end: str = ""
    # share of the applied actions that sat exactly at a_min or a_max
    at_bound: float = 0.0


def _episode_scenario(rng, sim_cfg, leader_ou):
    """A fresh episode start: an OU leader profile long enough for
    max_steps, then an initial gap uniform in [init_gap_low,
    init_gap_high], each from its own seed drawn from rng in that order."""
    profile_seed = int(rng.integers(0, 2 ** 31 - 1))
    gap_seed = int(rng.integers(0, 2 ** 31 - 1))
    duration = (sim_cfg.max_steps + 1) * sim_cfg.dt
    profile = gen_leader_profile(profile_seed, duration, sim_cfg, leader_ou)
    gap = np.random.default_rng(gap_seed).uniform(sim_cfg.init_gap_low,
                                                  sim_cfg.init_gap_high)
    return Scenario("episode", profile, float(gap))


def _train_online(agent, budget, rng, rcfg, leader_ou, sample_fn, progress,
                  actor_from=0):
    """Algorithm-1 style interaction for budget env steps: act with OU
    exploration noise, store, then one gradient step per env step, on the
    batch sample_fn() returns, once the agent's buffer holds a full batch.
    An episode that ends is followed by a fresh one.  The actor is held
    until the critic's optimizer has taken actor_from steps.

    Returns the per-episode history."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    sim_cfg = agent.sim_cfg
    env = FollowEnv(sim_cfg, rcfg or RewardConfig())
    history = []
    for used in range(budget):
        if env.done:
            sc = _episode_scenario(rng, sim_cfg, leader_ou)
            obs = normalize_state(*env.reset(sc.profile, sc.initial_gap), sim_cfg)
            agent.noise.reset()
            total, at_bound = 0.0, 0
        action = agent.select_action(obs, explore=True)
        at_bound += action in (sim_cfg.a_min, sim_cfg.a_max)
        state, reward, done, info = env.step(action)
        next_obs = normalize_state(*state, sim_cfg)
        # horizon exhaustion is not a real terminal state: bootstrap through
        # it so late-episode values are not dragged toward zero
        terminal = info.collision or info.gap > sim_cfg.g_max
        agent.buffer.add(Transition(obs, action, reward, next_obs, terminal))
        if len(agent.buffer) >= agent.cfg.batch_size:
            agent.train_step(sample_fn(), agent.critic_opt.t >= actor_from)
        obs = next_obs
        total += reward
        if done or used == budget - 1:
            end = ("budget" if not done else "collision" if info.collision
                   else "escape" if terminal else "horizon")
            steps = env.step_index
            history.append(EpisodeStats(len(history), steps, total / steps,
                                        int(info.collision), end,
                                        at_bound / steps))
            if progress:
                progress(history[-1])
    return history


def train_stage1(agent: DdpgAgent, budget=None, seed=0, rcfg=None,
                 leader_ou: OuParams = LEADER_OU, progress=None):
    """Pure-simulator DDPG: fresh OU leader and random initial gap each
    episode, one update per step once the buffer holds a full batch.  The
    actor is held for the run's first ACTOR_DELAY updates.

    Returns the per-episode reward history.
    """
    cfg = agent.cfg
    budget = cfg.stage1_budget if budget is None else budget
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return _train_online(
        agent, budget, rng, rcfg, leader_ou,
        lambda: agent.buffer.sample(rng, cfg.batch_size), progress,
        actor_from=agent.critic_opt.t + ACTOR_DELAY)


def train_stage2(agent: DdpgAgent, practical_buf: ReplayBuffer, ratio,
                 budget=None, seed=0, rcfg=None, leader_ou: OuParams = LEADER_OU,
                 progress=None):
    """Resume training with mixed batches: round(r*B) practical transitions
    per batch, the rest fresh simulator experience.  r = 1.0 reproduces the
    offline-degradation regime (interaction continues but contributes no
    gradients)."""
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"ratio r must lie in [0, 1], got {ratio}")
    if len(practical_buf) == 0 and ratio > 0:
        raise ValueError("practical buffer is empty")
    cfg = agent.cfg
    budget = cfg.stage2_budget if budget is None else budget
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return _train_online(
        agent, budget, rng, rcfg, leader_ou,
        lambda: sample_mixed(agent.buffer, practical_buf, cfg.batch_size,
                             ratio, rng),
        progress)


def train_fully_offpolicy(agent: DdpgAgent, practical_buf: ReplayBuffer,
                          budget=None, seed=0, rcfg=None,
                          leader_ou: OuParams = LEADER_OU):
    """Gradient steps exclusively on the practical buffer, never touching
    the simulator for data; a greedy episode every OFFPOLICY_EVAL_EVERY
    steps records the curve."""
    if len(practical_buf) == 0:
        raise ValueError("practical buffer is empty")
    cfg = agent.cfg
    budget = cfg.stage1_budget if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    eval_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    curve = []
    for step in range(budget):
        batch = practical_buf.sample(rng, cfg.batch_size)
        agent.train_step(batch)
        if (step + 1) % OFFPOLICY_EVAL_EVERY == 0 or step + 1 == budget:
            eval_seed = int(eval_rng.integers(0, 2 ** 31 - 1))
            stats = greedy_eval(agent, n_episodes=1, seed=eval_seed,
                                rcfg=rcfg, leader_ou=leader_ou)
            curve.append(EpisodeStats(len(curve), step + 1,
                                      stats["mean_reward"], stats["collisions"]))
    return curve


def greedy_eval(agent: DdpgAgent, n_episodes=20, seed=0, rcfg=None,
                leader_ou: OuParams = LEADER_OU):
    """Exploration-free rollouts on fresh OU leaders; reports the mean
    per-step reward and total collisions."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    traces = []
    for _ in range(n_episodes):
        sc = _episode_scenario(rng, agent.sim_cfg, leader_ou)
        traces.append(run_scenario(agent, sc, agent.sim_cfg, rcfg))
    rewards = np.concatenate([t.reward for t in traces])
    return {"mean_reward": float(np.mean(rewards)),
            "collisions": sum(t.collided for t in traces)}
