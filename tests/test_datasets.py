import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from followrl import RewardConfig, SimConfig, parse_trajectory_csv, reward_histogram
from followrl.baselines import IdmController
from followrl.config import IdmParams
from followrl.datasets import (FollowingEpisode, RelabeledDataset,
                               build_transitions, ingest,
                               load_transition_store, make_synthetic,
                               merge_parts, relabel_episodes, rollout_episode,
                               save_transition_store,
                               split_train_eval, write_trajectory_csv)
from followrl.simcore import FollowEnv, gen_leader_profile

CFG = SimConfig()
RCFG = RewardConfig()


def write_rows(path, rows, header="t_s,v_leader_mps,v_follower_mps,gap_m"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def constant_episode(n, v=8.0, gap=14.0):
    recs = [(0.1 * k, v, v, gap) for k in range(n)]
    return FollowingEpisode("const", np.array(recs))


class TestParse:
    def test_minimal_two_rows(self, tmp_path):
        p = tmp_path / "ep.csv"
        write_rows(p, ["0.0,5.0,4.0,10.0", "0.1,5.0,4.1,10.0"])
        ep = parse_trajectory_csv(str(p), CFG.dt)
        assert len(ep) == 2
        assert ep.records[1, 2] == 4.1

    def test_negative_gap_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = [f"{0.1 * k:.1f},5.0,4.0,10.0" for k in range(10)]
        rows[5] = "0.5,5.0,4.0,-1.0"   # line 7 counting the header
        write_rows(p, rows)
        with pytest.raises(ValueError, match="line 7"):
            parse_trajectory_csv(str(p), CFG.dt)

    def test_non_uniform_spacing_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_rows(p, ["0.0,5.0,4.0,10.0", "0.25,5.0,4.0,10.0"])
        with pytest.raises(ValueError, match="spacing"):
            parse_trajectory_csv(str(p), CFG.dt)
        # but the matching dt accepts it
        ep = parse_trajectory_csv(str(p), 0.25)
        assert len(ep) == 2

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_rows(p, ["0.0,5.0,4.0,10.0", "0.1,abc,4.0,10.0"])
        with pytest.raises(ValueError, match="line 3"):
            parse_trajectory_csv(str(p), CFG.dt)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [(0.1 * k, rng.uniform(0, 20), rng.uniform(0, 20),
                 rng.uniform(1, 100)) for k in range(50)]
        ep = FollowingEpisode("rt", np.array(recs))
        p = tmp_path / "rt.csv"
        write_trajectory_csv(str(p), ep)
        back = parse_trajectory_csv(str(p), CFG.dt)
        assert back.records.shape == (50, 4)
        assert np.array_equal(back.records, ep.records)


class RandomActions:
    """Seeded controller with actions uniform in [-11, 7] m/s^2."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def act(self, v, a, v_l, g):
        return self.rng.uniform(-11.0, 7.0)


class TestBuildTransitions:
    def test_constant_episode(self):
        ds = build_transitions(constant_episode(20), CFG, RCFG)
        assert len(ds) == 18
        assert all(tr.action == 0.0 for tr in ds.transitions)
        rewards = {tr.reward for tr in ds.transitions}
        assert len(rewards) == 1    # constant state -> constant reward
        assert ds.transitions.dones.tolist() == [False] * 17 + [True]

    def test_count_is_n_minus_2(self):
        for n in (3, 10, 101):
            assert len(build_transitions(constant_episode(n), CFG, RCFG)) == n - 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_transitions(constant_episode(2), CFG, RCFG)

    def test_relabel_matches_simulator_rewards(self):
        # roll IDM through the env and relabel the recorded trajectory: the
        # recomputed rewards must equal what the env emitted (steps 1..N-2)
        profile = gen_leader_profile(3, (CFG.max_steps + 1) * CFG.dt, CFG)
        ep, env_rewards = rollout_episode(IdmController(), profile, CFG, RCFG,
                                          initial_gap=30.0)
        ds = build_transitions(ep, CFG, RCFG)
        relabeled = [tr.reward for tr in ds.transitions]
        expected = env_rewards[1:len(relabeled) + 1]
        assert np.allclose(relabeled, expected, atol=1e-9)

    def test_relabel_matches_simulator_for_other_controllers(self):
        class Sine:
            def act(self, v, a, v_l, g):
                return 2.0 * np.sin(0.13 * v + 0.07 * g)

        profile = gen_leader_profile(8, (CFG.max_steps + 1) * CFG.dt, CFG)
        ep, env_rewards = rollout_episode(Sine(), profile, CFG, RCFG,
                                          initial_gap=60.0)
        ds = build_transitions(ep, CFG, RCFG)
        relabeled = [tr.reward for tr in ds.transitions]
        assert np.allclose(relabeled, env_rewards[1:len(relabeled) + 1], atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(leader_seed=st.integers(0, 2 ** 31 - 2),
           gap=st.floats(0.5, 199.0),
           controller=st.one_of(
               st.builds(IdmParams, T=st.floats(0.5, 2.5),
                         a=st.floats(0.5, 3.0), g_min=st.floats(1.0, 5.0)),
               st.integers(0, 2 ** 32 - 1)))
    def test_relabel_matches_simulator_property(self, leader_seed, gap,
                                                controller):
        # relabel o rollout: over random leaders, initial gaps and either
        # an IDM follower or random actions beyond [a_min, a_max] (which
        # the env clips), every relabeled reward is the env's reward for
        # the same step.  From gap >= 0.5 m neither a collision nor an
        # escape past g_max can end an episode before its third row.
        cfg = SimConfig(max_steps=150)
        if isinstance(controller, IdmParams):
            controller = IdmController(controller, cfg)
        else:
            controller = RandomActions(controller)
        profile = gen_leader_profile(leader_seed, (cfg.max_steps + 1) * cfg.dt,
                                     cfg)
        ep, env_rewards = rollout_episode(controller, profile, cfg, RCFG,
                                          initial_gap=gap)
        relabeled = build_transitions(ep, cfg, RCFG).transitions.rewards
        assert len(relabeled) == len(env_rewards) - 1
        np.testing.assert_allclose(relabeled, env_rewards[1:], rtol=0,
                                   atol=1e-9)

    def test_clipping_reported(self):
        recs = [(0.0, 5, 0.0, 20),
                (0.1, 5, 1.0, 20),   # a = 10 -> clipped
                (0.2, 5, 1.0, 20),
                (0.3, 5, 1.0, 20)]
        ds = build_transitions(FollowingEpisode("clip", np.array(recs, dtype=float)),
                               CFG, RCFG)
        assert ds.clipped_actions == 1
        assert all(CFG.a_min <= tr.action <= CFG.a_max for tr in ds.transitions)


class Constant:
    def __init__(self, accel):
        self.accel = accel

    def act(self, v, a, v_l, g):
        return self.accel


def reference_rollout(controller, profile, cfg, rcfg, initial_gap,
                      episode_id="synthetic"):
    """rollout_episode written as its own env loop: the bit-for-bit
    reference for the run_scenario view."""
    env = FollowEnv(cfg, rcfg)
    env.reset(profile, initial_gap=initial_gap)
    records = [(0.0, env.leader.speed, env.follower.speed, env.gap)]
    rewards = []
    done = False
    while not done:
        action = controller.act(env.follower.speed, env.follower.accel,
                                env.leader.speed, env.gap)
        (v, _, v_l, _), reward, done, info = env.step(action)
        if info.collision:
            break
        records.append((info.t, v_l, v, info.gap))
        rewards.append(reward)
    return FollowingEpisode(episode_id, np.array(records)), rewards


class TestRollout:
    @settings(max_examples=40, deadline=None)
    @given(leader_seed=st.integers(0, 2 ** 31 - 2),
           gap=st.one_of(st.just(3.7), st.floats(0.5, 199.0)),
           controller=st.one_of(
               st.builds(IdmParams, T=st.floats(0.5, 2.5),
                         a=st.floats(0.5, 3.0), g_min=st.floats(1.0, 5.0)),
               st.integers(0, 2 ** 32 - 1), st.floats(-11.0, 7.0)),
           max_steps=st.integers(1, 150), extra=st.integers(0, 20))
    @example(leader_seed=0, gap=3.7, controller=IdmParams(), max_steps=150,
             extra=0)
    # full throttle from 3.7 m behind a leader starting at standstill
    # collides on step 15
    @example(leader_seed=1, gap=3.7, controller=7.0, max_steps=150, extra=5)
    def test_matches_reference_loop(self, leader_seed, gap, controller,
                                    max_steps, extra):
        # IDM, seeded random actions beyond [a_min, a_max] or a constant
        # command; profiles longer than max_steps + 1, start gaps such as
        # 3.7 m where the env's (g0 + L) - L differs from g0, and episodes
        # ending in a collision, an escape or the horizon
        cfg = SimConfig(max_steps=max_steps)

        def fresh():
            if isinstance(controller, IdmParams):
                return IdmController(controller, cfg)
            if isinstance(controller, int):
                return RandomActions(controller)
            return Constant(controller)

        profile = gen_leader_profile(
            leader_seed, (max_steps + 1 + extra) * cfg.dt, cfg)
        ep, rewards = rollout_episode(fresh(), profile, cfg, RCFG, gap, "x")
        ref, ref_rewards = reference_rollout(fresh(), profile, cfg, RCFG, gap,
                                             "x")
        assert ep.id == ref.id
        assert ep.records.shape == ref.records.shape
        assert ep.records.tobytes() == ref.records.tobytes()
        assert rewards == ref_rewards
        assert np.array(rewards).tobytes() == np.array(ref_rewards).tobytes()

    def test_example_collides(self):
        # the second explicit example above really ends in a collision, on
        # its 15th step (the last kept row has a 0.15 m gap)
        cfg = SimConfig(max_steps=150)
        profile = gen_leader_profile(1, 156 * cfg.dt, cfg)
        ep, rewards = rollout_episode(Constant(7.0), profile, cfg, RCFG, 3.7)
        assert (len(ep), len(rewards)) == (15, 14)
        assert 0 < ep.records[-1, 3] < 0.2

    def test_short_profile_rejected(self):
        # only a profile without a step is rejected; one of 50 samples under
        # max_steps = 50 once was too
        cfg = SimConfig(max_steps=50)
        for n in (0, 1):
            with pytest.raises(ValueError,
                               match=f"^leader profile has {n} samples, need 2$"):
                rollout_episode(Constant(0.0), np.zeros(n), cfg, RCFG, 20.0)

    @pytest.mark.parametrize("steps", [30, 80])
    def test_one_row_per_profile_sample(self, steps):
        # under max_steps = 50 a profile of steps + 1 samples once was
        # rejected (30) or cut to 51 (80); standing 20 m behind a standing
        # leader neither collides nor escapes
        cfg = SimConfig(max_steps=50)
        ep, rewards = rollout_episode(Constant(0.0), np.zeros(steps + 1), cfg,
                                      RCFG, 20.0)
        assert (len(ep), len(rewards)) == (steps + 1, steps)
        assert ep.records[-1, 0] == steps * cfg.dt


def test_make_synthetic_gap_floor_above_ceiling():
    # numpy's uniform once died on "high - low < 0", naming no key
    with pytest.raises(ValueError, match=r"^\[sim\] init_gap_high = 3\.0 is "
                       r"below the 5\.0 m floor of generated initial gaps$"):
        make_synthetic(1, 0, SimConfig(init_gap_high=3.0), RCFG)


class TestSplit:
    def parts(self, n_eps, rng, min_len=20, max_len=60):
        out = []
        for k in range(n_eps):
            n = int(rng.integers(min_len, max_len))
            out.append(build_transitions(constant_episode(n), CFG, RCFG))
        return out

    def test_20_equal_episodes(self):
        parts = [build_transitions(constant_episode(22), CFG, RCFG)
                 for _ in range(20)]
        train, evl = split_train_eval(parts, 0.95, seed=0)
        assert len(train.provenance) == 19 and len(evl.provenance) == 1

    def test_deterministic(self):
        parts = self.parts(30, np.random.default_rng(2))
        start = 0
        for p in parts:         # each row known by its reward
            p.transitions.rewards[:] = np.arange(start, start + len(p))
            start += len(p)
        t1, e1 = split_train_eval(parts, 0.95, seed=5)
        t2, e2 = split_train_eval(parts, 0.95, seed=5)
        t3, _ = split_train_eval(parts, 0.95, seed=6)
        assert np.array_equal(t1.transitions.rewards, t2.transitions.rewards)
        assert np.array_equal(e1.transitions.rewards, e2.transitions.rewards)
        assert not np.array_equal(t1.transitions.rewards, t3.transitions.rewards)

    def test_share_within_band(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            parts = self.parts(100, rng)
            train, evl = split_train_eval(parts, 0.95, seed=trial)
            total = len(train) + len(evl)
            assert 0.90 <= len(train) / total <= 0.99

    def test_few_episodes_kept_whole(self):
        # fewer than 20 episodes were once cut in two, each episode landing
        # in both shares
        rng = np.random.default_rng(8)
        for n_eps in (3, 5, 19):
            parts = []
            for k in range(n_eps):
                ep = constant_episode(int(rng.integers(20, 120)))
                ep.id = f"ep{k}"
                parts.append(build_transitions(ep, CFG, RCFG))
            train, evl = split_train_eval(parts, 0.95, seed=0)
            assert len(train) > 0 and len(evl) > 0
            assert len(train) + len(evl) == sum(len(p) for p in parts)
            shares = train.provenance + evl.provenance
            assert sorted(shares) == sorted(p.provenance[0] for p in parts)
            assert {eid for eid, _ in train.provenance}.isdisjoint(
                eid for eid, _ in evl.provenance)

    def test_small_frac_keeps_a_train_share(self):
        # 3 episodes of 20 transitions at frac 0.02 once gave 0 train rows
        parts = [build_transitions(constant_episode(22), CFG, RCFG)
                 for _ in range(3)]
        train, evl = split_train_eval(parts, 0.02, seed=0)
        assert len(train) == 20 and len(evl) == 40

    def test_one_episode_rejected(self):
        parts = [build_transitions(constant_episode(100), CFG, RCFG)]
        with pytest.raises(ValueError, match="at least 2 episodes"):
            split_train_eval(parts, 0.95, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_train_eval([], 0.95, seed=0)

    @pytest.mark.parametrize("frac", [0.0, -0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n_eps", [3, 20])
    def test_frac_outside_unit_interval_rejected(self, frac, n_eps):
        # 0 once crashed in merge_parts on an empty train share, and 1.5
        # split 20 episodes 19/1
        parts = [build_transitions(constant_episode(22), CFG, RCFG)
                 for _ in range(n_eps)]
        with pytest.raises(ValueError, match=rf"frac .*\(0, 1\).* {frac}"):
            split_train_eval(parts, frac, seed=0)

    def test_merge_nothing_rejected(self):
        with pytest.raises(ValueError, match="no datasets to merge"):
            merge_parts([])
        with pytest.raises(ValueError, match="no datasets to merge"):
            relabel_episodes([], CFG, RCFG)


class TestHistogram:
    def test_all_optimal_top_bin(self):
        v = 10.0
        ds = build_transitions(constant_episode(30, v=v, gap=v * RCFG.T + RCFG.g_min),
                               CFG, RCFG)
        hist = reward_histogram(ds)
        assert hist["counts"][-2] == len(ds)     # [0.45, 0.5) bin
        assert hist["frac_good"] == 1.0

    def test_all_zero_rewards(self):
        # gap beyond g_lim, no closing, no jerk -> reward exactly 0
        ds = build_transitions(constant_episode(30, v=0.0, gap=150.0), CFG, RCFG)
        hist = reward_histogram(ds)
        assert hist["frac_zero"] == 1.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(4)
        eps = make_synthetic(3, 11, CFG, RCFG)
        ds = relabel_episodes(eps, CFG, RCFG)
        hist = reward_histogram(ds)
        assert int(np.sum(hist["counts"])) == len(ds)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reward_histogram(RelabeledDataset([]))


@pytest.mark.parametrize("n", [0, -2])
def test_make_synthetic_needs_an_episode(n):
    # a count below 1 once returned no episodes without error
    with pytest.raises(ValueError, match=f"n_episodes must be >= 1, got {n}"):
        make_synthetic(n, 0, CFG, RCFG)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -5.0])
def test_make_synthetic_bad_duration_named(duration):
    # nan and inf once died in int(round(...)) naming nothing, and -5 s
    # was reported as the -4.9 s it derived
    with pytest.raises(ValueError, match=re.escape(
            f"duration must be positive and finite, got {duration}")):
        make_synthetic(1, 0, CFG, RCFG, duration=duration)


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        eps = make_synthetic(2, 5, CFG, RCFG)
        ds = relabel_episodes(eps, CFG, RCFG)
        path = str(tmp_path / "store.npz")
        save_transition_store(path, ds)
        back = load_transition_store(path)
        assert len(back) == len(ds)
        for a, b in zip(ds.transitions, back.transitions):
            assert np.array_equal(a.state, b.state)
            assert a.action == b.action and a.reward == b.reward
            assert a.done == b.done

    def test_loaded_rows_share_one_array(self, tmp_path):
        eps = make_synthetic(2, 5, CFG, RCFG)
        path = str(tmp_path / "store.npz")
        save_transition_store(path, relabel_episodes(eps, CFG, RCFG))
        back = load_transition_store(path).transitions
        for field in ("state", "next_state"):
            rows = [getattr(tr, field) for tr in back]
            assert rows[0].base is not None
            assert all(row.base is rows[0].base for row in rows)

    @pytest.mark.parametrize("defect", ["missing member", "short column",
                                        "3-wide states", "NaN reward"])
    def test_broken_store_rejected(self, tmp_path, defect):
        ds = relabel_episodes(make_synthetic(1, 5, CFG, RCFG, duration=5.0),
                              CFG, RCFG)
        assert len(ds) == 49
        save_transition_store(tmp_path / "good.npz", ds)
        with np.load(tmp_path / "good.npz") as data:
            cols = {key: data[key] for key in data.files}
        if defect == "missing member":
            del cols["dones"]
        elif defect == "short column":
            cols["actions"] = cols["actions"][:-5]
        elif defect == "3-wide states":
            cols["states"] = cols["states"][:, :3]
        else:
            cols["rewards"][7] = np.nan
        path = tmp_path / "broken.npz"
        np.savez(path, **cols)
        with pytest.raises(ValueError, match="broken.npz"):
            load_transition_store(path)

    @pytest.mark.parametrize("member, cast", [
        ("dones", lambda col: np.where(col, 1.0, 0.5)),
        ("states", lambda col: col.astype(np.float32))],
        ids=["float dones", "float32 states"])
    def test_column_dtypes_checked(self, tmp_path, member, cast):
        # float dones of 0.5 would bootstrap at half weight in train_step
        ds = relabel_episodes(make_synthetic(1, 5, CFG, RCFG, duration=5.0),
                              CFG, RCFG)
        save_transition_store(tmp_path / "good.npz", ds)
        with np.load(tmp_path / "good.npz") as data:
            cols = {key: data[key] for key in data.files}
        cols[member] = cast(cols[member])
        path = tmp_path / "typed.npz"
        np.savez(path, **cols)
        with pytest.raises(ValueError, match=f"typed.npz: member {member} "):
            load_transition_store(path)

    @pytest.mark.parametrize("defect", ["truncated", "no episodes",
                                        "n_transitions 5", "episode counts"])
    def test_broken_manifest_rejected(self, tmp_path, defect):
        path = tmp_path / "store.npz"
        save_transition_store(path, relabel_episodes(
            make_synthetic(2, 5, CFG, RCFG, duration=10.0), CFG, RCFG))
        manifest = tmp_path / "store.manifest.json"
        text = manifest.read_text()
        data = json.loads(text)
        assert data["n_transitions"] == 198
        if defect == "truncated":
            manifest.write_text(text[:len(text) // 2])
        else:
            if defect == "no episodes":
                del data["episodes"]
            elif defect == "n_transitions 5":
                data["n_transitions"] = 5
            else:
                data["episodes"][0]["transitions"] -= 1
            manifest.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="store.manifest.json: "):
            load_transition_store(path)

    def test_missing_manifest_rejected(self, tmp_path):
        # a store without its manifest once loaded with no provenance
        path = tmp_path / "store.npz"
        save_transition_store(path, relabel_episodes(
            make_synthetic(1, 5, CFG, RCFG, duration=5.0), CFG, RCFG))
        (tmp_path / "store.manifest.json").unlink()
        with pytest.raises(ValueError,
                           match="store.manifest.json: missing manifest"):
            load_transition_store(path)

    @pytest.mark.parametrize("defect", ["truncated", "csv", "bad-crc"])
    def test_unreadable_file_named(self, tmp_path, defect):
        # a store cut in half once raised zipfile.BadZipFile, and a CSV
        # numpy's advice to load it with allow_pickle, neither naming it
        path = tmp_path / "store.npz"
        save_transition_store(path, relabel_episodes(
            make_synthetic(1, 5, CFG, RCFG, duration=5.0), CFG, RCFG))
        raw = path.read_bytes()
        if defect == "truncated":
            path.write_bytes(raw[:len(raw) // 2])
        elif defect == "csv":
            path = tmp_path / "data.csv"
            write_rows(path, ["0.0,5.0,4.0,10.0", "0.1,5.0,4.1,10.0"])
        else:
            # one byte of the first member's array data flipped
            at = raw.index(b"\x93NUMPY") + 200
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a readable .npz transition store (")):
            load_transition_store(path)
        with pytest.raises(FileNotFoundError):
            load_transition_store(tmp_path / "missing.npz")

    def test_save_rejects_non_finite(self, tmp_path):
        ds = relabel_episodes(make_synthetic(1, 5, CFG, RCFG, duration=5.0),
                              CFG, RCFG)
        ds.transitions.rewards[3] = np.nan
        path = tmp_path / "nan.npz"
        with pytest.raises(ValueError, match="nan.npz: non-finite"):
            save_transition_store(path, ds)
        assert not path.exists()

    def test_ingest_glob(self, tmp_path):
        eps = make_synthetic(3, 6, CFG, RCFG)
        for ep in eps:
            write_trajectory_csv(str(tmp_path / f"{ep.id}.csv"), ep)
        parts = ingest(str(tmp_path / "*.csv"), CFG, RCFG)
        assert len(parts) == 3
        assert all(len(p) > 0 for p in parts)

    def test_ingest_names_a_too_short_episode(self, tmp_path):
        # a 2-row file parses, but relabeling needs 3 rows; the error once
        # did not say which episode
        write_rows(tmp_path / "two.csv", ["0.0,5.0,4.0,10.0", "0.1,5.0,4.1,10.0"])
        with pytest.raises(ValueError, match="episode two: 2 rows, too short"):
            ingest(str(tmp_path / "*.csv"), CFG, RCFG)
