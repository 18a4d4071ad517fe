import numpy as np
import pytest

from lavabridge.demos import (
    ArchiveFormatError,
    generate_demos,
    load_archive,
    save_archive,
    scripted_expert,
    subsample_states,
)
from lavabridge.env import Cause, LavaBridgeEnv


def mk_state(px, py, vx=0.0, vy=0.0):
    return np.array([px, py, vx, vy])


class TestScriptedExpert:
    def test_force_points_at_goal_near_final_waypoint(self):
        env = LavaBridgeEnv()
        s = mk_state(7.0, 5.0)  # past the bridge exit, at rest
        fx, fy = scripted_expert(s, env.geometry)
        assert fx > 0
        assert fy == 0.0

    def test_hundred_episodes_all_reach_goal_without_lava(self):
        # Validates the controller gains: 100/100 goal terminations, zero lava.
        env = LavaBridgeEnv()
        rng = np.random.default_rng(123)
        causes = []
        for _ in range(100):
            env.reset_to(env.sample_start("p0", rng))
            while True:
                res = env.step(scripted_expert(env.state, env.geometry))
                assert res.cause is not Cause.LAVA
                if res.terminated:
                    causes.append(res.cause)
                    break
        assert causes == [Cause.GOAL] * 100

    def test_expert_stays_clear_of_lava_margin(self):
        env = LavaBridgeEnv()
        rng = np.random.default_rng(321)
        for _ in range(20):
            env.reset_to(env.sample_start("p0", rng))
            while True:
                res = env.step(scripted_expert(env.state, env.geometry))
                px, py = env.state[:2]
                if 4.0 <= px <= 6.0:
                    assert 4.55 < py < 5.45  # crosses centrally, not hugging lava
                if res.terminated:
                    break


class TestGenerateDemos:
    def test_exact_count_and_trajectory_range(self, demo_archive):
        assert demo_archive.n_transitions == 400
        assert 2 <= len(demo_archive.trajectories) <= 6

    def test_500_transitions_span_about_three_trajectories(self):
        env = LavaBridgeEnv()
        archive = generate_demos(env, n_transitions=500, seed=11)
        assert archive.n_transitions == 500
        assert 2 <= len(archive.trajectories) <= 6

    def test_every_trajectory_ends_at_goal(self, demo_archive):
        states, actions, rewards, next_states, dones = demo_archive.transition_arrays()
        ends = np.cumsum([len(t) for t in demo_archive.trajectories]) - 1
        assert np.flatnonzero(dones).tolist() == ends.tolist()
        assert np.all(rewards[ends] == 1.0)
        assert np.all(np.delete(rewards, ends) == 0.0)
        env = LavaBridgeEnv()
        for traj in demo_archive.trajectories:
            assert traj.states.shape == (len(traj) + 1, 4)
            assert traj.actions.shape == (len(traj), 2) and traj.rewards.shape == (len(traj),)
            assert env.geometry.in_goal(*traj.states[-1, :2])
            assert not any(env.geometry.in_goal(px, py) for px, py in traj.states[:-1, :2])

    def test_all_states_pass_reset(self, demo_archive):
        env = LavaBridgeEnv()
        for s in demo_archive.demo_states():
            env.reset_to(s)

    def test_zero_transitions_rejected(self):
        with pytest.raises(ValueError):
            generate_demos(LavaBridgeEnv(), n_transitions=0, seed=0)

    def test_unsafe_gains_abort(self, monkeypatch):
        # Expert that dives straight into the bridge at full force fails fast.
        import lavabridge.demos as demos_mod

        def reckless(state, settings):
            return 1.0, 0.5 if state[1] < 5 else -0.5

        monkeypatch.setattr(demos_mod, "scripted_expert", reckless)
        with pytest.raises(RuntimeError, match="unsafe"):
            demos_mod.generate_demos(LavaBridgeEnv(), n_transitions=200, seed=0)

    def test_deterministic_per_seed(self):
        env = LavaBridgeEnv()
        a = generate_demos(env, n_transitions=120, seed=5)
        b = generate_demos(env, n_transitions=120, seed=5)
        assert a == b


class TestSubsampleStates:
    def test_full_subset_is_identity_order(self, demo_archive):
        demo = demo_archive.demo_states()
        sub = subsample_states(demo_archive, demo_archive.n_transitions, seed=1)
        assert np.array_equal(sub, demo)

    def test_150_unique_states(self, demo_archive):
        sub = subsample_states(demo_archive, 150, seed=2)
        assert len(sub) == 150
        assert len(np.unique(sub, axis=0)) == 150

    def test_oversized_subset_rejected(self, demo_archive):
        with pytest.raises(ValueError):
            subsample_states(demo_archive, demo_archive.n_transitions + 1, seed=0)

    def test_seeds_give_different_subsets(self, demo_archive):
        subs = [subsample_states(demo_archive, 50, seed=s).tobytes() for s in range(10)]
        assert len(set(subs)) == 10

    def test_same_seed_is_stable(self, demo_archive):
        a = subsample_states(demo_archive, 50, seed=3)
        b = subsample_states(demo_archive, 50, seed=3)
        assert np.array_equal(a, b)

    def test_subsampling_is_roughly_uniform(self, demo_archive):
        # Frequency oracle: each flattened index should appear in ~m/n of subsets.
        n = demo_archive.n_transitions
        m = 100
        draws = 200
        counts = np.zeros(n)
        demo = demo_archive.demo_states()
        index_of = {s.tobytes(): i for i, s in enumerate(demo)}
        for seed in range(draws):
            for s in subsample_states(demo_archive, m, seed=seed):
                counts[index_of[s.tobytes()]] += 1
        p = m / n
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 5 * sigma)


class TestArchiveIO:
    def test_round_trip_bit_identical(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        loaded = load_archive(path)
        assert loaded == demo_archive

    def test_early_done_flag_rejected(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5][:-1] + "1"  # a mid-trajectory row claims done
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveFormatError, match="early done"):
            load_archive(path)

    def test_no_episodes_rejected(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        header = [ln for ln in path.read_text().splitlines() if not ln[0].isdigit()]
        path.write_text("\n".join(header).replace("= 400", "= 0") + "\n")
        with pytest.raises(ArchiveFormatError, match="no episodes"):
            load_archive(path)

    def test_geometry_hash_checked(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        load_archive(path, expected_geometry_hash=demo_archive.geometry_hash)
        with pytest.raises(ArchiveFormatError, match="geometry"):
            load_archive(path, expected_geometry_hash="deadbeef")

    def test_truncated_file_names_episode(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ArchiveFormatError):
            load_archive(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "demos.csv"
        path.write_text("episode,t,px,py\n0,0,1,1\n")
        with pytest.raises(ArchiveFormatError, match="header"):
            load_archive(path)

    def test_malformed_row_names_line(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace(",", ";", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveFormatError, match="line 6"):
            load_archive(path)

    def test_metadata_count_checked(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        text = path.read_text().replace("# transitions = 400", "# transitions = 999")
        path.write_text(text)
        with pytest.raises(ArchiveFormatError, match="999"):
            load_archive(path)

    def test_non_integer_transition_count_rejected(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        path.write_text(path.read_text().replace("# transitions = 400", "# transitions = many"))
        with pytest.raises(ArchiveFormatError, match="transitions = 'many'"):
            load_archive(path)

    def test_non_integer_seed_rejected(self, demo_archive, tmp_path):
        path = tmp_path / "demos.csv"
        save_archive(demo_archive, path)
        text = path.read_text()
        path.write_text(text.replace(f"# seed = {demo_archive.seed}", "# seed = abc"))
        with pytest.raises(ArchiveFormatError, match="seed = 'abc'"):
            load_archive(path)
        lines = [ln for ln in text.splitlines() if not ln.startswith("# seed")]
        path.write_text("\n".join(lines) + "\n")
        assert load_archive(path).seed == -1
