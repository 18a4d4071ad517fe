import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lavabridge.env import (
    Cause,
    EnvSettings,
    EpisodeOverError,
    InvalidResetError,
    LavaBridgeEnv,
    Rect,
    State,
    Vec2,
)


def mk_state(px, py, vx=0.0, vy=0.0):
    return np.array([px, py, vx, vy])


def terminal(env, s):
    """``is_terminal`` on a state row, through the ``State`` it takes."""
    return env.is_terminal(State(Vec2(s[0], s[1]), Vec2(s[2], s[3])))


@pytest.fixture
def env():
    return LavaBridgeEnv()


class TestResetTo:
    def test_identity_contract(self, env):
        s = mk_state(1.0, 2.5)
        out = env.reset_to(s)
        assert np.array_equal(out, s)
        assert np.array_equal(env.state, s)
        assert env.steps == 0

    def test_rejects_lava(self, env):
        with pytest.raises(InvalidResetError, match="lava"):
            env.reset_to(mk_state(5.0, 2.0))

    def test_rejects_out_of_bounds(self, env):
        with pytest.raises(InvalidResetError, match="bounds"):
            env.reset_to(mk_state(-0.5, 2.0))

    def test_rejects_overspeed(self, env):
        with pytest.raises(InvalidResetError, match="v_max"):
            env.reset_to(mk_state(1.0, 1.0, 2.5, 0.0))

    def test_rejects_non_finite(self, env):
        with pytest.raises(InvalidResetError, match="finite"):
            env.reset_to(mk_state(float("nan"), 1.0))

    @pytest.mark.parametrize("bad", [np.zeros(3), np.ones((2, 2)), None, "abcd", [1.0, 2.0, "x", 0.0]])
    def test_rejects_malformed(self, env, bad):
        with pytest.raises(InvalidResetError):
            env.reset_to(bad)

    def test_state_equals_reset_row_bitwise(self, env, demo_archive):
        # A demo-state row, a sample_start draw and a row with -0.0 entries
        # all come back from env.state with the same bits.
        rows = [demo_archive.demo_states()[17], env.sample_start("ood", np.random.default_rng(0)),
                mk_state(2.0, 3.0, -0.0, 0.1 + 0.2)]
        for row in rows:
            env.reset_to(row)
            assert env.state.dtype == np.float64
            assert env.state.tobytes() == np.asarray(row, dtype=np.float64).tobytes()

    def test_goal_region_reset_is_allowed(self, env):
        # Only lava and bounds are rejected; goal-adjacent starts just end fast.
        env.reset_to(mk_state(9.0, 5.0))
        assert env.steps == 0

    def test_reset_clears_termination(self, env):
        env.reset_to(mk_state(5.0, 4.6, 0.0, -2.0))
        res = env.step((0.0, 0.0))
        assert res.terminated
        env.reset_to(mk_state(1.0, 2.5))
        assert not env.terminated


class TestSampleStart:
    def test_p0_zero_jitter_hits_means_exactly(self):
        geo = EnvSettings(start_blobs=((Vec2(1.0, 2.5), 0.0), (Vec2(1.0, 7.5), 0.0)))
        env = LavaBridgeEnv(geo)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(40):
            s = env.sample_start("p0", rng)
            assert s.shape == (4,) and s.dtype == np.float64
            assert (s[0], s[1]) in {(1.0, 2.5), (1.0, 7.5)}
            assert (s[2], s[3]) == (0.0, 0.0)
            seen.add(s[1])
        assert seen == {2.5, 7.5}

    def test_ood_zero_jitter_hits_points_exactly(self):
        geo = EnvSettings(ood_jitter=0.0)
        env = LavaBridgeEnv(geo)
        rng = np.random.default_rng(4)
        points = {(p.x, p.y) for p in geo.ood_points}
        for _ in range(60):
            s = env.sample_start("ood", rng)
            assert (s[0], s[1]) in points

    def test_p0_component_frequencies_uniform(self, env):
        # Chi-square oracle on blob counts over 10000 draws.
        rng = np.random.default_rng(5)
        n = 10000
        counts = [0, 0]
        for _ in range(n):
            s = env.sample_start("p0", rng)
            counts[0 if s[1] < 5.0 else 1] += 1
        expected = n / 2
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 9.0  # 3-sigma-equivalent for 1 dof
        sigma = math.sqrt(n * 0.25)
        assert abs(counts[0] - expected) <= 3 * sigma

    def test_draws_avoid_lava_and_bounds(self, env):
        rng = np.random.default_rng(6)
        for which in ("p0", "ood"):
            for _ in range(2000):
                s = env.sample_start(which, rng)
                assert terminal(env, s) is not Cause.LAVA
                assert env.geometry.world.contains(s[0], s[1])

    def test_unknown_distribution_rejected(self, env):
        with pytest.raises(ValueError):
            env.sample_start("train", np.random.default_rng(0))


class TestStep:
    def test_rest_is_fixed_point(self, env):
        s = mk_state(2.0, 2.0)
        env.reset_to(s)
        res = env.step((0.0, 0.0))
        assert np.array_equal(env.state, s)
        assert res.reward == 0.0
        assert res.cause is Cause.NONE
        assert not res.terminated

    def test_lava_entry(self, env):
        # vy' = -2 + 0.2*0.1 = -1.98, y' = 4.6 - 0.198 = 4.402 < 4.5 with x in [4,6].
        env.reset_to(mk_state(5.0, 4.6, 0.0, -2.0))
        res = env.step((0.05, 0.0))
        assert res.cause is Cause.LAVA
        assert res.reward == -1.0
        assert res.terminated

    def test_goal_entry(self, env):
        # vx' = 1 - 0.01 = 0.99, x' = 8.7 + 0.099 = 8.799; distance to goal 0.201 < 0.4.
        env.reset_to(mk_state(8.7, 5.0, 1.0, 0.0))
        res = env.step((0.0, 0.0))
        assert res.cause is Cause.GOAL
        assert res.reward == 1.0
        assert res.terminated

    def test_timeout_at_horizon(self):
        env = LavaBridgeEnv(horizon=5)
        env.reset_to(mk_state(2.0, 2.0))
        for _ in range(4):
            res = env.step((0.0, 0.0))
            assert res.cause is Cause.NONE
        res = env.step((0.0, 0.0))
        assert res.cause is Cause.TIMEOUT
        assert res.reward == 0.0
        assert res.terminated

    def test_step_after_termination_raises(self, env):
        env.reset_to(mk_state(5.0, 4.6, 0.0, -2.0))
        env.step((0.0, 0.0))
        with pytest.raises(EpisodeOverError):
            env.step((0.0, 0.0))

    def test_wall_clamps_and_zeroes_velocity(self, env):
        env.reset_to(mk_state(0.05, 2.0, -2.0, 0.0))
        res = env.step((-1.0, 0.0))
        assert env.state[0] == 0.0
        assert env.state[2] == 0.0
        assert res.cause is Cause.NONE

    def test_force_is_clamped_to_budget(self, env):
        env.reset_to(mk_state(2.0, 2.0))
        big = env.step((50.0, 0.0)), env.snapshot()
        env.reset_to(mk_state(2.0, 2.0))
        unit = env.step((1.0, 0.0)), env.snapshot()
        assert big == unit

    def test_step_result_invariants(self, env):
        rng = np.random.default_rng(7)
        env.reset_to(mk_state(3.5, 5.0))
        while True:
            fx, fy = rng.uniform(-1, 1, size=2)
            res = env.step((fx, fy))
            assert res.terminated == (res.cause is not Cause.NONE)
            if res.reward != 0.0:
                assert res.cause in (Cause.GOAL, Cause.LAVA)
            if res.terminated:
                break


class TestIsTerminal:
    def test_goal_center(self, env):
        assert terminal(env, mk_state(9.0, 5.0)) is Cause.GOAL

    def test_lava_center(self, env):
        rect = env.geometry.lava[0]
        cx, cy = 0.5 * (rect.xmin + rect.xmax), 0.5 * (rect.ymin + rect.ymax)
        assert terminal(env, mk_state(cx, cy)) is Cause.LAVA

    def test_p0_means_non_terminal(self, env):
        for mean, _std in env.geometry.start_blobs:
            assert terminal(env, mk_state(mean.x, mean.y)) is Cause.NONE

    def test_consistency_with_reset(self, env):
        # is_terminal == LAVA exactly when reset_to rejects for the lava reason.
        probes = [mk_state(5.0, 1.0), mk_state(5.0, 9.0), mk_state(5.0, 5.0), mk_state(1.0, 1.0)]
        for s in probes:
            if terminal(env, s) is Cause.LAVA:
                with pytest.raises(InvalidResetError, match="lava"):
                    env.reset_to(s)
            else:
                env.reset_to(s)


class TestDynamicsProperties:
    def test_determinism(self):
        rng = np.random.default_rng(8)
        forces = rng.uniform(-1, 1, size=(100, 2))
        results = []
        for _ in range(2):
            env = LavaBridgeEnv()
            env.reset_to(mk_state(1.0, 7.5))
            traj = []
            for fx, fy in forces:
                res = env.step((float(fx), float(fy)))
                traj.append((env.snapshot(), res.reward, res.cause))
                if res.terminated:
                    break
            results.append(traj)
        assert results[0] == results[1]

    def test_reward_sparsity_over_trajectories(self, env):
        rng = np.random.default_rng(9)
        for _ in range(20):
            env.reset_to(env.sample_start("p0", rng))
            rewards = []
            while True:
                fx, fy = rng.uniform(-1, 1, size=2)
                res = env.step((fx, fy))
                rewards.append(res.reward)
                if res.terminated:
                    break
            assert all(r == 0.0 for r in rewards[:-1])
            if res.cause is Cause.TIMEOUT:
                assert rewards[-1] == 0.0

    def test_velocity_bound_holds(self, env):
        rng = np.random.default_rng(10)
        env.reset_to(mk_state(2.0, 5.0))
        for _ in range(300):
            fx, fy = rng.uniform(-1, 1, size=2)
            res = env.step((fx, fy))
            assert math.hypot(*env.state[2:]) <= env.v_max + 1e-12
            if res.terminated:
                env.reset_to(mk_state(2.0, 5.0))

    def test_drag_dissipates_speed(self, env):
        env.reset_to(mk_state(2.0, 8.0, -1.4, -1.0))
        prev = math.hypot(*env.state[2:])
        for _ in range(100):
            env.step((0.0, 0.0))
            speed = math.hypot(*env.state[2:])
            assert speed <= prev + 1e-12
            prev = speed


class TestStepInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        px=st.floats(0.0, 10.0), py=st.floats(0.0, 10.0),
        speed=st.floats(0.0, 2.0), angle=st.floats(0.0, 2 * math.pi),
        forces=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                        min_size=1, max_size=40),
    )
    def test_speed_and_position_bounded_and_termination_absorbs(self, px, py, speed, angle,
                                                                 forces):
        env = LavaBridgeEnv(horizon=40)
        start = mk_state(px, py, speed * math.cos(angle), speed * math.sin(angle))
        assume(terminal(env, start) is not Cause.LAVA)
        env.reset_to(start)
        world = env.geometry.world
        for k in range(env.horizon):
            fx, fy = forces[k % len(forces)]
            res = env.step((fx, fy))
            px, py, vx, vy = env.state
            # The tolerance reset_to grants, so every next state is a valid reset.
            assert math.hypot(vx, vy) <= env.v_max * (1.0 + 1e-12)
            assert world.xmin <= px <= world.xmax
            assert world.ymin <= py <= world.ymax
            if res.terminated:
                break
        assert env.terminated
        snap = env.snapshot()
        with pytest.raises(EpisodeOverError):
            env.step((0.5, 0.5))
        assert env.snapshot() == snap


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def scalar_step(env, row, force):
    env.reset_to(row)
    res = env.step(force)
    return env.state.tolist(), res.cause


def assert_rows_match_scalar_step(env, rows, forces):
    before = env.snapshot()
    nxt, lava, goal = env.step_batch(np.array(rows, dtype=np.float64).reshape(-1, 4),
                                     np.array(forces, dtype=np.float64).reshape(-1, 2))
    assert env.snapshot() == before  # pure: the env's own state is untouched
    probe = LavaBridgeEnv(env.geometry, horizon=env.horizon)
    for i, (row, force) in enumerate(zip(rows, forces)):
        expected, cause = scalar_step(probe, row, force)
        assert bits(nxt[i]).tolist() == bits(expected).tolist()
        assert (bool(lava[i]), bool(goal[i])) == (cause is Cause.LAVA, cause is Cause.GOAL)


@st.composite
def reset_rows(draw, geo=EnvSettings()):
    """A valid reset state of ``geo``: anywhere, hugging a wall, at a lava edge or near the goal."""
    w, goal, near = geo.world, geo.goal, geo.goal_radius + 0.3
    region = draw(st.sampled_from(["world", "wall", "lava-edge", "goal"] if geo.lava else
                                  ["world", "wall", "goal"]))
    if region == "world":
        px, py = draw(st.floats(w.xmin, w.xmax)), draw(st.floats(w.ymin, w.ymax))
    elif region == "wall":
        px = draw(st.one_of(st.floats(w.xmin, w.xmin + 0.2), st.floats(w.xmax - 0.2, w.xmax)))
        py = draw(st.one_of(st.floats(w.ymin, w.ymin + 0.2), st.floats(w.ymax - 0.2, w.ymax),
                            st.floats(w.ymin, w.ymax)))
    elif region == "lava-edge":
        # Beside the lava's x span, and just outside each edge that faces open world.
        px = draw(st.floats(min(r.xmin for r in geo.lava) - 0.3, max(r.xmax for r in geo.lava) + 0.3))
        edges = [st.floats(r.ymax, r.ymax + 0.3) for r in geo.lava if r.ymax < w.ymax]
        edges += [st.floats(r.ymin - 0.3, r.ymin) for r in geo.lava if r.ymin > w.ymin]
        py = draw(st.one_of(*edges, st.floats(w.ymin, w.ymax)))
    else:
        px, py = draw(st.floats(goal.x - near, goal.x + near)), draw(st.floats(goal.y - near, goal.y + near))
    speed = draw(st.one_of(st.floats(0.0, geo.v_max), st.just(geo.v_max)))
    angle = draw(st.floats(0.0, 2 * math.pi))
    row = (px, py, speed * math.cos(angle), speed * math.sin(angle))
    assume(w.contains(px, py) and not geo.in_lava(px, py))
    return row


class TestStepBatch:
    @settings(max_examples=200, deadline=None)
    @given(data=st.lists(st.tuples(reset_rows(), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))),
                         min_size=1, max_size=24))
    def test_rows_equal_reset_and_step_bitwise(self, data):
        rows, forces = zip(*data)
        assert_rows_match_scalar_step(LavaBridgeEnv(), rows, forces)

    def test_random_batch_covers_every_branch(self, env):
        # 8,000 random valid resets: wall clamps, forces beyond f_max, the speed
        # clip, lava landings and goal landings all occur, and every row matches.
        # Half start at v_max, so thousands of rows take the speed clip, where
        # any norm that rounds differently from step's (np.hypot, say) would
        # show in the last bit of the scaled velocity.
        rng = np.random.default_rng(1)
        n = 12000
        angle = rng.uniform(0, 2 * np.pi, n)
        speed = np.where(np.arange(n) % 2 == 0, env.v_max, rng.uniform(0, env.v_max, n))
        rows = np.stack([rng.uniform(0, 10, n), rng.uniform(0, 10, n),
                         speed * np.cos(angle), speed * np.sin(angle)], axis=1)
        rows = rows[[not env.geometry.in_lava(px, py) for px, py in rows[:, :2]]][:8000]
        near_goal = np.array([[8.5, 5.0, 2.0, 0.0], [9.0, 5.3, 0.0, 0.5]])
        rows = np.concatenate([rows, near_goal])
        forces = rng.uniform(-2.5, 2.5, (len(rows), 2))
        nxt, lava, goal = env.step_batch(rows, forces)
        v = rows[:, 2:] + (np.clip(forces, -1, 1) - env.drag * rows[:, 2:]) * env.dt
        assert (np.abs(forces) > env.f_max).any()
        assert (np.hypot(v[:, 0], v[:, 1]) > env.v_max).any()
        assert ((nxt[:, :2] == 0.0) | (nxt[:, :2] == 10.0)).any()
        assert lava.any() and goal.any() and not (lava & goal).any()
        assert_rows_match_scalar_step(env, rows.tolist(), forces.tolist())

    def test_lava_wins_where_goal_disc_overlaps_lava(self):
        # The goal disc at (6.2, 4.4) reaches into the lower lava strip
        # (x <= 6, y <= 4.5); rows gliding left into the overlap land in lava only.
        geo = EnvSettings(goal=Vec2(6.2, 4.4))
        env = LavaBridgeEnv(geo)
        px, py = np.meshgrid(np.linspace(6.05, 6.7, 14), np.linspace(4.0, 4.9, 19))
        rows = np.stack([px.ravel(), py.ravel(), np.full(px.size, -2.0), np.zeros(px.size)], axis=1)
        forces = np.tile([[-1.0, 0.0]], (len(rows), 1))
        _, lava, goal = env.step_batch(rows, forces)
        assert lava.any() and goal.any()
        assert_rows_match_scalar_step(env, rows.tolist(), forces.tolist())


class TestGeometry:
    def test_default_geometry_validates(self):
        EnvSettings().validate()

    def test_goal_inside_lava_rejected(self):
        with pytest.raises(ValueError, match="goal"):
            EnvSettings(goal=Vec2(5.0, 2.0))

    @pytest.mark.parametrize("kw,match", [
        ({"goal_radius": 0.0}, "goal_radius"),      # an unreachable goal, silently
        ({"goal_radius": -0.4}, "goal_radius"),
        ({"start_blobs": ((Vec2(1.0, 2.5), -0.3),)}, "start_blobs"),  # failed at sample_start
        ({"ood_jitter": -0.15}, "ood_jitter"),
    ])
    def test_bad_goal_radius_or_spread_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            EnvSettings(**kw)

    def test_lava_outside_world_rejected(self):
        from lavabridge.env import Rect
        with pytest.raises(ValueError, match="lava"):
            EnvSettings(lava=(Rect(9.0, 9.0, 11.0, 10.0),))

    def test_geometry_hash_tracks_constants(self):
        a = LavaBridgeEnv()
        b = LavaBridgeEnv()
        c = LavaBridgeEnv(EnvSettings(dt=0.05))
        d = LavaBridgeEnv(EnvSettings(goal_radius=0.5))
        assert a.geometry_hash() == b.geometry_hash()
        assert a.geometry_hash() != c.geometry_hash()
        assert a.geometry_hash() != d.geometry_hash()
        # An int constant stamps archives as its float does.
        assert LavaBridgeEnv(EnvSettings(dt=1, f_max=2)).geometry_hash() == \
            LavaBridgeEnv(EnvSettings(dt=1.0, f_max=2.0)).geometry_hash()


class TestStepBatchChained:
    def test_six_chained_steps_equal_scalar_steps_bitwise(self, env):
        # step_batch fed its own output, as the safety estimator chains it.
        # Rows start at v_max near the walls and anywhere, under forces beyond
        # f_max, so later steps too take the wall clamps and the speed clip.
        # Each row is compared while its scalar episode runs, including the
        # step that ends it.
        rng = np.random.default_rng(3)
        n = 3000
        px = np.where(np.arange(n) % 3 == 0, rng.choice([0.0, 0.2, 9.8, 10.0], n), rng.uniform(0, 10, n))
        py = np.where(np.arange(n) % 3 == 1, rng.choice([0.0, 0.2, 9.8, 10.0], n), rng.uniform(0, 10, n))
        angle = rng.uniform(0, 2 * np.pi, n)
        speed = np.where(np.arange(n) % 2 == 0, env.v_max, rng.uniform(0, env.v_max, n))
        rows = np.stack([px, py, speed * np.cos(angle), speed * np.sin(angle)], axis=1)
        rows = rows[[not (env.geometry.in_lava(x, y) or env.geometry.in_goal(x, y))
                     for x, y in rows[:, :2]]]
        forces = rng.uniform(-2.5, 2.5, (6, len(rows), 2))

        batch = [rows]
        masks = []
        for j in range(6):
            nxt, lava, goal = env.step_batch(batch[-1], forces[j])
            batch.append(nxt)
            masks.append((lava, goal))
        clipped = walled = 0
        probe = LavaBridgeEnv(env.geometry, horizon=env.horizon)
        for i, row in enumerate(rows):
            probe.reset_to(row)
            for j in range(6):
                prev = probe.state
                res = probe.step(forces[j, i].tolist())
                assert bits(batch[j + 1][i]).tolist() == bits(probe.state).tolist()
                lava, goal = masks[j]
                assert (bool(lava[i]), bool(goal[i])) == (res.cause is Cause.LAVA, res.cause is Cause.GOAL)
                if j > 0:
                    f = np.clip(forces[j, i], -env.f_max, env.f_max)
                    v = prev[2:] + (f - env.drag * prev[2:]) * env.dt
                    clipped += math.sqrt(v[0] * v[0] + v[1] * v[1]) > env.v_max
                    walled += bool(np.isin(probe.state[:2], (0.0, 10.0)).any() and 0.0 in probe.state[2:])
                if res.terminated:
                    break
        assert clipped > 100 and walled > 100

    def test_next_states_are_column_major(self, env):
        rows = np.array([[1.0, 2.0, 0.5, 0.0], [3.0, 7.0, 0.0, -1.0]])
        nxt, _, _ = env.step_batch(rows, np.zeros((2, 2)))
        assert nxt.shape == (2, 4) and nxt.flags.f_contiguous
        again, _, _ = env.step_batch(nxt, np.zeros((2, 2)))
        assert again.tobytes() == env.step_batch(np.ascontiguousarray(nxt), np.zeros((2, 2)))[0].tobytes()


class TestTerminalMasks:
    @pytest.mark.parametrize("goal_center", [Vec2(9.0, 5.0), Vec2(6.2, 4.4)], ids=["default", "overlap"])
    def test_masks_equal_scalar_tests_on_edges(self, goal_center):
        # Grid lines through every lava edge and the disc's rim, plus the
        # neighbouring floats on each side of them.
        geo = EnvSettings(goal=goal_center)
        edges = [4.0, 6.0, 4.5, 5.5, 0.0, 10.0,
                 goal_center.x - geo.goal_radius, goal_center.x + geo.goal_radius,
                 goal_center.y - geo.goal_radius, goal_center.y + geo.goal_radius]
        axis = np.unique(np.concatenate([np.linspace(0.0, 10.0, 41), edges,
                                         np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]))
        px, py = (a.ravel() for a in np.meshgrid(axis, axis))
        lava, goal = geo.terminal_masks(px, py)
        expected_lava = [geo.in_lava(x, y) for x, y in zip(px.tolist(), py.tolist())]
        expected_goal = [geo.in_goal(x, y) and not l for x, y, l in zip(px.tolist(), py.tolist(), expected_lava)]
        assert lava.tolist() == expected_lava
        assert goal.tolist() == expected_goal
        assert lava.any() and goal.any() and not (lava & goal).any()

    def test_no_lava(self):
        geo = EnvSettings(lava=())
        lava, goal = geo.terminal_masks(np.array([5.0, 9.0]), np.array([2.0, 5.0]))
        assert lava.tolist() == [False, False] and goal.tolist() == [False, True]


def transition_bits(env, row, force):
    """``transitions`` of the one row ``row`` under ``force``, its state as bits."""
    (px, py, vx, vy, cause), = env.transitions([tuple(row)], [tuple(force)])
    return bits([px, py, vx, vy]).tolist(), cause


# Every constant transitions reads moved off its default: dynamics, world bounds,
# narrower lava and a goal disc that reaches into the lower strip; then no lava.
NARROW = EnvSettings(world=Rect(0.0, 0.0, 10.5, 9.5), dt=0.07, f_max=1.6, v_max=1.4, drag=0.3,
                     goal=Vec2(6.1, 1.1), goal_radius=0.75,
                     lava=(Rect(4.6, 0.0, 5.4, 1.5), Rect(4.6, 3.0, 5.4, 9.5)))
OPEN = replace(NARROW, lava=())


def assert_transitions_match(env, rows, forces):
    """Row i of ``transitions`` equals a one-row ``transitions`` call and row i of
    ``step_batch`` bit for bit, and its cause is the scalar terminal tests at the next
    position."""
    geo = env.geometry
    got = env.transitions(rows, forces)
    nxt, lava, goal = env.step_batch(np.array(rows).reshape(-1, 4), np.array(forces).reshape(-1, 2))
    assert len(got) == len(rows)
    for i, (row, force) in enumerate(zip(rows, forces)):
        *state, cause = got[i]
        assert transition_bits(env, row, force) == (bits(state).tolist(), cause)
        assert bits(nxt[i]).tolist() == bits(state).tolist()
        x, y = state[:2]
        assert cause is (Cause.LAVA if geo.in_lava(x, y) else Cause.GOAL if geo.in_goal(x, y) else Cause.NONE)
        assert (bool(lava[i]), bool(goal[i])) == (cause is Cause.LAVA, cause is Cause.GOAL)
    return got


class TestTransition:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_step_bitwise(self, data):
        env = LavaBridgeEnv(data.draw(st.sampled_from([EnvSettings(), NARROW, OPEN])))
        row = data.draw(reset_rows(env.geometry))
        force = data.draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
        got = transition_bits(env, row, force)
        state, cause = scalar_step(env, row, force)
        assert got == (bits(state).tolist(), cause)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_step_batch_rows_equal_transition(self, data):
        geo = data.draw(st.sampled_from([EnvSettings(), NARROW, OPEN]))
        pairs = data.draw(st.lists(st.tuples(reset_rows(geo), st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))),
                                   min_size=1, max_size=24))
        rows, forces = zip(*pairs)
        assert_transitions_match(LavaBridgeEnv(geo), rows, forces)

    @pytest.mark.parametrize("geo", [NARROW, OPEN], ids=["narrow", "no-lava"])
    def test_random_batch_under_other_settings_covers_every_branch(self, geo):
        # Force clamps, speed clips, wall clamps and, where there is lava, lava
        # landings, goal landings and the lava-wins overlap all occur.
        env = LavaBridgeEnv(geo)
        rng = np.random.default_rng(2)
        n = 6000
        angle = rng.uniform(0, 2 * np.pi, n)
        speed = np.where(np.arange(n) % 2 == 0, geo.v_max, rng.uniform(0, geo.v_max, n))
        w = geo.world
        px = np.concatenate([rng.uniform(w.xmin, w.xmax, n // 2), rng.uniform(4.0, 7.0, n - n // 2)])
        py = np.concatenate([rng.uniform(w.ymin, w.ymax, n // 2), rng.uniform(0.0, 3.5, n - n // 2)])
        rows = np.stack([px, py, speed * np.cos(angle), speed * np.sin(angle)], axis=1)
        rows = rows[[not geo.in_lava(x, y) for x, y in rows[:, :2]]]
        forces = rng.uniform(-2.5, 2.5, (len(rows), 2))
        got = assert_transitions_match(env, [tuple(r) for r in rows.tolist()], forces.tolist())
        causes = [c for *_, c in got]
        nxt = np.array([s for *s, _ in got])
        assert (np.abs(forces) > geo.f_max).any()
        v = rows[:, 2:] + (np.clip(forces, -geo.f_max, geo.f_max) - geo.drag * rows[:, 2:]) * geo.dt
        assert (np.hypot(v[:, 0], v[:, 1]) > geo.v_max).any()
        for lo, hi, p in ((w.xmin, w.xmax, nxt[:, 0]), (w.ymin, w.ymax, nxt[:, 1])):
            assert (p == lo).any() and (p == hi).any()
        assert Cause.GOAL in causes
        if geo.lava:
            overlap = [geo.in_goal(s[0], s[1]) for s, c in zip(nxt, causes) if c is Cause.LAVA]
            assert any(overlap)
        else:
            assert Cause.LAVA not in causes

    def test_no_rows_give_no_rows(self):
        for geo in (EnvSettings(), NARROW, OPEN):
            assert LavaBridgeEnv(geo).transitions([], []) == []

    def test_evaluate_never_resets_snapshots_or_steps_the_env(self, monkeypatch):
        from lavabridge.bench import evaluate
        from lavabridge.learner import LearnerConfig, SACLearner

        env = LavaBridgeEnv(horizon=80)
        env.reset_to(mk_state(2.0, 3.0, 0.5, -0.5))
        env.step((0.3, 0.2))
        before = (env.state.tolist(), env.steps, env.terminated)
        learner = SACLearner(LearnerConfig(), init_rng=np.random.default_rng(0),
                             noise_rng=np.random.default_rng(1))

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluate called a stateful env method")

        for name in ("reset_to", "snapshot", "restore", "step"):
            monkeypatch.setattr(LavaBridgeEnv, name, forbidden)
        for which in ("p0", "ood"):
            evaluate(learner, env, which, 5, 100, 0.99, np.random.default_rng(2))
        monkeypatch.undo()
        assert (env.state.tolist(), env.steps, env.terminated) == before
