import itertools
import math

import numpy as np
import pytest

from lavabridge.env import Action, Cause, LavaBridgeEnv, State, Vec2
from lavabridge.safety import (
    SafetyEstimate,
    action_grid,
    brute_force_safety,
    estimate_safety,
    safety_field,
    save_safety_field_csv,
    uniform_random_policy,
)


def mk_state(px, py, vx=0.0, vy=0.0):
    return State(Vec2(px, py), Vec2(vx, vy))


@pytest.fixture
def env():
    return LavaBridgeEnv()


# Deep in the inbound lava funnel: from (5, 4.7) at full downward speed even
# maximal braking leaves y below 4.5 by step 2, for every action sequence.
DOOMED = mk_state(5.0, 4.7, 0.0, -2.0)
# At rest in the middle of the left region, many steps from any lava.
SAFE = mk_state(1.5, 2.0)
# Drifting toward the lower lava edge: some 2-step sequences escape, some not.
MIXED = mk_state(5.0, 4.67, 0.0, -0.75)


class TestEstimateSafety:
    def test_far_from_lava_is_fully_safe(self, env):
        # 4 steps at v_max cover at most 0.8; lava is over 2 away.
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, SAFE, policy, k=4, n=64, rng=np.random.default_rng(0))
        assert est.value == 1.0
        assert est.n_rollouts == 64 and est.k == 4

    def test_unavoidable_lava_is_fully_unsafe(self, env):
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, DOOMED, policy, k=2, n=64, rng=np.random.default_rng(1))
        assert est.value == 0.0

    def test_value_times_n_is_integer(self, env):
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, MIXED, policy, k=2, n=321, rng=np.random.default_rng(2))
        assert 0.0 <= est.value <= 1.0
        assert abs(est.value * est.n_rollouts - round(est.value * est.n_rollouts)) < 1e-9

    def test_determinism_per_seed(self, env):
        policy = uniform_random_policy(env.f_max)
        a = estimate_safety(env, MIXED, policy, k=3, n=128, rng=np.random.default_rng(3))
        b = estimate_safety(env, MIXED, policy, k=3, n=128, rng=np.random.default_rng(3))
        assert a == b

    def test_monotone_in_horizon(self, env):
        # Same seed means nested rollouts, so unsafe events only accumulate.
        policy = uniform_random_policy(env.f_max)
        values = [
            estimate_safety(env, MIXED, policy, k=k, n=256, rng=np.random.default_rng(4)).value
            for k in range(1, 6)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_caller_env_state_untouched(self, env):
        env.reset_to(mk_state(2.0, 2.0))
        env.step(Action(Vec2(0.5, 0.5)))
        before = env.snapshot()
        estimate_safety(env, MIXED, uniform_random_policy(env.f_max), k=3, n=32,
                        rng=np.random.default_rng(5))
        assert env.snapshot() == before

    def test_terminal_state_rejected(self, env):
        with pytest.raises(ValueError, match="terminal"):
            estimate_safety(env, mk_state(9.0, 5.0), uniform_random_policy(1.0), k=2, n=8,
                            rng=np.random.default_rng(6))

    def test_bad_horizon_rejected(self, env):
        with pytest.raises(ValueError, match="k"):
            estimate_safety(env, SAFE, uniform_random_policy(1.0), k=0, n=8,
                            rng=np.random.default_rng(7))

    def test_goal_counts_safe_by_default(self, env):
        # Gliding into the goal disc terminates every rollout at the goal:
        # from distance 0.5 at full speed, step one covers ~0.19-0.20 for any
        # admissible force, landing inside the 0.4 radius.
        s = mk_state(8.5, 5.0, 2.0, 0.0)
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, s, policy, k=2, n=64, rng=np.random.default_rng(8))
        assert est.value == 1.0
        flipped = estimate_safety(env, s, policy, k=2, n=64, rng=np.random.default_rng(8),
                                  goal_unsafe=True)
        assert flipped.value == 0.0


class TestBruteForce:
    def test_open_space_trivial(self, env):
        assert brute_force_safety(env, SAFE, k=2, grid=3) == 1.0

    def test_enclosed_state_zero(self, env):
        assert brute_force_safety(env, DOOMED, k=2, grid=3) == 0.0

    def test_mid_bridge_fraction_strictly_inside(self, env):
        value = brute_force_safety(env, MIXED, k=2, grid=5)
        assert 0.0 < value < 1.0

    def test_exhaustive_estimate_matches_exactly(self, env):
        # The rollout estimator, run once on every lattice action sequence,
        # must agree with the depth-first oracle exactly, state by state.
        probes = [MIXED, SAFE, DOOMED, mk_state(4.4, 5.35, 0.1, 0.7), mk_state(5.6, 5.2, -0.3, 0.5)]
        sequences = list(itertools.product(action_grid(5, env.f_max), repeat=2))
        assert len(sequences) == 625

        def replay(seq):
            it = iter(seq)
            return lambda state, rng: next(it)

        for s in probes:
            expected = brute_force_safety(env, s, k=2, grid=5)
            safe = sum(
                estimate_safety(env, s, replay(seq), k=2, n=1, rng=np.random.default_rng(0)).value
                for seq in sequences
            )
            assert safe / len(sequences) == expected

    def test_mc_with_grid_policy_converges_to_oracle(self, env):
        actions = action_grid(5, env.f_max)
        policy = lambda state, rng: actions[int(rng.integers(len(actions)))]
        exact = brute_force_safety(env, MIXED, k=2, grid=5)
        n = 4096
        est = estimate_safety(env, MIXED, policy, k=2, n=n, rng=np.random.default_rng(9))
        sigma = math.sqrt(max(exact * (1 - exact), 1.0 / n) / n)
        assert abs(est.value - exact) <= 3 * sigma

    def test_uniform_mc_k4_matches_grid_oracle(self, env):
        # Module-level cross-check at the safety-sampler horizon.
        s = mk_state(5.0, 4.85, 0.0, -0.6)
        exact = brute_force_safety(env, s, k=4, grid=3)
        est = estimate_safety(env, s, uniform_random_policy(env.f_max), k=4, n=1024,
                              rng=np.random.default_rng(10))
        pooled = min(max(0.5 * (exact + est.value), 1.0 / 1024), 1 - 1.0 / 1024)
        sigma = math.sqrt(pooled * (1 - pooled) * (1.0 / 1024 + 1.0 / 6561))
        assert abs(est.value - exact) <= 3 * sigma

    def test_cost_guard(self, env):
        with pytest.raises(ValueError, match="guard"):
            brute_force_safety(env, SAFE, k=4, grid=10)  # 1e8 sequences

    def test_terminal_state_rejected(self, env):
        with pytest.raises(ValueError, match="terminal"):
            brute_force_safety(env, mk_state(5.0, 2.0), k=2, grid=3)

    def test_env_restored(self, env):
        env.reset_to(mk_state(3.0, 3.0))
        before = env.snapshot()
        brute_force_safety(env, MIXED, k=2, grid=3)
        assert env.snapshot() == before


class TestActionGrid:
    def test_cell_centers(self):
        acts = action_grid(2, 1.0)
        assert len(acts) == 4
        xs = sorted({a.force.x for a in acts})
        assert xs == [-0.5, 0.5]

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            action_grid(1, 1.0)


class TestSafetyField:
    def test_field_shape_and_terminal_cells(self, env, tmp_path):
        rows = safety_field(env, k=2, n=8, rng=np.random.default_rng(12), nx=11, ny=11)
        assert len(rows) == 121
        by_pos = {(px, py): om for px, py, om in rows}
        assert by_pos[(5.0, 2.0)] == 0.0   # lava cell
        assert by_pos[(9.0, 5.0)] == 1.0   # goal cell
        assert all(0.0 <= om <= 1.0 for _, _, om in rows)
        out = tmp_path / "field.csv"
        save_safety_field_csv(out, rows)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "px,py,omega"
        assert len(lines) == 122
