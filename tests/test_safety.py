import itertools
import math

import numpy as np
import pytest

from lavabridge.env import EnvSettings, InvalidResetError, LavaBridgeEnv, Vec2
from lavabridge import safety as safety_mod
from lavabridge.safety import (
    SafetyEstimate,
    estimate_safety,
    safety_field,
    save_safety_field_csv,
    uniform_random_policy,
)
from safety_oracle import action_grid, brute_force_safety


def mk_state(px, py, vx=0.0, vy=0.0):
    return np.array([px, py, vx, vy])


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
# 40 states at the lava edges of the bridge mouths, drifting into the lava
# at different speeds: at k=5 half are doomed and most others are fractional.
BRIDGE_40 = [mk_state(4.1 + 0.2 * (i % 10), 4.62 if i < 20 else 5.38,
                      0.0, (-1.0 if i < 20 else 1.0) * (0.2 + 0.4 * (i % 20 // 10) + 0.05 * (i % 3)))
             for i in range(40)]


class TestEstimateSafety:
    def test_far_from_lava_is_fully_safe(self, env):
        # 4 steps at v_max cover at most 0.8; lava is over 2 away.
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, [SAFE], policy, k=4, n=64, rng=np.random.default_rng(0))
        assert est.value.tolist() == [1.0]
        assert est.value.dtype == np.float64
        assert est.n_rollouts == 64 and est.k == 4

    def test_unavoidable_lava_is_fully_unsafe(self, env):
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, [DOOMED], policy, k=2, n=64, rng=np.random.default_rng(1))
        assert est.value.tolist() == [0.0]

    def test_value_times_n_is_integer(self, env):
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, [MIXED], policy, k=2, n=321, rng=np.random.default_rng(2))
        value = float(est.value[0])
        assert 0.0 <= value <= 1.0
        assert abs(value * est.n_rollouts - round(value * est.n_rollouts)) < 1e-9

    def test_determinism_per_seed(self, env):
        policy = uniform_random_policy(env.f_max)
        a = estimate_safety(env, [MIXED], policy, k=3, n=128, rng=np.random.default_rng(3))
        b = estimate_safety(env, [MIXED], policy, k=3, n=128, rng=np.random.default_rng(3))
        assert np.array_equal(a.value, b.value)
        assert (a.n_rollouts, a.k) == (b.n_rollouts, b.k)

    def test_monotone_in_horizon(self, env):
        # Same seed means nested rollouts, so unsafe events only accumulate.
        # 40 states x 128 rollouts span three blocks of rollout rows.
        policy = uniform_random_policy(env.f_max)
        for states, n in (([MIXED], 256), (BRIDGE_40, 128)):
            values = [
                estimate_safety(env, states, policy, k=k, n=n, rng=np.random.default_rng(4)).value
                for k in range(1, 6)
            ]
            assert all(np.all(a >= b) for a, b in zip(values, values[1:]))
            assert values[0].shape == (len(states),)
        assert ((0.0 < values[-1]) & (values[-1] < 1.0)).sum() >= 10  # fractional, not 0/1

    def test_block_layout_is_deterministic_per_state_list(self, env):
        # Rows of a state depend on its block's stream, not on later blocks:
        # the first block's estimates match with or without the states after it.
        policy = uniform_random_policy(env.f_max)
        per_block = safety_mod._BLOCK_ROWS // 128
        whole = estimate_safety(env, BRIDGE_40, policy, k=4, n=128, rng=np.random.default_rng(5))
        head = estimate_safety(env, BRIDGE_40[:per_block], policy, k=4, n=128,
                               rng=np.random.default_rng(5))
        assert np.array_equal(whole.value[:per_block], head.value)

    def test_goal_absorbs_even_next_to_lava(self):
        # With a 0.1 goal disc at (6.15, 2.0) beside the lower lava strip, a
        # rollout gliding left enters the goal near x = 6.15 and would be in
        # lava (x <= 6) after one more step: the goal must end it, as the
        # oracle says.
        env = LavaBridgeEnv(EnvSettings(goal=Vec2(6.15, 2.0), goal_radius=0.1))
        s = mk_state(6.35, 2.0, -2.0, 0.0)
        assert brute_force_safety(env, s, k=3, grid=3) == 1.0
        # SAFE keeps rows of the block running after the goal rows have ended.
        est = estimate_safety(env, [s, SAFE], uniform_random_policy(env.f_max), k=3, n=64,
                              rng=np.random.default_rng(11))
        assert est.value.tolist() == [1.0, 1.0]

    def test_validation_precedes_any_rollout(self, env):
        def policy(states, rng):
            raise AssertionError("policy called before every state was validated")

        with pytest.raises(ValueError, match="terminal"):
            estimate_safety(env, [SAFE, mk_state(9.0, 5.0)], policy, k=2, n=8,
                            rng=np.random.default_rng(6))
        for bad in (mk_state(float("nan"), 1.0), mk_state(11.0, 1.0), mk_state(1.0, 1.0, 3.0, 0.0)):
            with pytest.raises(InvalidResetError):
                estimate_safety(env, [SAFE, bad], policy, k=2, n=8, rng=np.random.default_rng(6))

    def test_malformed_row_rejected(self, env):
        for bad in (np.zeros(3), [1.0, 1.0, 0.0, None]):
            with pytest.raises(InvalidResetError):
                estimate_safety(env, [SAFE, bad], uniform_random_policy(1.0), k=2, n=8,
                                rng=np.random.default_rng(6))

    def test_estimates_compare_without_raising(self, env):
        policy = uniform_random_policy(env.f_max)
        a = estimate_safety(env, [SAFE, MIXED], policy, k=2, n=8, rng=np.random.default_rng(6))
        b = estimate_safety(env, [SAFE, MIXED], policy, k=2, n=8, rng=np.random.default_rng(6))
        assert (a == b) is False and (a == a) is True  # identity, not field-wise
        assert np.array_equal(a.value, b.value)

    def test_empty_state_list(self, env):
        est = estimate_safety(env, [], uniform_random_policy(1.0), k=2, n=8,
                              rng=np.random.default_rng(6))
        assert est.value.shape == (0,)

    def test_caller_env_state_untouched(self, env):
        env.reset_to(mk_state(2.0, 2.0))
        env.step((0.5, 0.5))
        before = env.snapshot()
        estimate_safety(env, [MIXED, SAFE], uniform_random_policy(env.f_max), k=3, n=32,
                        rng=np.random.default_rng(5))
        assert env.snapshot() == before
        with pytest.raises(InvalidResetError):
            estimate_safety(env, [MIXED, mk_state(11.0, 1.0)], uniform_random_policy(env.f_max),
                            k=3, n=32, rng=np.random.default_rng(5))
        assert env.snapshot() == before

    def test_terminal_state_rejected(self, env):
        with pytest.raises(ValueError, match="terminal"):
            estimate_safety(env, [mk_state(9.0, 5.0)], uniform_random_policy(1.0), k=2, n=8,
                            rng=np.random.default_rng(6))

    def test_bad_horizon_rejected(self, env):
        with pytest.raises(ValueError, match="k"):
            estimate_safety(env, [SAFE], uniform_random_policy(1.0), k=0, n=8,
                            rng=np.random.default_rng(7))

    def test_goal_counts_safe_by_default(self, env):
        # Gliding into the goal disc terminates every rollout at the goal:
        # from distance 0.5 at full speed, step one covers ~0.19-0.20 for any
        # admissible force, landing inside the 0.4 radius.
        s = mk_state(8.5, 5.0, 2.0, 0.0)
        policy = uniform_random_policy(env.f_max)
        est = estimate_safety(env, [s], policy, k=2, n=64, rng=np.random.default_rng(8))
        assert est.value.tolist() == [1.0]


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
        # must agree with the depth-first oracle exactly, state by state:
        # one call over 625 copies of a probe, n=1, where step j's call
        # replays the j-th force of every sequence.
        probes = [MIXED, SAFE, DOOMED, mk_state(4.4, 5.35, 0.1, 0.7), mk_state(5.6, 5.2, -0.3, 0.5)]
        lattice = action_grid(5, env.f_max).tolist()
        sequences = np.array(list(itertools.product(lattice, repeat=2)))
        assert sequences.shape == (625, 2, 2)

        def replay():
            calls = iter(range(2))
            return lambda states, rng: sequences[:, next(calls)]

        for s in probes:
            expected = brute_force_safety(env, s, k=2, grid=5)
            est = estimate_safety(env, [s] * len(sequences), replay(), k=2, n=1,
                                  rng=np.random.default_rng(0))
            assert est.value.sum() / len(sequences) == expected

    def test_mc_with_grid_policy_converges_to_oracle(self, env):
        forces = action_grid(5, env.f_max)
        policy = lambda states, rng: forces[rng.integers(len(forces), size=len(states))]
        exact = brute_force_safety(env, MIXED, k=2, grid=5)
        n = 4096
        est = estimate_safety(env, [MIXED], policy, k=2, n=n, rng=np.random.default_rng(9))
        sigma = math.sqrt(max(exact * (1 - exact), 1.0 / n) / n)
        assert abs(est.value[0] - exact) <= 3 * sigma

    def test_uniform_mc_k4_matches_grid_oracle(self, env):
        # Module-level cross-check at the safety-sampler horizon.
        s = mk_state(5.0, 4.85, 0.0, -0.6)
        exact = brute_force_safety(env, s, k=4, grid=3)
        est = estimate_safety(env, [s], uniform_random_policy(env.f_max), k=4, n=1024,
                              rng=np.random.default_rng(10))
        value = float(est.value[0])
        pooled = min(max(0.5 * (exact + value), 1.0 / 1024), 1 - 1.0 / 1024)
        sigma = math.sqrt(pooled * (1 - pooled) * (1.0 / 1024 + 1.0 / 6561))
        assert abs(value - exact) <= 3 * sigma

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
        assert acts.shape == (4, 2)
        xs = sorted(set(acts[:, 0].tolist()))
        assert xs == [-0.5, 0.5]
        # fx outer, fy inner: the depth-first oracle enumerates in this order.
        assert acts.tolist() == [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]]

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

    @pytest.mark.parametrize("kw", [dict(nx=0), dict(ny=0), dict(nx=-1, ny=3), dict(k=0), dict(n=0)])
    def test_bad_grid_or_budget_rejected(self, env, kw):
        args = dict(k=2, n=8, nx=3, ny=3) | kw
        with pytest.raises(ValueError):
            safety_field(env, rng=np.random.default_rng(13), **args)
