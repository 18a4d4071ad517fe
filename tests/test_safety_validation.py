"""The estimator's input check, against the per-state loop it replaced.

``estimate_safety`` checks all of its start states in one array pass before
any rollout. These tests hold it to ``safety_oracle.validate_states_loop``:
the same exception type and message for the first bad row, no policy call,
no draw from the caller's rng and no touch of the caller's env.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lavabridge import safety
from lavabridge.env import EnvSettings, InvalidResetError, LavaBridgeEnv, Vec2
from lavabridge.safety import estimate_safety, safety_field, uniform_random_policy
from safety_oracle import scalar_reset_check, validate_states_loop

BAD_KINDS = ("nan", "inf", "-inf", "ulp-outside", "lava-edge", "goal", "overspeed")


def valid_rows(env: LavaBridgeEnv, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` valid, non-terminal start states: anywhere open, any speed up to ``v_max``."""
    rows = []
    while len(rows) < n:
        px, py = rng.uniform(0.0, 10.0, 2).tolist()
        if env.geometry.in_lava(px, py) or env.geometry.in_goal(px, py):
            continue
        speed, angle = env.v_max * rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * np.pi)
        rows.append([px, py, speed * np.cos(angle), speed * np.sin(angle)])
    return np.array(rows).reshape(n, 4)


def bad_row(env: LavaBridgeEnv, kind: str, row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``row`` broken in one way: non-finite, just outside, terminal or just too fast."""
    row = row.copy()
    world = env.geometry.world
    if kind in ("nan", "inf", "-inf"):
        row[rng.integers(4)] = float(kind)
    elif kind == "ulp-outside":
        axis = int(rng.integers(2))
        lo, hi = (world.xmin, world.xmax) if axis == 0 else (world.ymin, world.ymax)
        row[axis] = np.nextafter(lo, -np.inf) if rng.integers(2) else np.nextafter(hi, np.inf)
    elif kind == "lava-edge":
        rect = env.geometry.lava[int(rng.integers(len(env.geometry.lava)))]
        if rng.integers(2):
            row[:2] = (rect.xmin, rect.xmax)[rng.integers(2)], rng.uniform(rect.ymin, rect.ymax)
        else:
            row[:2] = rng.uniform(rect.xmin, rect.xmax), (rect.ymin, rect.ymax)[rng.integers(2)]
    elif kind == "goal":
        r, angle = env.geometry.goal_radius * rng.uniform(0.0, 0.99), rng.uniform(0.0, 2 * np.pi)
        row[:2] = env.geometry.goal.x + r * np.cos(angle), env.geometry.goal.y + r * np.sin(angle)
    elif kind == "overspeed":
        angle = rng.uniform(0.0, 2 * np.pi)
        speed = env.v_max * (1.0 + 2e-12)
        row[2:] = speed * np.cos(angle), speed * np.sin(angle)
    else:
        raise ValueError(kind)
    return row


def oracle_error(env, states) -> Exception:
    with pytest.raises(ValueError) as info:
        validate_states_loop(env, states)
    return info.value


def never_called(states, rng):
    raise AssertionError("policy called before every state was validated")


class TestValidationOracle:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 24), where=st.floats(0.0, 1.0),
           kind=st.sampled_from(BAD_KINDS), later=st.none() | st.sampled_from(BAD_KINDS))
    def test_first_bad_row_raises_as_the_loop_did(self, seed, size, where, kind, later):
        # One bad row at a drawn index, and optionally a second bad row after
        # it: the first one decides the exception, as in the row-by-row loop.
        env = LavaBridgeEnv()
        data_rng = np.random.default_rng(seed)
        rows = valid_rows(env, data_rng, size)
        i = min(int(where * size), size - 1)
        rows[i] = bad_row(env, kind, rows[i], data_rng)
        if later is not None and i + 1 < size:
            rows[-1] = bad_row(env, later, rows[-1], data_rng)
        expected = oracle_error(env, rows)

        env.reset_to(valid_rows(env, data_rng, 1)[0])
        env.step((0.3, -0.2))
        snap = env.snapshot()
        rng = np.random.default_rng(seed)
        rng_state = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            estimate_safety(env, rows, never_called, k=3, n=4, rng=rng)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
        assert rng.bit_generator.state == rng_state
        assert env.snapshot() == snap

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.none() | st.sampled_from(BAD_KINDS))
    def test_reset_to_and_check_states_raise_as_the_scalar_rules(self, seed, kind):
        env = LavaBridgeEnv()
        data_rng = np.random.default_rng(seed)
        row = valid_rows(env, data_rng, 1)[0]
        if kind is not None:
            row = bad_row(env, kind, row, data_rng)
        try:
            scalar_reset_check(env, row)
            expected = None
        except InvalidResetError as exc:
            expected = str(exc)
        for check in (env.reset_to, lambda r: env.check_states(r[None])):
            if expected is None:
                check(row)
            else:
                with pytest.raises(InvalidResetError) as info:
                    check(row)
                assert str(info.value) == expected

    def test_valid_states_pass_and_env_is_never_reset(self, monkeypatch):
        env = LavaBridgeEnv()
        rows = valid_rows(env, np.random.default_rng(0), 50)
        validate_states_loop(env, rows)

        def forbidden(*args):
            raise AssertionError("estimate_safety reset the caller's env")

        monkeypatch.setattr(env, "reset_to", forbidden)
        monkeypatch.setattr(env, "restore", forbidden)
        est = estimate_safety(env, rows, uniform_random_policy(env.f_max), k=2, n=4,
                              rng=np.random.default_rng(1))
        assert est.value.shape == (50,)

    def test_huge_finite_entries_raise_without_a_warning(self):
        # Squares of 1e200 overflow to inf; the scalar rules let Python floats
        # do that silently, and the array check must not warn either.
        env = LavaBridgeEnv()
        for row in ([1e200, 1.0, 0.0, 0.0], [1.0, 1.0, 1e200, -1e200]):
            rows = np.array([[1.0, 1.0, 0.0, 0.0], row])
            expected = oracle_error(env, rows)
            with pytest.raises(InvalidResetError) as info:
                estimate_safety(env, rows, never_called, k=2, n=4, rng=np.random.default_rng(0))
            assert str(info.value) == str(expected)


class TestStatesShape:
    @pytest.mark.parametrize("states, shape", [
        (np.array([1.0, 1.0, 0.0, 0.0]), "(4,)"),
        (np.array([1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0]), "(8,)"),
        (np.ones((2, 2, 4)), "(2, 2, 4)"),
        (np.ones((3, 5)), "(3, 5)"),
    ])
    def test_states_not_s_by_4_rejected(self, states, shape):
        env = LavaBridgeEnv()
        with pytest.raises(InvalidResetError, match=rf"shape \({shape[1:-1]}\)"):
            estimate_safety(env, states, never_called, k=2, n=4, rng=np.random.default_rng(0))
        with pytest.raises(InvalidResetError, match="shape"):
            env.check_states(states)

    def test_empty_inputs_give_empty_estimates(self):
        env = LavaBridgeEnv()
        for states in ([], np.empty((0, 4))):
            est = estimate_safety(env, states, never_called, k=2, n=4, rng=np.random.default_rng(0))
            assert est.value.shape == (0,)
            assert env.check_states(states).shape == (0, 4)

    def test_non_numeric_states_rejected(self):
        env = LavaBridgeEnv()
        for states in ("abcd", [[1.0, 1.0, 0.0, 0.0], [1.0, 2.0]]):
            with pytest.raises(InvalidResetError, match="not an array of numbers"):
                estimate_safety(env, states, never_called, k=2, n=4, rng=np.random.default_rng(0))


class TestFieldCells:
    @pytest.mark.parametrize("geometry", [EnvSettings(), EnvSettings(goal=Vec2(6.2, 4.4))],
                             ids=["default", "goal-overlaps-lava"])
    @pytest.mark.parametrize("size", [21, 41])
    def test_cells_classified_as_the_scalar_tests(self, monkeypatch, geometry, size):
        # The 21 x 21 and 41 x 41 grids put cells exactly on x = 4, 6 and
        # y = 4.5, 5.5, the closed edges of the lava rectangles.
        env = LavaBridgeEnv(geometry)
        estimated = []

        def recorder(env_, states, policy, k, n, rng):
            estimated.append(np.array(states))
            return safety.SafetyEstimate(value=np.full(len(states), 0.5), n_rollouts=n, k=k)

        monkeypatch.setattr(safety, "estimate_safety", recorder)
        rows = safety_field(env, k=2, n=4, rng=np.random.default_rng(0), nx=size, ny=size)
        xs = np.linspace(0.0, 10.0, size).tolist()
        assert {4.0, 6.0} <= set(xs) and {4.5, 5.5} <= set(xs)
        open_cells = []
        for (px, py, omega), (ex, ey) in zip(rows, [(x, y) for y in xs for x in xs]):
            assert (px, py) == (ex, ey)
            if geometry.in_lava(px, py):
                assert omega == 0.0
            elif geometry.in_goal(px, py):
                assert omega == 1.0
            else:
                assert omega == 0.5
                open_cells.append([px, py, 0.0, 0.0])
        assert len(estimated) == 1
        assert np.array_equal(estimated[0], np.array(open_cells).reshape(-1, 4))
