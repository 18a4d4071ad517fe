"""Oracles ``estimate_safety`` is tested against: exact safety and scalar validation.

``brute_force_safety`` enumerates a force lattice exactly through the scalar
``LavaBridgeEnv.step``, so it shares no code with the batched estimator.
``validate_states_loop`` is the estimator's former per-state check of its
input, over ``scalar_reset_check``, a scalar copy of the reset rules that
``LavaBridgeEnv.check_states`` now applies as array work.
"""

from __future__ import annotations

import math

import numpy as np

from lavabridge.env import Cause, InvalidResetError, LavaBridgeEnv

# Cost guard for brute-force enumeration: (grid^2)^k action sequences.
_MAX_ENUMERATION = 10_000_000


def action_grid(grid: int, f_max: float) -> np.ndarray:
    """grid x grid uniform lattice of cell centers over the force box, ``(grid**2, 2)``.

    Rows run over fx, then fy within each fx. Cell centers (midpoint rule)
    rather than corner-inclusive spacing, so the equal-weight enumeration
    over the lattice is an unbiased quadrature of the uniform-continuous
    policy it stands in for.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    axis = (2.0 * np.arange(grid) + 1.0 - grid) / grid * f_max
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def brute_force_safety(
    env: LavaBridgeEnv,
    state,
    k: int,
    grid: int,
    *,
    goal_unsafe: bool = False,
) -> float:
    """Exact safety of one ``(4,)`` state for the uniform action-grid policy, by depth-first search.

    Enumerates all (grid^2)^k action sequences over the lattice, sharing
    common prefixes and pruning subtrees below terminal states. Rejects
    enumerations beyond the cost guard. Leaves the env's state untouched.
    """
    if k < 1:
        raise ValueError("safety horizon k must be >= 1")
    px, py = float(state[0]), float(state[1])
    if env.geometry.in_lava(px, py) or env.geometry.in_goal(px, py):
        raise ValueError("safety is undefined for terminal states")
    actions = action_grid(grid, env.f_max).tolist()
    n_actions = len(actions)
    if n_actions**k > _MAX_ENUMERATION:
        raise ValueError(f"enumeration of {n_actions**k} sequences exceeds the cost guard")

    snap = env.snapshot()

    def count_safe(depth: int) -> int:
        remaining = n_actions ** (k - depth - 1)
        safe = 0
        for action in actions:
            node = env.snapshot()
            res = env.step(action)
            if res.cause is Cause.LAVA:
                pass  # whole subtree unsafe
            elif res.terminated:
                # goal or timeout: absorbing, every completion shares its fate
                safe += 0 if (res.cause is Cause.GOAL and goal_unsafe) else remaining
            elif depth + 1 == k:
                safe += 1
            else:
                safe += count_safe(depth + 1)
            env.restore(node)
        return safe

    try:
        env.reset_to(state)
        total_safe = count_safe(0)
    finally:
        env.restore(snap)
    return total_safe / n_actions**k


def scalar_reset_check(env: LavaBridgeEnv, state) -> None:
    """The reset rules as scalar Python: ``reset_to``'s checks before they became array work.

    Raises ``InvalidResetError`` with ``reset_to``'s message for the first
    rule ``state`` breaks: four numbers, finite, inside the world, not in
    lava, at most ``v_max`` fast.
    """
    try:
        row = np.asarray(state, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidResetError(f"reset state {state!r} is not a 4-vector of numbers") from None
    if row.shape != (4,):
        raise InvalidResetError(f"reset state has shape {row.shape}, expected (4,)")
    px, py, vx, vy = row.tolist()
    if not all(map(math.isfinite, (px, py, vx, vy))):
        raise InvalidResetError("reset state has non-finite components")
    if not env.geometry.world.contains(px, py):
        raise InvalidResetError(f"reset position ({px}, {py}) outside world bounds")
    if env.geometry.in_lava(px, py):
        raise InvalidResetError(f"reset position ({px}, {py}) is inside lava")
    speed = math.sqrt(vx * vx + vy * vy)
    if speed > env.v_max * (1.0 + 1e-12):
        raise InvalidResetError(f"reset speed {speed:.3f} exceeds v_max")


def validate_states_loop(env: LavaBridgeEnv, states) -> None:
    """The per-state validation ``estimate_safety`` ran before its array check.

    Row by row: a terminal position (lava or goal disc, by the scalar
    geometry tests) raises ``ValueError``; then a state that the scalar reset
    rules reject raises their ``InvalidResetError``. Leaves the env's state
    untouched.
    """
    snap = env.snapshot()
    try:
        for state in states:
            px, py = float(state[0]), float(state[1])
            if env.geometry.in_lava(px, py) or env.geometry.in_goal(px, py):
                raise ValueError("safety is undefined for terminal states")
            scalar_reset_check(env, state)
    finally:
        env.restore(snap)
