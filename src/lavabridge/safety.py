"""A Monte Carlo estimator of short-horizon state safety and its exact oracle.

The safety of a state is the probability, under a given policy, that a
rollout of at most ``k`` steps avoids hazardous termination. Lava counts as
unsafe; reaching the goal inside the window counts as safe by default (the
hazard signal we care about is failure, not success), switchable via
``goal_unsafe``. With an absorbing terminal simulator, flagging lava at any
step within the window is equivalent to evaluating the terminal indicator at
the window's final state.

All estimators leave the caller's environment state untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import Action, Cause, LavaBridgeEnv, State, Vec2

__all__ = [
    "SafetyEstimate",
    "action_grid",
    "uniform_random_policy",
    "estimate_safety",
    "brute_force_safety",
    "safety_field",
    "save_safety_field_csv",
]

# Cost guard for brute-force enumeration: (grid^2)^k action sequences.
_MAX_ENUMERATION = 10_000_000


@dataclass(frozen=True)
class SafetyEstimate:
    """Fraction of safe rollouts out of n_rollouts, each at most k steps."""

    value: float
    n_rollouts: int
    k: int


def uniform_random_policy(f_max: float):
    """Policy drawing each force component uniformly from [-f_max, f_max]."""

    def policy(state: State, rng: np.random.Generator) -> Action:
        fx, fy = rng.uniform(-f_max, f_max, size=2)
        return Action(Vec2(fx, fy))

    return policy


def action_grid(grid: int, f_max: float) -> tuple[Action, ...]:
    """grid x grid uniform lattice of cell centers over the force box.

    Cell centers (midpoint rule) rather than corner-inclusive spacing, so the
    equal-weight enumeration over the lattice is an unbiased quadrature of
    the uniform-continuous policy it stands in for.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    axis = (2.0 * np.arange(grid) + 1.0 - grid) / grid * f_max
    return tuple(Action(Vec2(float(fx), float(fy))) for fx in axis for fy in axis)


def _rollout_is_safe(env: LavaBridgeEnv, actions, k: int, goal_unsafe: bool) -> bool:
    # Caller has already reset the env to the probe state.
    for step, action in zip(range(k), actions):
        res = env.step(action)
        if res.cause is Cause.LAVA:
            return False
        if res.cause is Cause.GOAL:
            return not goal_unsafe
        if res.terminated:  # timeout inside the window: ran out of horizon, not unsafe
            return True
    return True


def estimate_safety(
    env: LavaBridgeEnv,
    state: State,
    policy,
    k: int,
    n: int,
    rng: np.random.Generator,
    *,
    goal_unsafe: bool = False,
) -> SafetyEstimate:
    """Monte Carlo state-safety estimate from ``n`` independent k-step rollouts.

    Each rollout draws its actions from a child stream spawned off ``rng``, so
    estimates are reproducible per seed and rollouts at horizon k+1 extend the
    same action prefixes as at horizon k.
    """
    if k < 1:
        raise ValueError("safety horizon k must be >= 1")
    if env.is_terminal(state) is not Cause.NONE:
        raise ValueError("safety is undefined for terminal states")
    if n < 1:
        raise ValueError("rollout count n must be >= 1")
    if rng is None:
        raise ValueError("Monte Carlo estimation needs an rng")
    snap = env.snapshot()
    try:
        safe = 0
        for child in rng.spawn(n):
            env.reset_to(state)
            actions = (policy(env.state, child) for _ in range(k))
            safe += _rollout_is_safe(env, actions, k, goal_unsafe)
        return SafetyEstimate(value=safe / n, n_rollouts=n, k=k)
    finally:
        env.restore(snap)


def brute_force_safety(
    env: LavaBridgeEnv,
    state: State,
    k: int,
    grid: int,
    *,
    goal_unsafe: bool = False,
) -> float:
    """Exact safety for the uniform action-grid policy, by depth-first search.

    Enumerates all (grid^2)^k action sequences over the lattice, sharing
    common prefixes and pruning subtrees below terminal states, so it is an
    independent oracle for the rollout-based estimator. Rejects enumerations
    beyond the cost guard.
    """
    if k < 1:
        raise ValueError("safety horizon k must be >= 1")
    if env.is_terminal(state) is not Cause.NONE:
        raise ValueError("safety is undefined for terminal states")
    actions = action_grid(grid, env.f_max)
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


def safety_field(
    env: LavaBridgeEnv,
    k: int,
    n: int,
    rng: np.random.Generator,
    nx: int = 50,
    ny: int = 50,
    policy=None,
) -> list[tuple[float, float, float]]:
    """Sample safety of at-rest states over an nx x ny position grid.

    Terminal cells are reported directly: 0.0 for lava, 1.0 for the goal disc.
    Returns (px, py, omega) rows in row-major order.
    """
    if policy is None:
        policy = uniform_random_policy(env.f_max)
    world = env.geometry.world
    xs = np.linspace(world.xmin, world.xmax, nx)
    ys = np.linspace(world.ymin, world.ymax, ny)
    rows = []
    for y in ys:
        for x in xs:
            s = State(Vec2(float(x), float(y)), Vec2(0.0, 0.0))
            cause = env.is_terminal(s)
            if cause is Cause.LAVA:
                omega = 0.0
            elif cause is Cause.GOAL:
                omega = 1.0
            else:
                omega = estimate_safety(env, s, policy, k, n, rng).value
            rows.append((float(x), float(y), omega))
    return rows


def save_safety_field_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("px,py,omega\n")
        for px, py, omega in rows:
            fh.write(f"{px:.17g},{py:.17g},{omega:.17g}\n")
