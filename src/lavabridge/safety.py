"""A Monte Carlo estimator of short-horizon state safety.

The safety of a state is the probability, under a given policy, that a
rollout of at most ``k`` steps avoids hazardous termination. Lava counts as
unsafe; reaching the goal inside the window counts as safe (the hazard
signal we care about is failure, not success). With an absorbing terminal
simulator, flagging lava at any step within the window is equivalent to
evaluating the terminal indicator at the window's final state.

``estimate_safety`` takes states as an ``(S, 4)`` array of ``[px, py, vx,
vy]`` rows. One array pass checks them all before any rollout and raises for
the first bad row: ``ValueError`` if it is terminal
(``EnvSettings.terminal_masks``), or the ``InvalidResetError`` that
``reset_to`` would raise for it (``LavaBridgeEnv.check_states``). It then
rolls out all ``n`` rollouts of every state as rows of one array, stepped by
``LavaBridgeEnv.step_batch``. A policy is a callable ``policy(states (B, 4),
rng) -> forces (B, 2)``. Random streams: the rows are cut into blocks of
whole states, at most ``_BLOCK_ROWS`` rows each (at least one state), and
each block draws from its own ``rng.spawn(1)[0]``, spawned in block order.
At every step of the window, until all of its rows have finished, the block
calls ``policy`` once on all of its rows, finished ones included, so the
forces at step j do not depend on ``k``. Estimates are therefore
reproducible per seed and per list of states, and rollouts at horizon k+1
extend those at k.

``estimate_safety`` and ``safety_field`` never reset or step the caller's
environment: they read only its geometry and constants, so its state is left
untouched. The tests check the estimator against an exact enumeration of a
force lattice, and its validation against the per-state loop it replaced
(both in ``tests/safety_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import LavaBridgeEnv, state_rows

__all__ = [
    "SafetyEstimate",
    "uniform_random_policy",
    "estimate_safety",
    "safety_field",
    "save_safety_field_csv",
]

# Most rollout rows stepped as one array; bounds the estimator's memory.
_BLOCK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class SafetyEstimate:
    """Per-state fraction of safe rollouts out of n_rollouts, each at most k steps.

    ``value`` is an ``(S,)`` float64 array, one entry per state estimated.
    Estimates compare by identity: a field-wise ``==`` over arrays has no
    single truth value.
    """

    value: np.ndarray
    n_rollouts: int
    k: int


def uniform_random_policy(f_max: float):
    """Policy drawing each force component uniformly from [-f_max, f_max]."""

    def policy(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-f_max, f_max, size=(len(states), 2))

    return policy


def estimate_safety(
    env: LavaBridgeEnv,
    states,
    policy,
    k: int,
    n: int,
    rng: np.random.Generator,
) -> SafetyEstimate:
    """Monte Carlo safety of each ``(4,)`` row of ``states`` from ``n`` independent k-step rollouts.

    ``states`` must be ``(S, 4)``; an empty sequence gives an empty estimate.
    Every state is validated before any rollout, in order: the first terminal
    state raises ``ValueError``, unless an earlier one is a state ``reset_to``
    rejects, which raises its ``InvalidResetError``. A timeout inside the
    window counts as safe. See the module docstring for the blocks and random
    streams.
    """
    if k < 1:
        raise ValueError("safety horizon k must be >= 1")
    if n < 1:
        raise ValueError("rollout count n must be >= 1")
    if rng is None:
        raise ValueError("Monte Carlo estimation needs an rng")
    start = state_rows(states)
    with np.errstate(over="ignore"):  # unchecked rows may square to inf
        lava, goal = env.geometry.terminal_masks(start[:, 0], start[:, 1])
    ended = lava | goal
    first_ended = int(ended.argmax()) if ended.any() else len(start)
    env.check_states(start[:first_ended])
    if first_ended < len(start):
        raise ValueError("safety is undefined for terminal states")
    steps = min(k, env.horizon)
    per_block = max(1, _BLOCK_ROWS // n)
    unsafe_counts = np.zeros(len(start), dtype=np.int64)
    for b in range(0, len(start), per_block):
        block_rng = rng.spawn(1)[0]
        x = np.repeat(start[b:b + per_block], n, axis=0)
        alive = np.ones(len(x), dtype=bool)
        unsafe = np.zeros(len(x), dtype=bool)
        for _ in range(steps):
            # Finished rows keep stepping; the alive mask discards their outcomes.
            x, lava, goal = env.step_batch(x, policy(x, block_rng))
            unsafe |= alive & lava
            alive &= ~(lava | goal)
            if not alive.any():
                break
        unsafe_counts[b:b + per_block] = unsafe.reshape(-1, n).sum(axis=1)
    return SafetyEstimate(value=(n - unsafe_counts) / n, n_rollouts=n, k=k)


def safety_field(
    env: LavaBridgeEnv,
    k: int,
    n: int,
    rng: np.random.Generator,
    nx: int = 50,
    ny: int = 50,
) -> list[tuple[float, float, float]]:
    """Safety of at-rest states over an nx x ny position grid under
    ``uniform_random_policy(env.f_max)``.

    Terminal cells are reported directly: 0.0 for lava, 1.0 for the goal disc.
    The open cells are estimated in one ``estimate_safety`` call, in row-major
    order. Returns (px, py, omega) rows in row-major order.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1 x 1, got {nx} x {ny}")
    geo = env.geometry
    cells = np.zeros((nx * ny, 4))
    cells[:, 0] = np.tile(np.linspace(geo.world.xmin, geo.world.xmax, nx), ny)
    cells[:, 1] = np.repeat(np.linspace(geo.world.ymin, geo.world.ymax, ny), nx)
    lava, goal = geo.terminal_masks(cells[:, 0], cells[:, 1])
    open_cells = ~(lava | goal)
    omega = np.where(lava, 0.0, 1.0)
    policy = uniform_random_policy(env.f_max)
    omega[open_cells] = estimate_safety(env, cells[open_cells], policy, k, n, rng).value
    return list(zip(cells[:, 0].tolist(), cells[:, 1].tolist(), omega.tolist()))


def save_safety_field_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("px,py,omega\n")
        for px, py, omega in rows:
            fh.write(f"{px:.17g},{py:.17g},{omega:.17g}\n")
