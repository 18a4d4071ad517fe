"""Scripted expert demonstrations and the demo-archive file format.

The expert is a waypoint-following PD controller steering through the bridge
corridor to the goal. Archives store full transitions even though the
start-state samplers only consume states, so buffer prefill and demo-size
sweeps reuse the same artifact.

Archive CSV layout (after ``# key = value`` metadata comment lines):

    episode,t,px,py,vx,vy,ax,ay,r,done

Each trajectory of length L is one block of L+1 rows, the blocks in
ascending episode id order. Rows t=0..L-1 hold the transition taken at step t
(state, action, reward, done flag), and one trailing row t=L carries the
terminal state reached (with zero action and reward, done=1) so next-states
round-trip exactly. Floats are written with 17 significant digits, which is
lossless for binary64, and must be finite.

Every kept trajectory ends at the goal, so the format fixes the ``t``, ``r``
and ``done`` columns: each step pays 0 but the last, which pays
``goal_reward`` and is the only one done. ``DemoTrajectory`` holds only the
states and forces; ``load_archive`` checks the fixed columns, since the file
is outside input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Cause, EnvSettings, InvalidResetError, LavaBridgeEnv, Vec2
from .rngs import substream

__all__ = [
    "ArchiveFormatError",
    "DemoArchive",
    "DemoTrajectory",
    "EXPERT_KP",
    "EXPERT_KD",
    "WAYPOINT_RADIUS",
    "scripted_expert",
    "generate_demos",
    "subsample_states",
    "save_archive",
    "load_archive",
]

# PD gains and waypoint handoff radius; tuned so the corridor is crossed
# centrally at moderate speed (success 200/200 from p0, median episode ~176
# steps). Damping below ~1.6 overshoots the corridor mouth into lava.
EXPERT_KP = 1.0
EXPERT_KD = 3.0
WAYPOINT_RADIUS = 0.5


class ArchiveFormatError(ValueError):
    """Malformed or mismatched demo archive file."""


def _waypoints(settings: EnvSettings) -> tuple[Vec2, ...]:
    # Bridge entrance, bridge exit, then the goal itself.
    return (Vec2(4.0, 5.0), Vec2(6.0, 5.0), settings.goal)


def scripted_expert(state, settings: EnvSettings) -> tuple[float, float]:
    """PD force pair ``(fx, fy)`` toward the active waypoint, for a ``(4,)`` state.

    Each component is clipped to ``settings.f_max``. A waypoint counts as
    passed once the agent is within WAYPOINT_RADIUS of it or beyond it along
    x (travel is left to right), which makes the selection a pure function of
    the state.
    """
    px, py, vx, vy = np.asarray(state, dtype=np.float64).tolist()
    target = None
    for wp in _waypoints(settings):
        passed = math.hypot(px - wp.x, py - wp.y) <= WAYPOINT_RADIUS or px > wp.x
        if not passed:
            target = wp
            break
    if target is None:
        target = settings.goal
    fx = EXPERT_KP * (target.x - px) - EXPERT_KD * vx
    fy = EXPERT_KP * (target.y - py) - EXPERT_KD * vy
    f_max = settings.f_max
    return max(-f_max, min(f_max, fx)), max(-f_max, min(f_max, fy))


@dataclass(frozen=True, eq=False)
class DemoTrajectory:
    """One goal-terminated expert episode of length L.

    ``states`` is ``(L+1, 4)``: the state each step was taken from, then the
    terminal state reached. ``actions`` is ``(L, 2)``. Each step pays 0 but
    the last, which pays the archive's ``goal_reward`` and is the only done
    one. Equal when the ids, states and actions are.
    """

    episode_id: int
    states: np.ndarray
    actions: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DemoTrajectory):
            return NotImplemented
        return (self.episode_id == other.episode_id and np.array_equal(self.states, other.states)
                and np.array_equal(self.actions, other.actions))


@dataclass(frozen=True)
class DemoArchive:
    """Demo trajectories, their provenance and the ``goal_reward`` each one's last step pays."""

    trajectories: tuple[DemoTrajectory, ...]
    seed: int
    geometry_hash: str
    goal_reward: float

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def transition_arrays(self) -> tuple[np.ndarray, ...]:
        """All transitions in archive order as (states, actions, rewards, next_states, dones)."""
        trajs = self.trajectories
        dones = np.zeros(self.n_transitions)
        dones[np.cumsum([len(t) for t in trajs]) - 1] = 1.0  # each trajectory's last step
        return (self.demo_states(),
                np.concatenate([t.actions for t in trajs]),
                np.where(dones == 1.0, self.goal_reward, 0.0),
                np.concatenate([t.states[1:] for t in trajs]),
                dones)

    def demo_states(self) -> np.ndarray:
        """The ``(n_transitions, 4)`` rows each demo action was taken from, in archive order."""
        return np.concatenate([t.states[:-1] for t in self.trajectories])

    def check(self, env: LavaBridgeEnv) -> None:
        """Reject what ``env`` could not have produced, naming the trajectory: a state that
        ``env.check_states`` rejects (terminal rows included), a last state outside the goal
        disc or an earlier one inside it, or a force beyond ``f_max``, which the env clamps."""
        for traj in self.trajectories:
            name = f"demo trajectory {traj.episode_id}"
            try:
                env.check_states(traj.states)
            except InvalidResetError as exc:
                raise InvalidResetError(f"{name}: {exc}") from None
            _, goal = env.geometry.terminal_masks(traj.states[:, 0], traj.states[:, 1])
            if np.flatnonzero(goal).tolist() != [len(traj)]:
                raise ArchiveFormatError(f"{name} must reach the goal disc at its last state, not before")
            if not (np.abs(traj.actions) <= env.geometry.f_max).all():
                raise ArchiveFormatError(f"{name} has a force beyond f_max={env.geometry.f_max}")


def generate_demos(env: LavaBridgeEnv, n_transitions: int, seed: int) -> DemoArchive:
    """Collect exactly ``n_transitions`` expert transitions from p0 episodes.

    Runs scripted-expert episodes until enough transitions from successful
    (goal-terminated) episodes are banked; failed episodes are discarded. The
    final trajectory is trimmed from its head so every kept trajectory still
    ends at the goal and the total is exact. Aborts if more than half the
    episodes fail, which signals broken controller gains.
    """
    if n_transitions < 1:
        raise ValueError("need a positive number of demo transitions")
    rng = substream(seed, "demo")
    trajectories: list[DemoTrajectory] = []
    collected = 0
    episodes = failures = 0
    while collected < n_transitions:
        episodes += 1
        if episodes > 8 and failures / episodes > 0.5:
            raise RuntimeError(
                f"expert failed {failures}/{episodes} episodes; controller gains are unsafe"
            )
        states = [env.reset_to(env.sample_start("p0", rng))]
        actions: list[tuple[float, float]] = []
        while True:
            action = scripted_expert(states[-1], env.geometry)
            res = env.step(action)
            states.append(env.state)
            actions.append(action)
            if res.terminated:
                break
        if res.cause is not Cause.GOAL:
            failures += 1
            continue
        trajectories.append(DemoTrajectory(len(trajectories), np.array(states), np.array(actions)))
        collected += len(actions)
    excess = collected - n_transitions
    if excess:
        last = trajectories[-1]  # previous total < n, so excess < len(last)
        trajectories[-1] = DemoTrajectory(last.episode_id, last.states[excess:], last.actions[excess:])
    return DemoArchive(tuple(trajectories), seed, env.geometry_hash(), env.goal_reward)


def subsample_states(archive: DemoArchive, m: int, seed: int) -> np.ndarray:
    """Uniform random subset (without replacement) of the demo states, ``(m, 4)``.

    Selected indices are kept in archive order, so the subset is stable for a
    given seed regardless of how it is consumed.
    """
    demo = archive.demo_states()
    if not (1 <= m <= len(demo)):
        raise ValueError(f"subset size {m} outside [1, {len(demo)}]")
    rng = substream(seed, "demo", 1)
    idx = np.sort(rng.choice(len(demo), size=m, replace=False))
    return demo[idx]


# -- archive file IO -----------------------------------------------------------

_HEADER = "episode,t,px,py,vx,vy,ax,ay,r,done"


def _block(traj: DemoTrajectory, goal_reward: float) -> np.ndarray:
    """The ``(L+1, 9)`` archive rows of ``traj``, columns ``t`` to ``done``."""
    n = len(traj)
    t = np.arange(n + 1)
    return np.column_stack([t, traj.states, np.vstack([traj.actions, [0.0, 0.0]]),
                            np.where(t == n - 1, goal_reward, 0.0), t >= n - 1])


def save_archive(archive: DemoArchive, path) -> None:
    lines = [
        f"# seed = {archive.seed}",
        f"# geometry = {archive.geometry_hash}",
        f"# transitions = {archive.n_transitions}",
        _HEADER,
    ]
    for traj in archive.trajectories:
        # 17 significant digits write the whole-number t and done cells as integers.
        lines += [",".join([str(traj.episode_id), *map("{:.17g}".format, row)])
                  for row in _block(traj, archive.goal_reward).tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_archive(path, expected_geometry_hash: str | None = None, goal_reward: float = 1.0) -> DemoArchive:
    """Parse and validate an archive; checks the geometry stamp when given.

    Each episode must be one block of finite rows, in ascending id order, whose ``t``, ``r``,
    ``done`` and terminal-force cells are the ones the format fixes for a last step paying
    ``goal_reward``. Raises ``ArchiveFormatError`` naming the line or episode at fault.
    """
    meta: dict[str, str] = {}
    blocks: list[tuple[int, list[list[float]]]] = []  # (episode id, its rows from t on)
    with open(path) as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, val = line[1:].split("=", 1)
                    meta[key.strip()] = val.strip()
                continue
            if not header_seen:
                if line != _HEADER:
                    raise ArchiveFormatError(f"line {lineno}: unexpected header {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 10:
                raise ArchiveFormatError(f"line {lineno}: expected 10 fields, got {len(parts)}")
            try:
                episode = int(parts[0])
                row = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ArchiveFormatError(f"line {lineno}: {exc}") from None
            if not blocks or episode != blocks[-1][0]:
                if blocks and episode < blocks[-1][0]:
                    raise ArchiveFormatError(f"line {lineno}: episode {episode} follows episode "
                                             f"{blocks[-1][0]}; episodes are blocks in id order")
                blocks.append((episode, []))
            blocks[-1][1].append(row)
    if not header_seen:
        raise ArchiveFormatError("missing archive header")
    if expected_geometry_hash is not None and meta.get("geometry") != expected_geometry_hash:
        raise ArchiveFormatError(f"geometry hash mismatch: archive {meta.get('geometry')!r}, "
                                 f"env {expected_geometry_hash!r}")

    trajectories: list[DemoTrajectory] = []
    for episode, rows in blocks:
        block = np.array(rows)
        if len(block) < 2:
            raise ArchiveFormatError(f"episode {episode}: truncated (no terminal-state row)")
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ArchiveFormatError(f"episode {episode}: non-finite value at t={int(finite.argmin())}")
        traj = DemoTrajectory(episode, block[:, 1:5], block[:-1, 5:7])
        if not np.array_equal(block, _block(traj, goal_reward)):
            raise ArchiveFormatError(f"episode {episode}: t, r, done or terminal force is not the "
                                     "format's (steps from 0, reward at the goal step only, no early done)")
        trajectories.append(traj)
    if not trajectories:
        raise ArchiveFormatError("archive holds no episodes")

    n = sum(len(t) for t in trajectories)
    ints: dict[str, int] = {}
    for key, default in (("seed", -1), ("transitions", n)):
        try:
            ints[key] = int(meta.get(key, default))
        except ValueError:
            raise ArchiveFormatError(f"metadata {key} = {meta[key]!r} is not an integer") from None
    if ints["transitions"] != n:
        raise ArchiveFormatError(f"metadata claims {ints['transitions']} transitions, file holds {n}")
    return DemoArchive(tuple(trajectories), ints["seed"], meta.get("geometry", ""), goal_reward)
