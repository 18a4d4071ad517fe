"""Scripted expert demonstrations and the demo-archive file format.

The expert is a waypoint-following PD controller steering through the bridge
corridor to the goal. Archives store full transitions even though the
start-state samplers only consume states, so buffer prefill and demo-size
sweeps reuse the same artifact.

Archive CSV layout (after ``# key = value`` metadata comment lines):

    episode,t,px,py,vx,vy,ax,ay,r,done

Each trajectory of length L occupies L+1 rows: rows t=0..L-1 hold the
transition taken at step t (state, action, reward, done flag), and one
trailing row t=L carries the terminal state reached (with zero action and
reward, done=1) so next-states round-trip exactly. Floats are written with
17 significant digits, which is lossless for binary64.

The done flags are fixed by the format: every kept trajectory ends at the
goal, so only its last transition is done. ``DemoTrajectory`` therefore holds
the L+1 states, L forces and L rewards of its block and no flags;
``load_archive`` still checks the file's done column, since the file is
outside input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Cause, EnvSettings, LavaBridgeEnv, Vec2
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
    terminal state reached. ``actions`` is ``(L, 2)`` and ``rewards`` ``(L,)``.
    Only the last transition is done. Equal when every field is.
    """

    episode_id: int
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __len__(self) -> int:
        return len(self.rewards)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DemoTrajectory):
            return NotImplemented
        return self.episode_id == other.episode_id and all(
            np.array_equal(a, b) for a, b in ((self.states, other.states),
                                              (self.actions, other.actions),
                                              (self.rewards, other.rewards)))


@dataclass(frozen=True)
class DemoArchive:
    """Immutable bundle of demo trajectories plus provenance metadata."""

    trajectories: tuple[DemoTrajectory, ...]
    seed: int
    geometry_hash: str

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
                np.concatenate([t.rewards for t in trajs]),
                np.concatenate([t.states[1:] for t in trajs]),
                dones)

    def demo_states(self) -> np.ndarray:
        """The ``(n_transitions, 4)`` rows each demo action was taken from, in archive order."""
        return np.concatenate([t.states[:-1] for t in self.trajectories])


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
        rewards: list[float] = []
        while True:
            action = scripted_expert(states[-1], env.geometry)
            res = env.step(action)
            states.append(env.state)
            actions.append(action)
            rewards.append(res.reward)
            if res.terminated:
                break
        if res.cause is not Cause.GOAL:
            failures += 1
            continue
        trajectories.append(DemoTrajectory(len(trajectories), np.array(states),
                                           np.array(actions), np.array(rewards)))
        collected += len(rewards)
    excess = collected - n_transitions
    if excess:
        last = trajectories[-1]  # previous total < n, so excess < len(last)
        trajectories[-1] = DemoTrajectory(last.episode_id, last.states[excess:],
                                          last.actions[excess:], last.rewards[excess:])
    return DemoArchive(
        trajectories=tuple(trajectories), seed=seed, geometry_hash=env.geometry_hash()
    )


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_archive(archive: DemoArchive, path) -> None:
    lines = [
        f"# seed = {archive.seed}",
        f"# geometry = {archive.geometry_hash}",
        f"# transitions = {archive.n_transitions}",
        _HEADER,
    ]
    for traj in archive.trajectories:
        # The trailing terminal-state row carries zero force and reward; it
        # and the last transition are the rows flagged done.
        forces = traj.actions.tolist() + [[0.0, 0.0]]
        rewards = traj.rewards.tolist() + [0.0]
        for t, (state, force, r) in enumerate(zip(traj.states.tolist(), forces, rewards)):
            lines.append(",".join([str(traj.episode_id), str(t), *map(_fmt, state + force + [r]),
                                   "1" if t >= len(traj) - 1 else "0"]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_archive(path, expected_geometry_hash: str | None = None, goal_reward: float = 1.0) -> DemoArchive:
    """Parse and validate an archive; checks the geometry stamp when given."""
    meta: dict[str, str] = {}
    rows: list[tuple[int, int, list[float], int]] = []
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
                t = int(parts[1])
                vals = [float(v) for v in parts[2:9]]
                done = int(parts[9])
            except ValueError as exc:
                raise ArchiveFormatError(f"line {lineno}: {exc}") from None
            if done not in (0, 1):
                raise ArchiveFormatError(f"line {lineno}: done flag must be 0 or 1")
            rows.append((episode, t, vals, done))
    if not header_seen:
        raise ArchiveFormatError("missing archive header")
    if expected_geometry_hash is not None and meta.get("geometry") != expected_geometry_hash:
        raise ArchiveFormatError(
            f"geometry hash mismatch: archive {meta.get('geometry')!r}, env {expected_geometry_hash!r}"
        )

    by_episode: dict[int, list[tuple[int, list[float], int]]] = {}
    for episode, t, vals, done in rows:
        by_episode.setdefault(episode, []).append((t, vals, done))

    trajectories: list[DemoTrajectory] = []
    for episode in sorted(by_episode):
        erows = by_episode[episode]
        if [t for t, _, _ in erows] != list(range(len(erows))):
            raise ArchiveFormatError(f"episode {episode}: non-contiguous step indices")
        if len(erows) < 2:
            raise ArchiveFormatError(f"episode {episode}: truncated (no terminal-state row)")
        if erows[-1][2] != 1:
            raise ArchiveFormatError(f"episode {episode}: missing terminal-state row")
        vals = np.array([v for _, v, _ in erows])
        dones = [d for _, _, d in erows[:-1]]
        rewards = vals[:-1, 6]
        if dones[-1] != 1 or rewards[-1] != goal_reward:
            raise ArchiveFormatError(f"episode {episode} does not end at the goal")
        if any(dones[:-1]) or np.any(rewards[:-1] != 0.0):
            raise ArchiveFormatError(
                f"episode {episode} has a non-terminal reward or early done flag")
        trajectories.append(DemoTrajectory(episode, vals[:, :4], vals[:-1, 4:6], rewards))
    if not trajectories:
        raise ArchiveFormatError("archive holds no episodes")

    ints: dict[str, int] = {}
    for key in ("seed", "transitions"):
        if key in meta:
            try:
                ints[key] = int(meta[key])
            except ValueError:
                raise ArchiveFormatError(f"metadata {key} = {meta[key]!r} is not an integer") from None
    seed = ints.get("seed", -1)
    n_claimed = ints.get("transitions")
    archive = DemoArchive(
        trajectories=tuple(trajectories), seed=seed,
        geometry_hash=meta.get("geometry", ""),
    )
    if n_claimed is not None and n_claimed != archive.n_transitions:
        raise ArchiveFormatError(
            f"metadata claims {n_claimed} transitions, file holds {archive.n_transitions}"
        )
    return archive
