"""Lava Bridge: a deterministic 2D point-mass world with sparse rewards.

Two open regions are joined by a narrow corridor flanked by terminal lava
strips. The agent is a unit point mass pushed around by a bounded 2D force;
the only non-zero rewards are +1 for entering the goal disc and -1 for
touching lava, both of which end the episode. The simulator supports
resetting to any non-terminal state, which is the affordance the start-state
samplers in this package are built on.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Action",
    "Cause",
    "InvalidResetError",
    "EpisodeOverError",
    "LavaBridgeEnv",
    "Rect",
    "State",
    "StepResult",
    "Vec2",
    "WorldGeometry",
]


class InvalidResetError(ValueError):
    """Raised when a reset target is terminal, out of bounds, or malformed."""


class EpisodeOverError(RuntimeError):
    """Raised when step() is called after the episode has terminated."""


class Cause(enum.Enum):
    """Why (or whether) a step ended the episode."""

    NONE = "none"
    GOAL = "goal"
    LAVA = "lava"
    TIMEOUT = "timeout"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Vec2:
    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


@dataclass(frozen=True, slots=True)
class State:
    """Point-mass state: planar position (m) and velocity (m/s)."""

    position: Vec2
    velocity: Vec2

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.position.x, self.position.y, self.velocity.x, self.velocity.y],
            dtype=np.float64,
        )


@dataclass(frozen=True, slots=True)
class Action:
    """Force command in newtons (unit mass assumed)."""

    force: Vec2


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle, closed on all sides."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def center(self) -> Vec2:
        return Vec2(0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))


@dataclass(frozen=True)
class WorldGeometry:
    """Static layout: world bounds, lava strips, goal disc, start distributions.

    ``start_blobs`` parameterizes the task's own start distribution as an
    equal-weight mixture of isotropic Gaussians (zero start velocity).
    ``ood_points`` is a disjoint set of probe locations used only for
    robustness evaluation, jittered by ``ood_jitter``.
    """

    world: Rect = Rect(0.0, 0.0, 10.0, 10.0)
    lava: tuple[Rect, ...] = (Rect(4.0, 0.0, 6.0, 4.5), Rect(4.0, 5.5, 6.0, 10.0))
    goal_center: Vec2 = Vec2(9.0, 5.0)
    goal_radius: float = 0.4
    start_blobs: tuple[tuple[Vec2, float], ...] = (
        (Vec2(1.0, 2.5), 0.3),
        (Vec2(1.0, 7.5), 0.3),
    )
    ood_points: tuple[Vec2, ...] = (
        Vec2(1.0, 5.0),
        Vec2(2.5, 1.0),
        Vec2(2.5, 9.0),
        Vec2(3.5, 4.0),
        Vec2(3.5, 6.0),
        Vec2(0.5, 0.5),
    )
    ood_jitter: float = 0.15

    def in_lava(self, x: float, y: float) -> bool:
        for rect in self.lava:
            if rect.contains(x, y):
                return True
        return False

    def in_goal(self, x: float, y: float) -> bool:
        return math.hypot(x - self.goal_center.x, y - self.goal_center.y) <= self.goal_radius

    def validate(self) -> None:
        w = self.world
        if not (w.xmin < w.xmax and w.ymin < w.ymax):
            raise ValueError("degenerate world bounds")
        for rect in self.lava:
            if not (w.xmin <= rect.xmin <= rect.xmax <= w.xmax
                    and w.ymin <= rect.ymin <= rect.ymax <= w.ymax):
                raise ValueError(f"lava rectangle {rect} escapes world bounds")
        if self.in_lava(self.goal_center.x, self.goal_center.y):
            raise ValueError("goal center lies inside lava")
        for mean, _std in self.start_blobs:
            if self.in_lava(mean.x, mean.y) or not w.contains(mean.x, mean.y):
                raise ValueError(f"start blob mean {mean} is terminal or out of bounds")
        for pt in self.ood_points:
            if self.in_lava(pt.x, pt.y) or not w.contains(pt.x, pt.y):
                raise ValueError(f"OOD point {pt} is terminal or out of bounds")


@dataclass(frozen=True, slots=True)
class StepResult:
    next_state: State
    reward: float
    terminated: bool
    cause: Cause


# Cap on rejection resampling in sample_start before falling back to the
# unjittered component mean/point.
_MAX_START_REJECTS = 100


class LavaBridgeEnv:
    """Deterministic sparse-reward point-mass simulator.

    Dynamics are semi-implicit Euler with linear drag:

        v' = clip_norm(v + (f - drag * v) * dt, v_max)
        p' = p + v' * dt

    Walls clamp the offending position component and zero that velocity
    component. Landing in lava or the goal disc terminates the episode with
    reward ``lava_reward`` / ``goal_reward``; every other step pays zero.
    Reaching ``horizon`` steps times out with reward zero.

    Instances hold no shared global state and may be used in parallel
    workers; a single instance must not be stepped concurrently.
    """

    def __init__(
        self,
        geometry: WorldGeometry | None = None,
        *,
        dt: float = 0.1,
        f_max: float = 1.0,
        v_max: float = 2.0,
        drag: float = 0.1,
        goal_reward: float = 1.0,
        lava_reward: float = -1.0,
        horizon: int = 500,
    ):
        self.geometry = geometry if geometry is not None else WorldGeometry()
        self.geometry.validate()
        self.dt = float(dt)
        self.f_max = float(f_max)
        self.v_max = float(v_max)
        self.drag = float(drag)
        self.goal_reward = float(goal_reward)
        self.lava_reward = float(lava_reward)
        self.horizon = int(horizon)
        if self.dt <= 0 or self.f_max <= 0 or self.v_max <= 0 or self.horizon < 1:
            raise ValueError("dt, f_max, v_max must be positive and horizon >= 1")
        blob = self.geometry.start_blobs[0][0]
        self._px, self._py, self._vx, self._vy = blob.x, blob.y, 0.0, 0.0
        self._steps = 0
        self._terminated = False

    # -- state access -------------------------------------------------------

    @property
    def state(self) -> State:
        return State(Vec2(self._px, self._py), Vec2(self._vx, self._vy))

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def terminated(self) -> bool:
        return self._terminated

    def snapshot(self) -> tuple:
        """Opaque copy of the mutable simulator state (see restore)."""
        return (self._px, self._py, self._vx, self._vy, self._steps, self._terminated)

    def restore(self, snap: tuple) -> None:
        self._px, self._py, self._vx, self._vy, self._steps, self._terminated = snap

    # -- resets --------------------------------------------------------------

    def reset_to(self, state: State) -> State:
        """Place the simulator exactly at ``state`` and zero the step counter.

        Rejects states that are inside lava, outside the world bounds, faster
        than ``v_max``, or non-finite.
        """
        if not (state.position.is_finite() and state.velocity.is_finite()):
            raise InvalidResetError("reset state has non-finite components")
        if not self.geometry.world.contains(state.position.x, state.position.y):
            raise InvalidResetError(f"reset position {state.position} outside world bounds")
        if self.is_terminal(state) is Cause.LAVA:
            raise InvalidResetError(f"reset position {state.position} is inside lava")
        if state.velocity.norm() > self.v_max * (1.0 + 1e-12):
            raise InvalidResetError(f"reset speed {state.velocity.norm():.3f} exceeds v_max")
        self._px, self._py = state.position.x, state.position.y
        self._vx, self._vy = state.velocity.x, state.velocity.y
        self._steps = 0
        self._terminated = False
        return state

    def sample_start(self, which: str, rng: np.random.Generator) -> State:
        """Draw a start state from ``"p0"`` (task distribution) or ``"ood"``.

        p0 picks one Gaussian blob uniformly and jitters around its mean; ood
        picks one probe point uniformly and jitters by ``ood_jitter``. Draws
        landing in lava or out of bounds are rejected and retried; after
        ``_MAX_START_REJECTS`` failures the unjittered center is returned.
        Velocity is always zero.
        """
        geo = self.geometry
        if which == "p0":
            mean, std = geo.start_blobs[int(rng.integers(len(geo.start_blobs)))]
        elif which == "ood":
            mean, std = geo.ood_points[int(rng.integers(len(geo.ood_points)))], geo.ood_jitter
        else:
            raise ValueError(f"unknown start distribution {which!r} (want 'p0' or 'ood')")
        for _ in range(_MAX_START_REJECTS):
            dx, dy = rng.normal(0.0, std, size=2)
            x, y = float(mean.x + dx), float(mean.y + dy)
            if geo.world.contains(x, y) and not geo.in_lava(x, y):
                return State(Vec2(x, y), Vec2(0.0, 0.0))
        return State(Vec2(mean.x, mean.y), Vec2(0.0, 0.0))

    # -- dynamics ------------------------------------------------------------

    def step(self, action: Action) -> StepResult:
        """Advance one step. Raises EpisodeOverError after termination."""
        if self._terminated:
            raise EpisodeOverError("step() called on a terminated episode; reset first")
        f_max = self.f_max
        fx = action.force.x
        fy = action.force.y
        # Actuator saturation: commands beyond the force budget are clamped.
        if fx > f_max:
            fx = f_max
        elif fx < -f_max:
            fx = -f_max
        if fy > f_max:
            fy = f_max
        elif fy < -f_max:
            fy = -f_max

        dt = self.dt
        drag = self.drag
        vx = self._vx + (fx - drag * self._vx) * dt
        vy = self._vy + (fy - drag * self._vy) * dt
        speed = math.hypot(vx, vy)
        if speed > self.v_max:
            scale = self.v_max / speed
            vx *= scale
            vy *= scale
        px = self._px + vx * dt
        py = self._py + vy * dt

        world = self.geometry.world
        if px < world.xmin:
            px, vx = world.xmin, 0.0
        elif px > world.xmax:
            px, vx = world.xmax, 0.0
        if py < world.ymin:
            py, vy = world.ymin, 0.0
        elif py > world.ymax:
            py, vy = world.ymax, 0.0

        self._px, self._py, self._vx, self._vy = px, py, vx, vy
        self._steps += 1

        cause = Cause.NONE
        reward = 0.0
        if self.geometry.in_lava(px, py):
            cause, reward = Cause.LAVA, self.lava_reward
        elif self.geometry.in_goal(px, py):
            cause, reward = Cause.GOAL, self.goal_reward
        elif self._steps >= self.horizon:
            cause = Cause.TIMEOUT
        terminated = cause is not Cause.NONE
        self._terminated = terminated
        return StepResult(self.state, reward, terminated, cause)

    def is_terminal(self, state: State) -> Cause:
        """State-based termination indicator; timeout is counter-based, never here."""
        x, y = state.position.x, state.position.y
        if self.geometry.in_lava(x, y):
            return Cause.LAVA
        if self.geometry.in_goal(x, y):
            return Cause.GOAL
        return Cause.NONE

    # -- identity ------------------------------------------------------------

    def geometry_hash(self) -> str:
        """Digest of geometry plus dynamics constants; stamps demo archives."""
        geo = self.geometry
        parts = [
            f"world={geo.world}",
            "lava=" + "|".join(map(repr, geo.lava)),
            f"goal={geo.goal_center!r}@{geo.goal_radius!r}",
            "p0=" + "|".join(f"{m!r}~{s!r}" for m, s in geo.start_blobs),
            "ood=" + "|".join(map(repr, geo.ood_points)) + f"~{geo.ood_jitter!r}",
            f"dyn=dt{self.dt!r},f{self.f_max!r},v{self.v_max!r},c{self.drag!r}",
            f"rew={self.goal_reward!r},{self.lava_reward!r}",
        ]
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]
