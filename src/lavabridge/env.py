"""Lava Bridge: a deterministic 2D point-mass world with sparse rewards.

Two open regions are joined by a narrow corridor flanked by terminal lava
strips. The agent is a unit point mass pushed around by a bounded 2D force;
the only non-zero rewards are +1 for entering the goal disc and -1 for
touching lava, both of which end the episode. The simulator supports
resetting to any non-terminal state, which is the affordance the start-state
samplers in this package are built on.

Inside the package a state is a float64 row ``[px, py, vx, vy]``: ``(4,)``
for one state, ``(n, 4)`` for many. A force is an ``(fx, fy)`` pair of
floats. ``EnvSettings`` holds every constant of the world: its geometry
(``Rect`` and ``Vec2`` values), dynamics and rewards. ``State`` is kept only
as the argument of ``is_terminal``. One pure ``LavaBridgeEnv.transitions`` over
rows is the scalar dynamics that ``step`` and ``evaluate`` run.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Cause",
    "EnvSettings",
    "InvalidResetError",
    "EpisodeOverError",
    "LavaBridgeEnv",
    "Rect",
    "State",
    "StepResult",
    "Vec2",
    "state_rows",
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


# Bound once: an enum member lookup costs several times a global read, once per row.
_NONE, _GOAL, _LAVA, _TIMEOUT = Cause.NONE, Cause.GOAL, Cause.LAVA, Cause.TIMEOUT


@dataclass(frozen=True, slots=True)
class Vec2:
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class State:
    """Point-mass state: planar position (m) and velocity (m/s).

    The package itself holds states as ``(4,)`` float64 rows. This class
    survives only because ``LavaBridgeEnv.is_terminal`` takes one, and callers
    outside the package (the benchmark among them) pass it that way.
    """

    position: Vec2
    velocity: Vec2


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle, closed on all sides."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass(frozen=True)
class EnvSettings:
    """Every constant of the world: bounds, lava, goal disc, start distributions, dynamics, rewards.

    ``start_blobs`` parameterizes the task's own start distribution as an
    equal-weight mixture of isotropic Gaussians (zero start velocity).
    ``ood_points`` is a disjoint set of probe locations used only for
    robustness evaluation, jittered by ``ood_jitter``. Each field is one
    ``env.<name>`` config key; construction runs ``validate``.
    """

    world: Rect = Rect(0.0, 0.0, 10.0, 10.0)
    lava: tuple[Rect, ...] = (Rect(4.0, 0.0, 6.0, 4.5), Rect(4.0, 5.5, 6.0, 10.0))
    goal: Vec2 = Vec2(9.0, 5.0)
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
    dt: float = 0.1
    f_max: float = 1.0
    v_max: float = 2.0
    drag: float = 0.1
    goal_reward: float = 1.0
    lava_reward: float = -1.0

    def __post_init__(self):
        self.validate()

    def build(self, horizon: int) -> LavaBridgeEnv:
        return LavaBridgeEnv(self, horizon=horizon)

    def in_lava(self, x: float, y: float) -> bool:
        for xmin, xmax, ymin, ymax in self._lava_rects:
            if xmin <= x <= xmax and ymin <= y <= ymax:
                return True
        return False

    @cached_property
    def _lava_rects(self) -> tuple[tuple[float, float, float, float], ...]:
        """The xmin, xmax, ymin and ymax of each lava rectangle, read by ``in_lava``."""
        return tuple((r.xmin, r.xmax, r.ymin, r.ymax) for r in self.lava)

    def in_goal(self, x: float, y: float) -> bool:
        dx, dy = x - self.goal.x, y - self.goal.y
        return math.sqrt(dx * dx + dy * dy) <= self.goal_radius

    @cached_property
    def _lava_bounds(self) -> np.ndarray:
        """``(4, R, 1)``: the xmin, xmax, ymin and ymax of each lava rectangle."""
        return np.array(self._lava_rects).T.reshape(4, -1, 1)

    def terminal_masks(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Array form of ``in_lava`` and ``in_goal`` over the positions ``(px[i], py[i])``.

        Returns two bool arrays: in lava (the rectangles are closed), and in
        the goal disc but not in lava, since lava wins where they overlap.
        Each element makes the scalar tests' comparisons on the same
        ``sqrt(dx * dx + dy * dy)``, so the masks agree with them exactly.
        """
        xmin, xmax, ymin, ymax = self._lava_bounds
        lava = ((px >= xmin) & (px <= xmax) & (py >= ymin) & (py <= ymax)).any(axis=0)
        dx = px - self.goal.x
        dy = py - self.goal.y
        goal = np.sqrt(dx * dx + dy * dy) <= self.goal_radius
        goal &= ~lava
        return lava, goal

    def validate(self) -> None:
        w = self.world
        if not (w.xmin < w.xmax and w.ymin < w.ymax):
            raise ValueError("degenerate world bounds")
        for rect in self.lava:
            if not (w.xmin <= rect.xmin <= rect.xmax <= w.xmax
                    and w.ymin <= rect.ymin <= rect.ymax <= w.ymax):
                raise ValueError(f"lava rectangle {rect} escapes world bounds")
        if self.in_lava(self.goal.x, self.goal.y) or not w.contains(self.goal.x, self.goal.y):
            raise ValueError(f"goal center {self.goal} is in lava or out of bounds")
        if not self.goal_radius > 0.0:
            raise ValueError(f"goal_radius {self.goal_radius} must be positive")
        if not (self.start_blobs and self.ood_points):
            raise ValueError("start_blobs and ood_points must not be empty")
        for mean, std in self.start_blobs:
            if self.in_lava(mean.x, mean.y) or not w.contains(mean.x, mean.y):
                raise ValueError(f"start blob mean {mean} is terminal or out of bounds")
            if not std >= 0.0:
                raise ValueError(f"start_blobs std {std} must be >= 0")
        if not self.ood_jitter >= 0.0:
            raise ValueError(f"ood_jitter {self.ood_jitter} must be >= 0")
        for pt in self.ood_points:
            if self.in_lava(pt.x, pt.y) or not w.contains(pt.x, pt.y):
                raise ValueError(f"OOD point {pt} is terminal or out of bounds")
        if not (self.dt > 0 and self.f_max > 0 and self.v_max > 0):
            raise ValueError("dt, f_max, v_max must be positive")


@dataclass(frozen=True, slots=True)
class StepResult:
    """Outcome of one ``step``; the state reached is ``env.state``."""

    reward: float
    terminated: bool
    cause: Cause


def state_rows(states) -> np.ndarray:
    """``states`` as an ``(S, 4)`` float64 array of ``[px, py, vx, vy]`` rows.

    An empty sequence gives ``(0, 4)``. Anything else that is not ``(S, 4)``
    raises ``InvalidResetError`` naming its shape, so a lone ``(4,)`` state or
    an ``(8,)`` array is never read as rows.
    """
    try:
        rows = np.asarray(states, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidResetError("reset states are not an array of numbers") from None
    if rows.shape == (0,):
        return rows.reshape(0, 4)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise InvalidResetError(f"reset states have shape {rows.shape}, expected (S, 4)")
    return rows


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

    def __init__(self, geometry: EnvSettings | None = None, *, horizon: int = 500):
        self.geometry = geo = geometry if geometry is not None else EnvSettings()
        # Copied once as floats: step_batch reads them every step, geometry_hash writes them.
        self.dt, self.f_max, self.v_max, self.drag = map(float, (geo.dt, geo.f_max, geo.v_max, geo.drag))
        self.goal_reward, self.lava_reward = float(geo.goal_reward), float(geo.lava_reward)
        # Packed once for transitions, which unpacks it into locals once per call.
        w, goal = geo.world, geo.goal
        self._consts = (self.f_max, self.dt, self.drag, self.v_max, w.xmin, w.xmax, w.ymin, w.ymax,
                        geo._lava_rects, goal.x, goal.y, geo.goal_radius)
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        blob = self.geometry.start_blobs[0][0]
        self._px, self._py, self._vx, self._vy = blob.x, blob.y, 0.0, 0.0
        self._steps = 0
        self._terminated = False

    # -- state access -------------------------------------------------------

    @property
    def state(self) -> np.ndarray:
        """The current state as a fresh ``(4,)`` float64 row ``[px, py, vx, vy]``."""
        return np.array([self._px, self._py, self._vx, self._vy])

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

    def reset_to(self, state) -> np.ndarray:
        """Place the simulator exactly at ``state`` and zero the step counter.

        ``state`` is any 4-vector ``[px, py, vx, vy]``; its entries are stored
        as Python floats, so ``env.state`` equals it bit for bit. Rejects
        states that are malformed (not four numbers) and those that
        ``check_states`` rejects. Returns ``env.state``.
        """
        try:
            row = np.asarray(state, dtype=np.float64)
        except (TypeError, ValueError):
            raise InvalidResetError(f"reset state {state!r} is not a 4-vector of numbers") from None
        if row.shape != (4,):
            raise InvalidResetError(f"reset state has shape {row.shape}, expected (4,)")
        self.check_states(row[None])
        self._px, self._py, self._vx, self._vy = row.tolist()
        self._steps = 0
        self._terminated = False
        return self.state

    def check_states(self, states) -> np.ndarray:
        """``states`` as an ``(S, 4)`` float64 array (see ``state_rows``) of valid reset targets.

        A row is valid when it is finite, inside the world bounds, not in lava
        and at most ``v_max`` fast, with a relative tolerance of 1e-12; the
        rules are tried in that order. Raises ``InvalidResetError`` for the
        first invalid row, naming the first rule it breaks. ``reset_to``
        checks its state here, so these rules have no other implementation.
        """
        rows = state_rows(states)
        px, py, vx, vy = rows.T
        world = self.geometry.world
        # Huge finite entries may square to inf, as Python floats do silently.
        with np.errstate(over="ignore"):
            lava, _ = self.geometry.terminal_masks(px, py)
            speed = np.sqrt(vx * vx + vy * vy)
        inside = (px >= world.xmin) & (px <= world.xmax) & (py >= world.ymin) & (py <= world.ymax)
        # NaN fails every comparison, so a non-finite row is caught here too.
        bad = lava | ~(inside & (speed <= self.v_max * (1.0 + 1e-12)))
        if not bad.any():
            return rows
        i = int(bad.argmax())
        x, y = rows[i, :2].tolist()
        if not np.isfinite(rows[i]).all():
            raise InvalidResetError("reset state has non-finite components")
        if not inside[i]:
            raise InvalidResetError(f"reset position ({x}, {y}) outside world bounds")
        if lava[i]:
            raise InvalidResetError(f"reset position ({x}, {y}) is inside lava")
        raise InvalidResetError(f"reset speed {speed[i]:.3f} exceeds v_max")

    def sample_start(self, which: str, rng: np.random.Generator) -> np.ndarray:
        """Draw a start state from ``"p0"`` (task distribution) or ``"ood"``.

        p0 picks one Gaussian blob uniformly and jitters around its mean; ood
        picks one probe point uniformly and jitters by ``ood_jitter``. Draws
        landing in lava or out of bounds are rejected and retried; after
        ``_MAX_START_REJECTS`` failures the unjittered center is returned.
        Velocity is always zero. Returns a ``(4,)`` float64 row.
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
                return np.array([x, y, 0.0, 0.0])
        return np.array([mean.x, mean.y, 0.0, 0.0])

    # -- dynamics ------------------------------------------------------------

    def transitions(self, states, forces) -> list[tuple]:
        """The next ``(px, py, vx, vy, cause)`` of each ``states`` row under its ``forces`` pair.

        Rows are ``(px, py, vx, vy)`` and pairs ``(fx, fy)``, matched by index. Pure:
        ``cause`` is LAVA, else GOAL where the next state lies, else NONE. The one scalar
        form of the dynamics: ``step`` and ``bench.evaluate`` run it.
        """
        f_max, dt, drag, v_max, xmin, xmax, ymin, ymax, lava, gx, gy, radius = self._consts
        sqrt = math.sqrt
        out = []
        for (px, py, vx, vy), (fx, fy) in zip(states, forces):
            # Actuator saturation: commands beyond the force budget are clamped.
            if fx > f_max:
                fx = f_max
            elif fx < -f_max:
                fx = -f_max
            if fy > f_max:
                fy = f_max
            elif fy < -f_max:
                fy = -f_max

            vx = vx + (fx - drag * vx) * dt
            vy = vy + (fy - drag * vy) * dt
            speed = sqrt(vx * vx + vy * vy)
            if speed > v_max:
                scale = v_max / speed
                vx *= scale
                vy *= scale
            px = px + vx * dt
            py = py + vy * dt

            if px < xmin:
                px, vx = xmin, 0.0
            elif px > xmax:
                px, vx = xmax, 0.0
            if py < ymin:
                py, vy = ymin, 0.0
            elif py > ymax:
                py, vy = ymax, 0.0

            # EnvSettings.in_goal, then in_lava, which wins where both hold.
            dx, dy = px - gx, py - gy
            cause = _GOAL if sqrt(dx * dx + dy * dy) <= radius else _NONE
            for x0, x1, y0, y1 in lava:
                if x0 <= px <= x1 and y0 <= py <= y1:
                    cause = _LAVA
                    break
            out.append((px, py, vx, vy, cause))
        return out

    def step(self, force) -> StepResult:
        """Advance one ``transitions`` row under the ``(fx, fy)`` force pair; count and reward it.

        Times out at ``horizon``. Raises EpisodeOverError after termination.
        """
        if self._terminated:
            raise EpisodeOverError("step() called on a terminated episode; reset first")
        (self._px, self._py, self._vx, self._vy, cause), = self.transitions(
            ((self._px, self._py, self._vx, self._vy),), (force,))
        self._steps += 1
        terminated = cause is not _NONE
        reward = 0.0
        if terminated:
            reward = self.lava_reward if cause is _LAVA else self.goal_reward
        elif self._steps >= self.horizon:
            cause, terminated = _TIMEOUT, True
        self._terminated = terminated
        return StepResult(reward, terminated, cause)

    def step_batch(
        self, states: np.ndarray, forces: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step N independent rows at once; row i equals row i of ``transitions``.

        ``states`` is ``(N, 4)`` ``[px, py, vx, vy]`` and ``forces`` is
        ``(N, 2)``. Returns the next states and two ``(N,)`` bool masks:
        landed in lava, and landed in the goal disc (never both, since lava
        wins; see ``EnvSettings.terminal_masks``). The next states are a new
        ``(N, 4)`` array laid out column by column (Fortran order), so each
        of its columns is contiguous; fed back in, it steps without a copy.

        Row i matches ``transitions`` bit for bit, in state and cause, because
        both paths run the same correctly rounded IEEE-754 operations in the
        same order; the norms are ``sqrt(x * x + y * y)`` on both, and neither
        Python nor separate numpy ufuncs fuse them into an FMA. The speed clip
        and the wall clamps touch only the rows that take them; on the others
        ``transitions`` leaves the values alone too. Rows are reachable states
        (finite, within the world, at most ``v_max`` fast), so the squares
        cannot overflow. Like ``transitions``, this is a pure function of its
        arguments, and timeouts are left to the caller.
        """
        s = np.asarray(states, dtype=np.float64)
        f = np.asarray(forces, dtype=np.float64)
        dt = self.dt
        out = np.empty((4, len(s))).T
        px, py, vx, vy = out[:, 0], out[:, 1], out[:, 2], out[:, 3]
        # Actuator saturation, as step clamps each component.
        f = np.maximum(f, -self.f_max)
        np.minimum(f, self.f_max, out=f)
        for v, v0, fv in ((vx, s[:, 2], f[:, 0]), (vy, s[:, 3], f[:, 1])):
            np.multiply(v0, self.drag, out=v)
            np.subtract(fv, v, out=v)
            v *= dt
            v += v0  # v0 + (f - drag * v0) * dt
        speed = vx * vx
        speed += vy * vy
        np.sqrt(speed, out=speed)
        over = np.flatnonzero(speed > self.v_max)
        if len(over):
            scale = self.v_max / speed[over]
            vx[over] *= scale
            vy[over] *= scale

        world = self.geometry.world
        for p, v, p0, lo, hi in ((px, vx, s[:, 0], world.xmin, world.xmax),
                                 (py, vy, s[:, 1], world.ymin, world.ymax)):
            np.multiply(v, dt, out=p)
            p += p0
            for bound, hit in ((lo, p < lo), (hi, p > hi)):
                if hit.any():
                    p[hit] = bound
                    v[hit] = 0.0

        lava, goal = self.geometry.terminal_masks(px, py)
        return out, lava, goal

    def is_terminal(self, state: State) -> Cause:
        """State-based termination indicator; timeout is counter-based, never here.

        Takes a ``State``: the one reason that class survives (see its docstring).
        """
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
            f"goal={geo.goal!r}@{geo.goal_radius!r}",
            "p0=" + "|".join(f"{m!r}~{s!r}" for m, s in geo.start_blobs),
            "ood=" + "|".join(map(repr, geo.ood_points)) + f"~{geo.ood_jitter!r}",
            f"dyn=dt{self.dt!r},f{self.f_max!r},v{self.v_max!r},c{self.drag!r}",
            f"rew={self.goal_reward!r},{self.lava_reward!r}",
        ]
        return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]
