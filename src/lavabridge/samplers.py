"""Start-state distributions over a fixed archive of demonstration states.

All samplers share one contract: they hold a weight vector ``W`` over the
demo states (categorical sampling probability ``W[j] / sum(W)``) and may
adjust it from episode feedback. Four flavors:

* episode-length driven (``EpisodeLengthSampler``): after an episode started
  from state ``i`` ran for ``L`` of at most ``H`` steps, the weight at ``i``
  is retargeted to ``max((H - L) / H, delta)`` and the change is smeared onto
  nearby demo states with a unit-peak Gaussian kernel. Short episodes (quick
  terminations) keep a state hot; episodes that survive to the horizon cool
  it down to the floor ``delta``.
* uniform: all ones, never updated.
* goal-distance: weights fall off exponentially with distance to the goal,
  flattened over training by an annealed temperature.
* safety-weighted: static weights inversely proportional to a Monte Carlo
  state-safety estimate under a random policy, computed once up front.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .env import Cause, State, Vec2

__all__ = [
    "DemoStates",
    "SamplerConfig",
    "SamplerWeights",
    "StartStateSampler",
    "EpisodeLengthSampler",
    "UniformSampler",
    "GoalDistSampler",
    "SafetyWeightedSampler",
    "init_weights",
    "sample_index",
    "update_auxss",
    "goal_dist_weights",
    "omega_weights",
    "save_weights_csv",
    "load_weights_csv",
]


@dataclass(frozen=True)
class DemoStates:
    """Ordered demo-state archive plus the id of the trajectory each came from."""

    states: tuple[State, ...]
    trajectory_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) == 0:
            raise ValueError("demo state archive is empty")
        if len(self.states) != len(self.trajectory_ids):
            raise ValueError("states and trajectory_ids length mismatch")

    def __len__(self) -> int:
        return len(self.states)

    def as_array(self) -> np.ndarray:
        """(n, 4) float64 view [px, py, vx, vy], built on demand."""
        return np.array([s.as_array() for s in self.states], dtype=np.float64)


@dataclass
class SamplerWeights:
    """Weight vector over demo states."""

    w: np.ndarray

    def probabilities(self) -> np.ndarray:
        return self.w / self.w.sum()


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by the sampler family; defaults are desk-scale choices."""

    kind: str = "auxss"          # recorded in config.txt; run.method picks the sampler
    delta: float = 0.05          # weight floor, keeps every state sampleable
    sigma: float = 0.5           # smoothing kernel length in state units
    scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    epsilon: float = 0.05        # safety-weighting floor on estimated safety
    # Safety rollout horizon (steps). With the default geometry every demo
    # state is fully safe under the random policy for k <= 10 (one distinct
    # weight over 150 states at n=64; 13 at k=20, 26 at k=40), so at this
    # default the omega sampler is the uniform sampler.
    k_safety: int = 4
    n_safety_rollouts: int = 64
    tau0: float = 0.5            # goal-distance temperature at t=0
    tau1: float = 5.0            # goal-distance temperature at t=T_max
    cause_aware: bool = False    # optional variant: goal episodes cool to delta

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if min(self.scale) <= 0.0:
            raise ValueError("scale entries must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.tau0 > self.tau1:
            raise ValueError("tau0 must not exceed tau1")
        if self.n_safety_rollouts < 1:
            raise ValueError("n_safety_rollouts must be >= 1")


# -- weight-vector operations ------------------------------------------------


def init_weights(demo: DemoStates) -> SamplerWeights:
    """All-ones start so every demo state gets visited at least once in expectation."""
    return SamplerWeights(np.ones(len(demo), dtype=np.float64))


def sample_index(weights: SamplerWeights, rng: np.random.Generator) -> int:
    """Categorical draw: index j with probability W[j] / sum(W)."""
    return int(rng.choice(len(weights.w), p=weights.probabilities()))


def _smoothing_kernel(demo_array: np.ndarray, i: int, cfg: SamplerConfig) -> np.ndarray:
    # Unit-peak Gaussian in scaled squared Euclidean distance over all 4 dims;
    # lambda[i] == 1 exactly, so the updated state lands on its target weight.
    diff = (demo_array - demo_array[i]) / np.asarray(cfg.scale, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", diff, diff)
    return np.exp(-d2 / (2.0 * cfg.sigma**2))


def update_auxss(
    weights: SamplerWeights,
    i: int,
    ep_len: int,
    horizon: int,
    demo: DemoStates,
    cfg: SamplerConfig,
    demo_array: np.ndarray | None = None,
    cause: Cause | None = None,
) -> SamplerWeights:
    """Episode-length feedback update.

    Target weight ``w* = max((H - L) / H, delta)`` replaces ``W[i]`` and is
    blended into neighbors j with kernel weight lambda_j:

        W_j <- (1 - lambda_j) * W_j + lambda_j * w*

    With ``cfg.cause_aware`` goal-terminated episodes cool straight to the
    floor instead (mastered states need no more visits); off by default.
    ``demo_array`` may pass a precomputed ``demo.as_array()``.
    """
    if not (0 <= ep_len <= horizon):
        raise ValueError(f"episode length {ep_len} outside [0, {horizon}]; harness bug")
    if not (0 <= i < len(demo)):
        raise ValueError(f"update index {i} out of range")
    if cfg.cause_aware and cause is Cause.GOAL:
        target = cfg.delta
    else:
        target = max((horizon - ep_len) / horizon, cfg.delta)
    if demo_array is None:
        demo_array = demo.as_array()
    lam = _smoothing_kernel(demo_array, i, cfg)
    w = (1.0 - lam) * weights.w + lam * target
    return SamplerWeights(w)


def goal_dist_weights(
    demo: DemoStates,
    goal: Vec2,
    t: int,
    t_max: int,
    cfg: SamplerConfig,
    demo_array: np.ndarray | None = None,
) -> SamplerWeights:
    """Exponential-in-goal-distance weights with linearly annealed temperature.

    tau(t) = tau0 + (tau1 - tau0) * t / T_max;  W_j ~ exp(-dist_j / tau(t)),
    rescaled so max W_j = 1. Low early temperature concentrates on near-goal
    states; the rising temperature flattens toward uniform.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not (0 <= t <= t_max):
        raise ValueError(f"t={t} outside [0, {t_max}]")
    if demo_array is None:
        demo_array = demo.as_array()
    tau = cfg.tau0 + (cfg.tau1 - cfg.tau0) * (t / t_max)
    dist = np.hypot(demo_array[:, 0] - goal.x, demo_array[:, 1] - goal.y)
    w = np.exp(-(dist - dist.min()) / tau)  # shifted so max weight is exactly 1
    return SamplerWeights(w)


def omega_weights(demo: DemoStates, env, cfg: SamplerConfig, rng: np.random.Generator) -> SamplerWeights:
    """Static safety-inverse weights: W_j ~ 1 / max(omega_j, epsilon), max-normalized.

    omega_j is the Monte Carlo safety of demo state j under a uniform-random
    policy over ``cfg.k_safety`` steps with ``cfg.n_safety_rollouts`` rollouts.
    Computed once; the resulting distribution never changes.
    """
    from .safety import estimate_safety, uniform_random_policy

    policy = uniform_random_policy(env.f_max)
    omega = np.empty(len(demo), dtype=np.float64)
    for j, s in enumerate(demo.states):
        omega[j] = estimate_safety(
            env, s, policy, cfg.k_safety, cfg.n_safety_rollouts, rng
        ).value
    w = 1.0 / np.maximum(omega, cfg.epsilon)
    w /= w.max()
    return SamplerWeights(w)


# -- sampler objects ----------------------------------------------------------


class StartStateSampler:
    """Common interface: sample a start index/state, then observe the episode."""

    def __init__(self, demo: DemoStates):
        self.demo = demo
        self._array = demo.as_array()
        self.weights = init_weights(demo)

    def sample(self, rng: np.random.Generator) -> tuple[int, State]:
        i = sample_index(self.weights, rng)
        return i, self.demo.states[i]

    def observe(self, i: int, ep_len: int, cause: Cause, t: int) -> None:
        """Episode feedback; t is the cumulative env-step counter after the episode."""

    def snapshot_csv(self, path) -> None:
        save_weights_csv(path, self.demo, self.weights)


class EpisodeLengthSampler(StartStateSampler):
    """The adaptive sampler driven by episode length."""

    def __init__(self, demo: DemoStates, horizon: int, cfg: SamplerConfig):
        super().__init__(demo)
        self.horizon = int(horizon)
        self.cfg = cfg

    def observe(self, i: int, ep_len: int, cause: Cause, t: int) -> None:
        self.weights = update_auxss(
            self.weights, i, ep_len, self.horizon, self.demo, self.cfg,
            demo_array=self._array, cause=cause,
        )


class UniformSampler(StartStateSampler):
    """Static uniform distribution over the demo states."""


class GoalDistSampler(StartStateSampler):
    """Annealed goal-distance weights, recomputed from the env-step clock."""

    def __init__(self, demo: DemoStates, goal: Vec2, t_max: int, cfg: SamplerConfig):
        super().__init__(demo)
        self.goal = goal
        self.t_max = int(t_max)
        self.cfg = cfg
        self.weights = goal_dist_weights(demo, goal, 0, self.t_max, cfg, self._array)

    def observe(self, i: int, ep_len: int, cause: Cause, t: int) -> None:
        t = min(max(t, 0), self.t_max)
        self.weights = goal_dist_weights(self.demo, self.goal, t, self.t_max, self.cfg, self._array)


class SafetyWeightedSampler(StartStateSampler):
    """Static safety-inverse distribution, estimated once at construction."""

    def __init__(self, demo: DemoStates, env, cfg: SamplerConfig, rng: np.random.Generator):
        super().__init__(demo)
        self.cfg = cfg
        self.weights = omega_weights(demo, env, cfg, rng)


# -- snapshots -----------------------------------------------------------------

_SNAPSHOT_HEADER = ["index", "px", "py", "vx", "vy", "weight"]


def save_weights_csv(path, demo: DemoStates, weights: SamplerWeights) -> None:
    """Dump (index, state, weight) rows for inspection or resume."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SNAPSHOT_HEADER)
        for j, s in enumerate(demo.states):
            writer.writerow([
                j,
                f"{s.position.x:.17g}", f"{s.position.y:.17g}",
                f"{s.velocity.x:.17g}", f"{s.velocity.y:.17g}",
                f"{weights.w[j]:.17g}",
            ])


def load_weights_csv(path) -> tuple[DemoStates, SamplerWeights]:
    """Rebuild (demo states, weights) from a snapshot.

    Trajectory ids are not stored in snapshots; they come back as -1.
    """
    states: list[State] = []
    w: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _SNAPSHOT_HEADER:
            raise ValueError(f"bad sampler snapshot header: {header}")
        for row in reader:
            _, px, py, vx, vy, weight = row
            states.append(State(Vec2(float(px), float(py)), Vec2(float(vx), float(vy))))
            w.append(float(weight))
    demo = DemoStates(states=tuple(states), trajectory_ids=tuple([-1] * len(states)))
    return demo, SamplerWeights(np.array(w))
