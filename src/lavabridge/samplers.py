"""Start rules: where each training episode starts.

Every rule draws a start by ``sample(rng) -> (i, s0)`` and takes its
episode's feedback by ``observe(i, ep_len, cause, t)``. ``P0Start`` and
``JumpStart`` hold no weights. The samplers hold a weight vector ``W`` over
an ``(n, 4)`` float64 array of demo states (categorical sampling probability
``W[j] / sum(W)``) and may adjust it from episode feedback. Four flavors:

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

from . import safety
from .env import Cause, LavaBridgeEnv, Vec2

__all__ = [
    "SamplerConfig",
    "SamplerWeights",
    "P0Start",
    "JumpStart",
    "StartStateSampler",
    "EpisodeLengthSampler",
    "UniformSampler",
    "GoalDistSampler",
    "SafetyWeightedSampler",
]


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
    # state is fully safe under the random policy at k=4 (one distinct
    # weight over 150 states at n=64; 11 at k=20, 26 at k=40), so at this
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
        if len(self.scale) != 4 or min(self.scale) <= 0.0:
            raise ValueError(f"scale must be 4 positive entries, got {self.scale}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not self.tau0 > 0.0:
            raise ValueError("tau0 must be positive")
        if self.tau0 > self.tau1:
            raise ValueError("tau0 must not exceed tau1")
        if self.k_safety < 1:
            raise ValueError("k_safety must be >= 1")
        if self.n_safety_rollouts < 1:
            raise ValueError("n_safety_rollouts must be >= 1")


# -- start rules --------------------------------------------------------------


class P0Start:
    """The task's own start distribution, ``env.sample_start("p0", rng)``; index None."""

    def __init__(self, env: LavaBridgeEnv):
        self.env = env

    def sample(self, rng: np.random.Generator) -> tuple[int | None, np.ndarray]:
        return None, self.env.sample_start("p0", rng)

    def observe(self, i: int | None, ep_len: int, cause: Cause, t: int) -> None:
        """Episode feedback; t is the cumulative env-step counter after the episode."""


class JumpStart(P0Start):
    """Receding-handover starts: late-trajectory states early in training.

    Picks one of ``trajectories`` (a ``(L_k, 4)`` state array each) uniformly
    and returns its state at fraction h(t) = 1 - t / T_max of its length, and
    that row's index in the trajectories laid end to end; t is the env-step
    clock of the last ``observe`` (0 before it): tails first, heads last. At
    t >= T_max (every draw if T_max = 0) the draw is ``env``'s p0.
    """

    def __init__(self, trajectories: list[np.ndarray], t_max: int, env: LavaBridgeEnv):
        super().__init__(env)
        self.trajectories = trajectories
        self.offsets = np.cumsum([0, *map(len, trajectories)]).tolist()
        self.t_max = int(t_max)
        self.t = 0

    def sample(self, rng: np.random.Generator) -> tuple[int | None, np.ndarray]:
        if self.t >= self.t_max:
            return super().sample(rng)
        k = int(rng.integers(len(self.trajectories)))
        states = self.trajectories[k]
        h = 1.0 - self.t / self.t_max
        j = int(h * (len(states) - 1))
        return self.offsets[k] + j, states[j]

    def observe(self, i: int | None, ep_len: int, cause: Cause, t: int) -> None:
        self.t = t


class StartStateSampler:
    """Common sampler base: weighted categorical draws over the demo states.

    The weights start at all ones, so every demo state gets visited at least
    once in expectation.
    """

    def __init__(self, demo: np.ndarray):
        if len(demo) == 0:
            raise ValueError("demo state archive is empty")
        self.demo = demo
        self.weights = SamplerWeights(np.ones(len(demo), dtype=np.float64))

    def sample(self, rng: np.random.Generator) -> tuple[int, np.ndarray]:
        """Categorical draw: index j with probability W[j] / sum(W), and its ``(4,)`` state."""
        i = int(rng.choice(len(self.weights.w), p=self.weights.probabilities()))
        return i, self.demo[i]

    def observe(self, i: int, ep_len: int, cause: Cause, t: int) -> None:
        """Episode feedback; t is the cumulative env-step counter after the episode."""

    def snapshot_csv(self, path) -> None:
        """Dump (index, state, weight) rows for inspection."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "px", "py", "vx", "vy", "weight"])
            for j, (s, w) in enumerate(zip(self.demo.tolist(), self.weights.w.tolist())):
                writer.writerow([j, *(f"{v:.17g}" for v in s), f"{w:.17g}"])


class EpisodeLengthSampler(StartStateSampler):
    """The adaptive sampler driven by episode length."""

    def __init__(self, demo: np.ndarray, horizon: int, cfg: SamplerConfig):
        super().__init__(demo)
        self.horizon = int(horizon)
        self.cfg = cfg

    def observe(self, i: int, ep_len: int, cause: Cause, t: int) -> None:
        """Episode-length feedback update.

        Target weight ``w* = max((H - L) / H, delta)`` replaces ``W[i]`` and is
        blended into neighbors j with kernel weight lambda_j:

            W_j <- (1 - lambda_j) * W_j + lambda_j * w*

        With ``cfg.cause_aware`` goal-terminated episodes cool straight to the
        floor instead (mastered states need no more visits); off by default.
        """
        cfg = self.cfg
        if not (0 <= ep_len <= self.horizon):
            raise ValueError(f"episode length {ep_len} outside [0, {self.horizon}]; harness bug")
        if not (0 <= i < len(self.demo)):
            raise ValueError(f"update index {i} out of range")
        if cfg.cause_aware and cause is Cause.GOAL:
            target = cfg.delta
        else:
            target = max((self.horizon - ep_len) / self.horizon, cfg.delta)
        # Unit-peak Gaussian in scaled squared Euclidean distance over all 4 dims;
        # lambda[i] == 1 exactly, so the updated state lands on its target weight.
        diff = (self.demo - self.demo[i]) / np.asarray(cfg.scale, dtype=np.float64)
        d2 = np.einsum("ij,ij->i", diff, diff)
        lam = np.exp(-d2 / (2.0 * cfg.sigma**2))
        self.weights = SamplerWeights((1.0 - lam) * self.weights.w + lam * target)


class UniformSampler(StartStateSampler):
    """Static uniform distribution over the demo states."""


class GoalDistSampler(StartStateSampler):
    """Exponential-in-goal-distance weights with linearly annealed temperature.

    tau(t) = tau0 + (tau1 - tau0) * t / T_max;  W_j ~ exp(-dist_j / tau(t)),
    rescaled so max W_j = 1. Low early temperature concentrates on near-goal
    states; the rising temperature flattens toward uniform. The weights are
    recomputed from the env-step clock, clamped to [0, T_max].
    """

    def __init__(self, demo: np.ndarray, goal: Vec2, t_max: int, cfg: SamplerConfig):
        super().__init__(demo)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.t_max = int(t_max)
        self.cfg = cfg
        dist = np.hypot(demo[:, 0] - goal.x, demo[:, 1] - goal.y)
        self._dist = dist - dist.min()  # shifted so max weight is exactly 1
        self._anneal(0)

    def observe(self, i: int, ep_len: int, cause: Cause, t: int) -> None:
        self._anneal(min(max(t, 0), self.t_max))

    def _anneal(self, t: int) -> None:
        tau = self.cfg.tau0 + (self.cfg.tau1 - self.cfg.tau0) * (t / self.t_max)
        self.weights = SamplerWeights(np.exp(-self._dist / tau))


class SafetyWeightedSampler(StartStateSampler):
    """Static safety-inverse weights: W_j ~ 1 / max(omega_j, epsilon), max-normalized.

    omega_j is the Monte Carlo safety of demo state j under a uniform-random
    policy over ``cfg.k_safety`` steps with ``cfg.n_safety_rollouts`` rollouts,
    from one ``safety.estimate_safety`` call over all demo states (its blocks
    of rollout rows each draw from a child spawned off ``rng``). Computed once
    at construction; the distribution never changes. At the default
    ``k_safety=4`` every demo state of the default geometry is fully safe, so
    every weight is 1.0 and omega samples exactly as the uniform sampler does.
    """

    def __init__(self, demo: np.ndarray, env, cfg: SamplerConfig, rng: np.random.Generator):
        super().__init__(demo)
        policy = safety.uniform_random_policy(env.f_max)
        omega = safety.estimate_safety(env, demo, policy, cfg.k_safety,
                                       cfg.n_safety_rollouts, rng).value
        w = 1.0 / np.maximum(omega, cfg.epsilon)
        self.weights = SamplerWeights(w / w.max())
