"""Entropy-regularized off-policy actor-critic with twin critics.

A compact SAC-style learner over the 4D point-mass state: squashed-Gaussian
policy, twin Q networks with Polyak-averaged targets, fixed entropy
coefficient, Adam everywhere. Timeouts are not treated as environment
termination when bootstrapping (the horizon is a harness artifact, not part
of the dynamics).

Also hosts the demo-prefill helper's companions: a per-episode training
driver and the receding-handover start-state rule used by the jump-start
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Cause, LavaBridgeEnv
from .nets import MLP, Adam, SquashedGaussianHead, ema_update
from .replay import ReplayBuffer
from .samplers import DemoStates

__all__ = [
    "DivergenceError",
    "EpisodeResult",
    "LearnerConfig",
    "SACLearner",
    "train_for_one_episode",
    "jsrl_start_state",
]


class DivergenceError(RuntimeError):
    """Raised when network outputs or losses stop being finite."""


@dataclass(frozen=True)
class EpisodeResult:
    """What one training episode reported back."""

    length: int
    ep_return: float  # undiscounted sum of rewards
    cause: Cause


@dataclass(frozen=True)
class LearnerConfig:
    gamma: float = 0.99
    lr: float = 3e-4
    batch_size: int = 256
    tau: float = 0.005           # target smoothing coefficient
    alpha: float = 0.002         # fixed entropy coefficient
    hidden: tuple[int, ...] = (64, 64)
    grad_steps: int = 1          # gradient steps per environment step
    buffer_capacity: int = 10000
    log_std_min: float = -3.0
    log_std_max: float = 1.0
    dtype: str = "float32"       # training dtype; float64 for gradient checks

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch size exceeds buffer capacity")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must be in (0, 1]")
        if self.alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        if self.grad_steps < 1:
            raise ValueError("grad_steps must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


class SACLearner:
    """Policy + twin critics + targets, with hand-rolled updates."""

    def __init__(
        self,
        cfg: LearnerConfig,
        init_rng: np.random.Generator,
        noise_rng: np.random.Generator,
        state_dim: int = 4,
        act_dim: int = 2,
        f_max: float = 1.0,
    ):
        self.cfg = cfg
        self.state_dim = state_dim
        self.act_dim = act_dim
        self.f_max = f_max
        self.noise_rng = noise_rng
        self.dtype = np.dtype(cfg.dtype)

        pol_sizes = (state_dim, *cfg.hidden, 2 * act_dim)
        q_sizes = (state_dim + act_dim, *cfg.hidden, 1)
        self.policy = MLP(pol_sizes, init_rng, dtype=self.dtype)
        self.q = MLP(q_sizes, init_rng, dtype=self.dtype, members=2)
        self.q_target = MLP(q_sizes, dtype=self.dtype, members=2)
        self.q_target.copy_from(self.q)
        self.head = SquashedGaussianHead(act_dim, f_max, cfg.log_std_min, cfg.log_std_max)

        self.policy_opt = Adam(self.policy, cfg.lr)
        self.q_opt = Adam(self.q, cfg.lr)
        self.updates = 0

    # -- acting ---------------------------------------------------------------

    def act(
        self, state, stochastic: bool, rng: np.random.Generator | None = None
    ) -> tuple[float, float]:
        """Force pair ``(fx, fy)`` for one ``(4,)`` state.

        Deterministic mode takes the squashed mean.
        """
        s = np.asarray(state, dtype=np.float64)
        out = self.policy.forward(s[None, :])[0][0]
        if not np.all(np.isfinite(out)):
            raise DivergenceError("policy network produced non-finite output")
        if stochastic:
            rng = rng if rng is not None else self.noise_rng
            xi = rng.standard_normal((1, self.act_dim))
            a, _, _ = self.head.sample(out, xi)
        else:
            a = self.head.mean_action(out)
        return float(a[0, 0]), float(a[0, 1])

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Deterministic squashed-mean forces (N, act_dim) for states (N, state_dim).

        Row i equals ``act(states[i], stochastic=False)`` bit for bit. The
        input is stacked as (N, 1, in): numpy's matmul then runs the same
        single-row matrix-vector product once per row that ``act`` runs. A
        plain (N, in) batch takes the matrix-matrix path, whose rounding
        differs from it in nearly every row.
        """
        s = np.asarray(states, dtype=np.float64)
        out = self.policy.forward(s[:, None, :])[0][:, 0]
        if not np.all(np.isfinite(out)):
            raise DivergenceError("policy network produced non-finite output")
        return self.head.mean_action(out)

    # -- updates ----------------------------------------------------------------

    def update_step(self, buffer: ReplayBuffer, rng: np.random.Generator | None = None) -> dict:
        """One gradient step on both critics, the policy, and the targets.

        Critic targets are r + gamma * (1 - done) * (min twin target Q of the
        next sampled action - alpha * its log-prob); the policy descends
        alpha * log pi - min twin Q with reparameterized samples.
        """
        cfg = self.cfg
        dt = self.dtype
        rng = rng if rng is not None else self.noise_rng
        s, a, r, s2, done = buffer.sample(cfg.batch_size, rng)
        s = s.astype(dt)
        a = a.astype(dt)
        r = r.astype(dt)
        s2 = s2.astype(dt)
        done = done.astype(dt)
        batch = s.shape[0]

        # Critic targets (no gradients flow here).
        out2 = self.policy.forward(s2)[0][0]
        xi2 = rng.standard_normal((batch, self.act_dim), dtype=dt)
        a2, logp2, _ = self.head.sample(out2, xi2)
        sa2 = np.concatenate([s2, a2], axis=1)
        qt_pair, _ = self.q_target.forward(sa2)
        qt = np.minimum(qt_pair[0, :, 0], qt_pair[1, :, 0])
        y = r + cfg.gamma * (1.0 - done) * (qt - cfg.alpha * logp2)

        # Twin critic regression, then a reparameterized policy step against
        # the updated critics.
        critic_loss, qg = self.critic_loss_and_grads(s, a, y)
        self.q_opt.step(qg)

        xi = rng.standard_normal((batch, self.act_dim), dtype=dt)
        policy_loss, pg, logp = self.policy_loss_and_grads(s, xi)
        self.policy_opt.step(pg)

        ema_update(self.q_target, self.q, cfg.tau)
        self.updates += 1

        entropy = float(-np.mean(logp))
        if not (math.isfinite(critic_loss) and math.isfinite(policy_loss)):
            raise DivergenceError(
                f"non-finite losses at update {self.updates}: critic={critic_loss}, policy={policy_loss}"
            )
        return {
            "critic_loss": critic_loss,
            "policy_loss": policy_loss,
            "entropy": entropy,
        }

    def critic_loss_and_grads(self, s: np.ndarray, a: np.ndarray, y: np.ndarray):
        """Summed twin MSE toward fixed targets; one flat gradient for the pair."""
        dt = self.dtype
        s = np.asarray(s, dtype=dt)
        a = np.asarray(a, dtype=dt)
        y = np.asarray(y, dtype=dt)
        batch = s.shape[0]
        sa = np.concatenate([s, a], axis=1)
        qq, cache = self.q.forward(sa)
        err = qq[:, :, 0] - y  # (2, batch)
        loss = float(np.mean(err[0] ** 2) + np.mean(err[1] ** 2))
        grad, _ = self.q.backward(cache, (2.0 / batch) * err[:, :, None])
        return loss, grad

    def policy_loss_and_grads(self, s: np.ndarray, xi: np.ndarray):
        """mean(alpha * log pi - min twin Q) under fixed reparameterization
        noise ``xi``; returns (loss, flat policy gradient, per-sample log-probs)."""
        dt = self.dtype
        s = np.asarray(s, dtype=dt)
        xi = np.asarray(xi, dtype=dt)
        batch = s.shape[0]
        alpha = self.cfg.alpha
        out, pc = self.policy.forward(s)
        a_new, logp, head_cache = self.head.sample(out[0], xi)
        sa_new = np.concatenate([s, a_new], axis=1)
        qq, qc = self.q.forward(sa_new)
        take1 = qq[0, :, 0] <= qq[1, :, 0]
        q_min = np.where(take1, qq[0, :, 0], qq[1, :, 0])
        loss = float(np.mean(alpha * logp - q_min))

        dq = np.zeros((2, batch, 1), dtype=dt)
        dq[0, take1, 0] = -1.0 / batch
        dq[1, ~take1, 0] = -1.0 / batch
        _, dx = self.q.backward(qc, dq)
        d_action = dx[0, :, self.state_dim:] + dx[1, :, self.state_dim:]
        d_logp = np.full(batch, alpha / batch, dtype=dt)
        d_out = self.head.backward(head_cache, d_action, d_logp)
        grads, _ = self.policy.backward(pc, d_out[None])
        return loss, grads, logp

    # -- parameter access ---------------------------------------------------------

    def named_networks(self) -> dict[str, list[np.ndarray]]:
        """Parameter arrays by network name, fit for checkpointing."""
        return {
            "policy": self.policy.member_params(0),
            "q1": self.q.member_params(0),
            "q2": self.q.member_params(1),
            "q1_target": self.q_target.member_params(0),
            "q2_target": self.q_target.member_params(1),
        }


def train_for_one_episode(
    env: LavaBridgeEnv,
    s0: np.ndarray,
    learner: SACLearner,
    buffer: ReplayBuffer,
    horizon: int,
) -> EpisodeResult:
    """Roll the stochastic policy from ``s0``, storing transitions and updating.

    Gradient updates begin once the buffer holds at least one batch of
    non-frozen samples; each environment step then triggers
    ``cfg.grad_steps`` updates. Timeout transitions are stored with
    done=False so the critic keeps bootstrapping through them.
    """
    env.reset_to(s0)
    cfg = learner.cfg
    total = 0.0
    length = 0
    cause = Cause.NONE
    s = env.state
    for _ in range(horizon):
        a = learner.act(s, stochastic=True)
        res = env.step(a)
        s2 = env.state
        buffer.add(s, a, res.reward, s2, res.cause in (Cause.GOAL, Cause.LAVA))
        s = s2
        total += res.reward
        length += 1
        if buffer.online_size >= cfg.batch_size:
            for _ in range(cfg.grad_steps):
                learner.update_step(buffer)
        if res.terminated:
            cause = res.cause
            break
    if cause is Cause.NONE:  # driver horizon shorter than the env's own
        cause = Cause.TIMEOUT
    return EpisodeResult(length=length, ep_return=total, cause=cause)


def jsrl_start_state(
    demo: DemoStates,
    t: int,
    t_max: int,
    rng: np.random.Generator,
    env: LavaBridgeEnv | None = None,
) -> np.ndarray:
    """Receding-handover reset: late-trajectory states early in training.

    Picks a demo trajectory uniformly and returns the state at fraction
    h(t) = 1 - t / T_max of its length, so resets start at the trajectory
    tail and walk back to its head as training progresses. At t >= T_max the
    handover has fully receded and the draw comes from the task's own start
    distribution (requires ``env``).
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if t >= t_max:
        if env is None:
            raise ValueError("receded past the demo states; need env to draw from p0")
        return env.sample_start("p0", rng)
    tids = np.unique(demo.trajectory_ids)
    rows = np.flatnonzero(demo.trajectory_ids == tids[int(rng.integers(len(tids)))])
    h = 1.0 - t / t_max
    return demo.states[rows[int(h * (len(rows) - 1))]]
