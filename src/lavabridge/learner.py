"""Entropy-regularized off-policy actor-critic with twin critics.

A compact SAC-style learner over the 4D point-mass state: squashed-Gaussian
policy, twin Q networks with Polyak-averaged targets, fixed entropy
coefficient, Adam everywhere. Timeouts are not treated as environment
termination when bootstrapping (the horizon is a harness artifact, not part
of the dynamics).

Also hosts the per-episode training driver, ``train_for_one_episode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Cause, LavaBridgeEnv
from .nets import MLP, Adam, SquashedGaussianHead, ema_update
from .replay import ReplayBuffer

__all__ = [
    "DivergenceError",
    "EpisodeResult",
    "LearnerConfig",
    "SACLearner",
    "train_for_one_episode",
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if not (math.isfinite(self.log_std_min) and math.isfinite(self.log_std_max)):
            raise ValueError("log_std_min and log_std_max must be finite")
        if self.log_std_min >= self.log_std_max:
            raise ValueError("log_std_min must be below log_std_max")
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

    state_dim, act_dim = 4, 2  # a state [px, py, vx, vy], a force (fx, fy)

    def __init__(
        self,
        cfg: LearnerConfig,
        init_rng: np.random.Generator,
        noise_rng: np.random.Generator,
        f_max: float = 1.0,
    ):
        self.cfg = cfg
        self.f_max = f_max
        self.noise_rng = noise_rng
        self.dtype = np.dtype(cfg.dtype)

        pol_sizes = (self.state_dim, *cfg.hidden, 2 * self.act_dim)
        q_sizes = (self.state_dim + self.act_dim, *cfg.hidden, 1)
        self.policy = MLP(pol_sizes, init_rng, dtype=self.dtype)
        self.q = MLP(q_sizes, init_rng, dtype=self.dtype, members=2)
        self.q_target = MLP(q_sizes, dtype=self.dtype, members=2)
        self.q_target.copy_from(self.q)
        self.head = SquashedGaussianHead(self.act_dim, f_max, cfg.log_std_min, cfg.log_std_max)

        self.policy_opt = Adam(self.policy, cfg.lr)
        self.q_opt = Adam(self.q, cfg.lr)
        self.updates = 0

    # -- acting ---------------------------------------------------------------

    def act(self, state, stochastic: bool) -> tuple[float, float]:
        """Force pair ``(fx, fy)`` for one ``(4,)`` state.

        Deterministic mode takes the squashed mean. The state is float64, so
        a float32 policy's forward is promoted to float64 here.
        """
        s = np.asarray(state, dtype=np.float64)
        out = self.policy.forward(s[None, :])[0][0]
        if not np.isfinite(out).all():
            raise DivergenceError("policy network produced non-finite output")
        if stochastic:
            xi = self.noise_rng.standard_normal((1, self.act_dim))
            a = self.head.action(out, xi)
        else:
            a = self.head.mean_action(out)
        return float(a[0, 0]), float(a[0, 1])

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Deterministic squashed-mean forces (N, act_dim) for states (N, state_dim).

        Row i equals ``act(states[i], stochastic=False)`` bit for bit. The
        input is stacked as (N, 1, in): numpy's matmul then runs the same
        single-row matrix-vector product once per row that ``act`` runs. A
        plain (N, in) batch takes the matrix-matrix path, whose rounding
        differs from it in nearly every row. As in ``act``, the input is
        float64, so a float32 policy runs in float64 here.
        """
        s = np.asarray(states, dtype=np.float64)
        out = self.policy.forward(s[:, None, :])[0][:, 0]
        if not np.isfinite(out).all():
            raise DivergenceError("policy network produced non-finite output")
        return self.head.mean_action(out)

    # -- updates ----------------------------------------------------------------

    def update_step(self, buffer: ReplayBuffer) -> dict:
        """One gradient step on both critics, the policy, and the targets.

        Critic targets are r + gamma * (1 - done) * (min twin target Q of the
        next sampled action - alpha * its log-prob); the policy descends
        alpha * log pi - min twin Q with reparameterized samples. One actor
        pass over [s2; s] with one noise draw serves both: its first half
        the targets, its second half the policy step. Raises
        ``DivergenceError`` when a float overflows or a loss is not finite.
        """
        cfg = self.cfg
        dt = self.dtype
        rng = self.noise_rng
        batch = cfg.batch_size
        try:
            # A float32 pre-activation beyond ~1.8e19 overflows z * z, and the
            # activation would silently read 0 instead of +-1.
            with np.errstate(over="raise"):
                rows = np.asarray(buffer.sample(batch, rng), dtype=dt)
                s, _, r, s2, done = buffer.split(rows)

                out, pc = self.policy.forward(np.concatenate([s2, s]))
                xi = rng.standard_normal((2 * batch, self.act_dim), dtype=dt)
                a_pi, logp, head_cache = self.head.sample(out[0], xi)

                # Critic targets (no gradients flow here).
                sa2 = np.concatenate([s2, a_pi[:batch]], axis=1)
                qt_pair, _ = self.q_target.forward(sa2, keep_cache=False)
                qt = np.minimum(qt_pair[0, :, 0], qt_pair[1, :, 0])
                y = r + cfg.gamma * (1.0 - done) * (qt - cfg.alpha * logp[:batch])

                # Twin critic regression on the [s | a] columns of the packed rows,
                # then a reparameterized policy step against the updated critics.
                critic_loss, qg = self.critic_loss_and_grads(buffer.state_actions(rows), y)
                self.q_opt.step(qg)

                half = slice(batch, 2 * batch)
                actor = (MLP.cache_rows(pc, half), a_pi[half], logp[half],
                         tuple(c[half] for c in head_cache))
                policy_loss, pg, logp_s = self.policy_loss_and_grads(s, actor)
                self.policy_opt.step(pg)

                ema_update(self.q_target, self.q, cfg.tau)
        except FloatingPointError as e:
            raise DivergenceError(f"overflow in update {self.updates + 1}: {e}") from e
        self.updates += 1

        entropy = float(-(np.add.reduce(logp_s) / batch))
        if not (math.isfinite(critic_loss) and math.isfinite(policy_loss)):
            raise DivergenceError(
                f"non-finite losses at update {self.updates}: critic={critic_loss}, policy={policy_loss}"
            )
        return {
            "critic_loss": critic_loss,
            "policy_loss": policy_loss,
            "entropy": entropy,
        }

    def critic_loss_and_grads(self, sa: np.ndarray, y: np.ndarray):
        """Summed twin MSE of the critics on state-action rows ``sa`` = [s | a]
        toward fixed targets ``y``; one flat gradient for the pair."""
        dt = self.dtype
        sa = np.asarray(sa, dtype=dt)
        y = np.asarray(y, dtype=dt)
        batch = sa.shape[0]
        qq, cache = self.q.forward(sa)
        err = qq[:, :, 0] - y  # (2, batch)
        # add.reduce(x) / n is np.mean(x) bit for bit, without mean's wrapper.
        loss = float(np.add.reduce(err[0] * err[0]) / batch + np.add.reduce(err[1] * err[1]) / batch)
        grad, _ = self.q.backward(cache, (2.0 / batch) * err[:, :, None], input_cols=None)
        return loss, grad

    def policy_loss_and_grads(self, s: np.ndarray, actor):
        """mean(alpha * log pi - min twin Q) of the reparameterized actor pass
        ``actor`` = (policy cache, action, log-prob, head cache) made over
        ``s``; returns (loss, flat policy gradient, per-sample log-probs)."""
        dt = self.dtype
        s = np.asarray(s, dtype=dt)
        batch = s.shape[0]
        alpha = self.cfg.alpha
        pc, a_new, logp, head_cache = actor
        sa_new = np.concatenate([s, a_new], axis=1)
        qq, qc = self.q.forward(sa_new)
        take1 = qq[0, :, 0] <= qq[1, :, 0]
        q_min = np.where(take1, qq[0, :, 0], qq[1, :, 0])
        loss = float(np.add.reduce(alpha * logp - q_min) / batch)

        dq = np.zeros((2, batch, 1), dtype=dt)
        np.copyto(dq[0, :, 0], -1.0 / batch, where=take1)
        np.copyto(dq[1, :, 0], -1.0 / batch, where=~take1)
        # Only the action columns of the critics' input gradient are needed.
        _, dx = self.q.backward(qc, dq, params=False, input_cols=slice(self.state_dim, None))
        d_action = dx[0] + dx[1]
        d_logp = np.full(batch, alpha / batch, dtype=dt)
        d_out = self.head.backward(head_cache, d_action, d_logp)
        grads, _ = self.policy.backward(pc, d_out[None], input_cols=None)
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
) -> EpisodeResult:
    """Roll the stochastic policy from ``s0``, storing transitions and updating.

    The episode ends when ``env`` terminates it: in lava, at the goal, or at
    its own ``horizon``. Gradient updates begin once the buffer holds at
    least one batch of non-frozen samples; each environment step then
    triggers ``cfg.grad_steps`` updates. Timeout transitions are stored with
    done=False so the critic keeps bootstrapping through them.
    """
    env.reset_to(s0)
    cfg = learner.cfg
    total = 0.0
    length = 0
    s = env.state
    while True:
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
            return EpisodeResult(length=length, ep_return=total, cause=res.cause)
