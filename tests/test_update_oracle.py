"""The SAC update as it was before the numpy rewrite, kept as a test oracle.

``OracleMLP.forward``/``backward`` and ``OracleLearner.update_step``,
``critic_loss_and_grads`` and ``policy_loss_and_grads`` are the code that the
current update replaced, copied verbatim, the way ``scalar_evaluate`` keeps
the scalar evaluation loop next to the lockstep one. The current update
rounds differently (``z / s`` for the activation, gemv bias gradients, an
input gradient over the action columns only), so it is compared with the
oracle within a few ulps instead of bit for bit:

- on identical learner state, batch and noise (two generators in the same
  state; one ``(2B, 2)`` normal draw equals the oracle's two ``(B, 2)``
  draws);
- the critic targets ``y``, both losses, the log-probs, and the flat critic
  and policy gradients, each within ``ULPS`` units in the last place of the
  training dtype, relative to the norm of the oracle's value; the entropy,
  a mean of log-probs of both signs, relative to their mean magnitude;
- the policy gradient is taken against the critics that the current update
  stepped to, copied into the oracle at its critic step, so it compares one
  function on one input;
- parameters after Adam are not compared: at t=1 Adam moves every
  coordinate by +-lr, so a sign flip of a near-zero gradient moves a weight
  by 2 lr.
"""

import math

import numpy as np
import pytest

from lavabridge.learner import DivergenceError, LearnerConfig, SACLearner
from lavabridge.nets import MLP, ema_update
from lavabridge.replay import ReplayBuffer

from test_nets import H, TOL, max_rel_error

ULPS = 8


class OracleMLP(MLP):
    def forward(self, x: np.ndarray):
        """Input (batch, in); returns (output (members, batch, out), cache)."""
        acts = [x]
        h = x  # (batch, in) broadcasts against (members, in, out) on the first layer
        last = self.n_layers - 1
        for layer in range(self.n_layers):
            z = np.matmul(h, self.params[2 * layer]) + self.params[2 * layer + 1]
            if layer != last:
                r = 1.0 / np.sqrt(1.0 + z * z)  # activation x/sqrt(1+x^2); slope r^3
                h = z * r
                acts.append((h, r))
            else:
                h = z
                acts.append(h)
        return h, acts

    def backward(self, cache, dout: np.ndarray):
        """Gradient of a scalar loss given d(loss)/d(output) of shape (members, batch, out).

        Returns (flat_grad, dx) with dx of shape (members, batch, in): the
        input gradient through each member separately. ``member_params`` splits
        the flat gradient per member. Each call allocates a fresh gradient buffer.
        """
        flat_grad = np.zeros_like(self.flat)
        grads = self._views(flat_grad)
        delta = dout
        for layer in range(self.n_layers - 1, -1, -1):
            a_in = cache[layer] if layer == 0 else cache[layer][0]
            # The shared first-layer input is 2-D, hidden activations are 3-D.
            np.matmul(np.swapaxes(a_in, -1, -2), delta, out=grads[2 * layer])
            np.sum(delta, axis=1, keepdims=True, out=grads[2 * layer + 1])
            delta = np.matmul(delta, np.swapaxes(self.params[2 * layer], -1, -2))
            if layer != 0:
                r = cache[layer][1]
                delta = delta * (r * r * r)
        return flat_grad, delta


class OracleLearner(SACLearner):
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


class FiveArrays:
    """The oracle's view of a buffer: ``sample`` returns (s, a, r, s2, done)."""

    def __init__(self, buffer: ReplayBuffer):
        self.buffer = buffer

    def sample(self, batch_size, rng):
        return self.buffer.split(self.buffer.sample(batch_size, rng))


def make_learner(dtype, seed=0):
    cfg = LearnerConfig(dtype=dtype, buffer_capacity=4096)
    return SACLearner(cfg, init_rng=np.random.default_rng(seed),
                      noise_rng=np.random.default_rng(seed + 1))


def oracle_of(learner: SACLearner) -> OracleLearner:
    """An oracle learner in the same state: parameters and Adam moments."""
    old = OracleLearner(learner.cfg, init_rng=None, noise_rng=np.random.default_rng(0),
                        f_max=learner.f_max)
    for net in ("policy", "q", "q_target"):
        getattr(old, net).__class__ = OracleMLP
        getattr(old, net).flat[...] = getattr(learner, net).flat
    for opt in ("policy_opt", "q_opt"):
        src, dst = getattr(learner, opt), getattr(old, opt)
        dst.m[...], dst.v[...], dst.t = src.m, src.v, src.t
    return old


def fill(buffer, n, done_rate, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = np.concatenate([rng.uniform(0, 10, 2), rng.uniform(-2, 2, 2)])
        s2 = np.concatenate([rng.uniform(0, 10, 2), rng.uniform(-2, 2, 2)])
        done = bool(rng.random() < done_rate)
        r = float(rng.choice([-1.0, 1.0])) if done else 0.0
        buffer.add(s, tuple(rng.uniform(-1, 1, 2).tolist()), r, s2, done)
    return buffer


def recorded_update(learner, buffer, rng, critic_after=None):
    """Run ``learner.update_step`` and record what it computed.

    Returns the report plus ``y``, the flat critic and policy gradients and
    the critic parameters after their Adam step. With ``critic_after`` the
    critic step is replaced by a copy of those parameters, so the policy
    loss sees the same critics as the run that produced them.
    """
    rec = {"calls": []}
    critic_fn, policy_fn = learner.critic_loss_and_grads, learner.policy_loss_and_grads
    q_step, p_step = learner.q_opt.step, learner.policy_opt.step

    def critic(s, a, y):
        rec["calls"].append("critic")
        rec["y"] = np.array(y)
        return critic_fn(s, a, y)

    def policy(*args):
        rec["calls"].append("policy")
        loss, grad, rec["logp"] = policy_fn(*args)
        return loss, grad, rec["logp"]

    def step_q(grad):
        rec["qg"] = grad.copy()
        if critic_after is None:
            q_step(grad)
        else:
            learner.q.flat[...] = critic_after
        rec["q_after"] = learner.q.flat.copy()

    def step_p(grad):
        rec["pg"] = grad.copy()
        p_step(grad)

    learner.critic_loss_and_grads, learner.policy_loss_and_grads = critic, policy
    learner.q_opt.step, learner.policy_opt.step = step_q, step_p
    try:
        rec["report"] = learner.update_step(buffer, rng)
    finally:
        for name in ("critic_loss_and_grads", "policy_loss_and_grads"):
            delattr(learner, name)
        del learner.q_opt.step, learner.policy_opt.step
    return rec


def assert_close(got, want, dtype, what, scale=None):
    """``got`` within ``ULPS`` ulps of ``scale``, by default the norm of ``want``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = float(np.linalg.norm(want)) if scale is None else scale
    bound = ULPS * np.finfo(dtype).eps * scale
    err = float(np.max(np.abs(got - want)))
    assert err <= bound, f"{what}: max error {err:.3g} > {bound:.3g} ({ULPS} ulps of {scale:.3g})"


def compare_one_update(learner, buffer, seed):
    """One update of ``learner`` against the oracle on the same state, batch and noise."""
    dt = learner.dtype
    old = oracle_of(learner)
    new = recorded_update(learner, buffer, np.random.default_rng(seed))
    ref = recorded_update(old, FiveArrays(buffer), np.random.default_rng(seed),
                          critic_after=new["q_after"])
    assert new["calls"] == ["critic", "policy"]
    assert_close(new["y"], ref["y"], dt, "y")
    assert_close(new["qg"], ref["qg"], dt, "critic gradient")
    assert_close(new["pg"], ref["pg"], dt, "policy gradient")
    assert_close(new["logp"], ref["logp"], dt, "log-probs")
    for key in ("critic_loss", "policy_loss"):
        assert_close(new["report"][key], ref["report"][key], dt, key)
    # The entropy is a mean of log-probs of both signs: its scale is theirs.
    assert_close(new["report"]["entropy"], ref["report"]["entropy"], dt, "entropy",
                 scale=float(np.mean(np.abs(ref["logp"]))))
    return new, ref


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestAgainstOracle:
    def test_fresh_learner(self, dtype):
        learner = make_learner(dtype)
        buffer = fill(ReplayBuffer(4096, dtype=dtype), 3000, 0.0, seed=1)
        compare_one_update(learner, buffer, seed=2)

    def test_after_200_updates(self, dtype):
        learner = make_learner(dtype, seed=3)
        buffer = fill(ReplayBuffer(4096, dtype=dtype), 3000, 0.1, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            learner.update_step(buffer, rng)
        assert learner.q_opt.t == 200
        compare_one_update(learner, buffer, seed=6)

    @pytest.mark.parametrize("done_rate", [0.3, 1.0])
    def test_batches_with_done_rows(self, dtype, done_rate):
        learner = make_learner(dtype, seed=7)
        buffer = fill(ReplayBuffer(4096, dtype=dtype), 3000, done_rate, seed=8)
        new, ref = compare_one_update(learner, buffer, seed=9)
        if done_rate == 1.0:  # every target is its reward, exactly
            assert np.array_equal(new["y"], ref["y"])


def test_float64_buffer_feeds_a_float32_learner():
    learner = make_learner("float32", seed=10)
    buffer = fill(ReplayBuffer(4096), 500, 0.2, seed=11)
    compare_one_update(learner, buffer, seed=12)


def critic_with_batch(dtype, sizes=(6, 64, 64, 1), batch=256, seed=13):
    """A twin critic, a batch of [s | a] rows and an output gradient."""
    rng = np.random.default_rng(seed)
    net = MLP(sizes, rng, dtype=dtype, members=2)
    x = np.column_stack([rng.uniform(0, 10, (batch, 2)), rng.uniform(-2, 2, (batch, 2)),
                         rng.uniform(-1, 1, (batch, 2))]).astype(dtype)
    dout = rng.standard_normal((2, batch, 1)).astype(dtype)
    return net, x, dout


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestBackwardModes:
    def test_skipping_parameter_gradients_leaves_dx_bitwise(self, dtype):
        net, x, dout = critic_with_batch(dtype)
        _, cache = net.forward(x)
        for cols in (slice(None), slice(4, None)):
            _, with_params = net.backward(cache, dout, input_cols=cols)
            none, without = net.backward(cache, dout, params=False, input_cols=cols)
            assert none is None
            assert np.array_equal(without, with_params)

    def test_input_only_dx_matches_oracle_backward(self, dtype):
        net, x, dout = critic_with_batch(dtype)
        old = MLP(net.sizes, dtype=dtype, members=2)
        old.__class__ = OracleMLP
        old.flat[...] = net.flat
        _, dx = net.backward(net.forward(x)[1], dout, params=False, input_cols=slice(4, None))
        _, want = old.backward(old.forward(x)[1], dout)
        assert dx.shape == (2, 256, 2)
        assert_close(dx, want[:, :, 4:], dtype, "action-column dx")

    def test_forward_only_pass_keeps_no_cache(self, dtype):
        net, x, _ = critic_with_batch(dtype)
        out, cache = net.forward(x, keep_cache=False)
        assert cache is None
        assert np.array_equal(out, net.forward(x)[0])


def test_action_column_dx_matches_finite_differences():
    net, x, _ = critic_with_batch(np.float64, sizes=(6, 8, 8, 1), batch=5)
    w = np.random.default_rng(14).standard_normal((2, 5, 1))  # fixed mixing for a scalar loss
    _, dx = net.backward(net.forward(x)[1], w, params=False, input_cols=slice(4, None))
    numeric = np.zeros((5, 2))
    for i in range(5):
        for j, col in enumerate((4, 5)):
            orig = x[i, col]
            x[i, col] = orig + H
            hi = float(np.sum(w * net.forward(x)[0]))
            x[i, col] = orig - H
            lo = float(np.sum(w * net.forward(x)[0]))
            x[i, col] = orig
            numeric[i, j] = (hi - lo) / (2 * H)
    assert max_rel_error([dx.sum(axis=0)], [numeric]) <= TOL
