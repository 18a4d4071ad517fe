import math

import numpy as np
import pytest

from lavabridge.learner import LearnerConfig, SACLearner
from lavabridge.nets import LOG_2PI, MLP, Adam, SquashedGaussianHead, ema_update

H = 1e-5       # central-difference step
TOL = 1e-4     # max relative error


def central_diff(loss_fn, params):
    """Numerical gradient of loss_fn() with respect to every entry of params."""
    grads = [np.zeros_like(p) for p in params]
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + H
            hi = loss_fn()
            flat_p[i] = orig - H
            lo = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2 * H)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gn)), 1e-6)
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


class TestMLP:
    """Checks of the network itself; ``TestMLPTwoMembers`` reruns them with two members."""

    MEMBERS = 1

    def test_forward_shapes(self):
        m = self.MEMBERS
        net = MLP((4, 8, 8, 3), np.random.default_rng(0), members=m)
        assert net.params[0].shape == (m, 4, 8) and net.params[1].shape == (m, 1, 8)
        y, cache = net.forward(np.zeros((5, 4)))
        assert y.shape == (m, 5, 3)
        assert len(cache) == 4
        _, dx = net.backward(cache, np.ones_like(y))
        assert dx.shape == (m, 5, 4)

    def test_zero_net_outputs_zero(self):
        net = MLP((4, 8, 2), members=self.MEMBERS)
        y, _ = net.forward(np.ones((1, 4)))
        assert np.all(y == 0.0)

    def test_params_are_views_of_flat(self):
        m = self.MEMBERS
        net = MLP((3, 4, 2), np.random.default_rng(1), members=m)
        net.flat[...] = 0.0
        assert all(np.all(p == 0.0) for p in net.params)
        net.params[0][0, 0, 0] = 5.0
        assert net.flat[0] == 5.0
        last = net.member_params(m - 1)
        assert [p.shape for p in last] == [(3, 4), (4,), (4, 2), (2,)]
        last[0][0, 0] = 7.0
        assert net.flat[(m - 1) * 3 * 4] == 7.0

    def test_param_gradients_match_finite_differences(self):
        m = self.MEMBERS
        rng = np.random.default_rng(1)
        net = MLP((4, 8, 8, 3), rng, members=m)
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal((m, 6, 3))  # fixed mixing to make the loss scalar

        def loss():
            y, _ = net.forward(x)
            return float(np.sum(w * np.tanh(y)))

        y, cache = net.forward(x)
        flat, _ = net.backward(cache, w * (1.0 - np.tanh(y) ** 2))
        for i in range(m):
            numeric = central_diff(loss, net.member_params(i))
            assert max_rel_error(net.member_params(i, flat), numeric) <= TOL

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = MLP((3, 8, 1), rng, members=self.MEMBERS)
        x = rng.standard_normal((4, 3))
        y, cache = net.forward(x)
        _, dx = net.backward(cache, np.ones_like(y))
        numeric = np.zeros_like(x)
        for i in range(x.size):
            orig = x.reshape(-1)[i]
            x.reshape(-1)[i] = orig + H
            hi = float(np.sum(net.forward(x)[0]))
            x.reshape(-1)[i] = orig - H
            lo = float(np.sum(net.forward(x)[0]))
            x.reshape(-1)[i] = orig
            numeric.reshape(-1)[i] = (hi - lo) / (2 * H)
        assert max_rel_error([dx.sum(axis=0)], [numeric]) <= TOL

    def test_float32_matches_float64_forward(self):
        rng = np.random.default_rng(3)
        net64 = MLP((4, 8, 2), rng, members=self.MEMBERS)
        net32 = MLP((4, 8, 2), dtype=np.float32, members=self.MEMBERS)
        net32.flat[...] = net64.flat
        x = rng.standard_normal((5, 4))
        y64, _ = net64.forward(x)
        y32, _ = net32.forward(x.astype(np.float32))
        assert np.allclose(y32, y64, atol=1e-5)


class TestMLPTwoMembers(TestMLP):
    MEMBERS = 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_two_members_match_two_single_nets_bitwise(dtype):
    # The twin critics rely on a members=2 net computing exactly what two
    # members=1 nets holding the same parameters compute, at the real size.
    sizes = (6, 64, 64, 1)
    rng = np.random.default_rng(8)
    twin = MLP(sizes, rng, dtype=dtype, members=2)
    x = rng.standard_normal((256, 6)).astype(dtype)
    dout = rng.standard_normal((2, 256, 1)).astype(dtype)
    y2, cache2 = twin.forward(x)
    grad2, dx2 = twin.backward(cache2, dout)
    for i in range(2):
        single = MLP(sizes, dtype=dtype)
        for p, q in zip(single.member_params(0), twin.member_params(i)):
            p[...] = q
        y1, cache1 = single.forward(x)
        grad1, dx1 = single.backward(cache1, dout[i : i + 1])
        assert np.array_equal(y1[0], y2[i])
        assert np.array_equal(dx1[0], dx2[i])
        for g1, g2 in zip(single.member_params(0, grad1), twin.member_params(i, grad2)):
            assert np.array_equal(g1, g2)


def matmul_backward(net, cache, dout, params, input_cols):
    """``MLP.backward`` with every ``delta @ W^T`` as ``np.matmul``, fan-out 1 included."""
    flat_grad = np.empty_like(net.flat) if params else None
    grads = net._views(flat_grad) if params else None
    ones = np.ones((1, dout.shape[1]), dtype=net.dtype)
    delta = dout
    for layer in range(net.n_layers - 1, -1, -1):
        w = net.params[2 * layer]
        if params:
            a_in = cache[layer] if layer == 0 else cache[layer][0]
            grads[2 * layer][...] = np.matmul(np.swapaxes(a_in, -1, -2), delta)
            grads[2 * layer + 1][...] = np.matmul(ones, delta)
        if layer == 0:
            if input_cols is None:
                return flat_grad, None
            return flat_grad, np.matmul(delta, np.swapaxes(w[:, input_cols, :], -1, -2))
        s = cache[layer][1]
        delta = np.matmul(delta, np.swapaxes(w, -1, -2)) / s / s / s


def bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


@pytest.mark.parametrize("input_cols", [None, slice(4, None), slice(None)],
                         ids=["no-dx", "action-cols", "all-cols"])
@pytest.mark.parametrize("params", [True, False])
@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fan_out_one_backward_equals_matmul_bitwise(dtype, members, params, input_cols):
    # A fan-out-1 layer's delta @ W^T is a broadcast product in the backward;
    # its exact zeros may carry the other sign, and no output may change.
    # (6, 5, 1, 1) also has a hidden layer of width 1, so two such products
    # follow each other.
    rng = np.random.default_rng(21)
    for sizes in ((6, 8, 8, 1), (6, 5, 1, 1)):
        net = MLP(sizes, rng, dtype=dtype, members=members)
        x = rng.standard_normal((32, 6)).astype(dtype)
        _, cache = net.forward(x)
        # Exact zeros, as in the policy loss's one-hot dq: each product with a
        # negative weight is -0 where matmul's sum gives +0.
        dout = rng.standard_normal((members, 32, 1)).astype(dtype)
        dout[:, ::3] = 0.0
        want = matmul_backward(net, cache, dout, params, input_cols)
        got = net.backward(cache, dout, params=params, input_cols=input_cols)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])


class TestAdamAndTargets:
    def test_adam_first_step_is_scaled_lr(self):
        # With fresh moments the first step is lr-sized regardless of gradient scale.
        net = MLP((1, 1))
        net.flat[...] = np.array([1.0, -2.0])
        opt = Adam(net, lr=0.1)
        opt.step(np.array([3.0, -4.0]))
        assert np.allclose(net.flat, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_adam_descends_quadratic(self):
        net = MLP((1, 1))
        net.flat[...] = np.array([5.0, 5.0])
        opt = Adam(net, lr=0.05)
        for _ in range(500):
            opt.step(2.0 * net.flat)
        assert np.max(np.abs(net.flat)) < 1e-2

    def test_ema_tau_one_copies_exactly(self):
        a = MLP((2, 3))
        b = MLP((2, 3), np.random.default_rng(4))
        ema_update(a, b, tau=1.0)
        assert np.array_equal(a.flat, b.flat)

    def test_ema_blend(self):
        a = MLP((2, 2))
        b = MLP((2, 2))
        b.flat[...] = 1.0
        ema_update(a, b, tau=0.005)
        assert np.allclose(a.flat, 0.005)


class TestSquashedHead:
    def test_log_std_bounds_are_smoothly_enforced(self):
        head = SquashedGaussianHead(2, 1.0, -3.0, 1.0)
        out = np.array([[0.0, 0.0, -100.0, 100.0]])  # mu, then raw log-std
        _, _, (_, std, _, _, _) = head.sample(out, np.zeros((1, 2)))
        ls = np.log(std)
        assert ls[0, 0] >= -3.0 - 1e-12
        assert ls[0, 1] <= 1.0 + 1e-12

    def test_log_prob_matches_change_of_variables(self):
        # Direct density check against the naive formula away from saturation.
        head = SquashedGaussianHead(1, 1.0, -3.0, 1.0)
        out = np.array([[0.3, 0.1]])
        xi = np.array([[0.7]])
        _, logp, _ = head.sample(out, xi)
        mu, raw = 0.3, 0.1
        log_std = -3.0 + 0.5 * 4.0 * (np.tanh(raw) + 1.0)
        std = np.exp(log_std)
        u = mu + std * 0.7
        naive = (-0.5 * 0.7**2 - log_std - 0.5 * np.log(2 * np.pi)
                 - np.log(1.0 - np.tanh(u) ** 2))
        assert abs(logp[0] - naive) < 1e-10


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_action_equals_sample_action_bitwise(self, dtype):
        head = SquashedGaussianHead(2, 2.0, -3.0, 1.0)
        rng = np.random.default_rng(22)
        for rows in (1, 7, 512):
            out = (3.0 * rng.standard_normal((rows, 4))).astype(dtype)
            xi = rng.standard_normal((rows, 2)).astype(dtype)
            assert bits(head.action(out, xi)) == bits(head.sample(out, xi)[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_prob_column_sum_equals_np_sum_bitwise(self, dtype):
        # sample() adds the log-prob terms' columns in order; at act_dim = 2
        # that is np.sum(axis=1), which this recomputes the old way.
        head = SquashedGaussianHead(2, 2.0, -3.0, 1.0)
        rng = np.random.default_rng(23)
        out = (3.0 * rng.standard_normal((512, 4))).astype(dtype)
        xi = rng.standard_normal((512, 2)).astype(dtype)
        _, logp, _ = head.sample(out, xi)
        mu, raw = head.split(out)
        log_std = head.lo + head.half_span * (np.tanh(raw) + 1.0)
        u = mu + np.exp(log_std) * xi
        log_det = 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u)) + math.log(head.a_max)
        want = np.sum(-0.5 * xi**2 - log_std - 0.5 * LOG_2PI - log_det, axis=1)
        assert bits(logp) == bits(want)


def make_learner(hidden=(8, 8), alpha=0.2, seed=3):
    cfg = LearnerConfig(hidden=hidden, alpha=alpha, batch_size=4, buffer_capacity=16,
                        dtype="float64")
    rng = np.random.default_rng(seed)
    return SACLearner(cfg, init_rng=rng, noise_rng=np.random.default_rng(seed + 1))


def actor_pass(learner, s, xi):
    out, pc = learner.policy.forward(s)
    return (pc, *learner.head.sample(out[0], xi))


class TestGradientChecks:
    """Analytic gradients of the actual update losses vs central differences."""

    def test_critic_gradients(self):
        learner = make_learner()
        rng = np.random.default_rng(4)
        s = rng.uniform(0, 10, size=(16, 4))
        a = rng.uniform(-1, 1, size=(16, 2))
        y = rng.standard_normal(16)

        sa = np.concatenate([s, a], 1)
        _, grad = learner.critic_loss_and_grads(sa, y)
        for member in (0, 1):
            numeric = central_diff(lambda: learner.critic_loss_and_grads(sa, y)[0],
                                   learner.q.member_params(member))
            analytic = learner.q.member_params(member, grad)
            assert max_rel_error(analytic, numeric) <= TOL

    def test_policy_gradients(self):
        learner = make_learner()
        rng = np.random.default_rng(5)
        s = rng.uniform(0, 10, size=(16, 4))
        xi = rng.standard_normal((16, 2))

        # Keep the twin-min selection stable under the +-1e-5 perturbations.
        out = learner.policy.forward(s)[0][0]
        a_new, _, _ = learner.head.sample(out, xi)
        sa = np.concatenate([s, a_new], axis=1)
        qq = learner.q.forward(sa)[0]
        assert np.min(np.abs(qq[0, :, 0] - qq[1, :, 0])) > 1e-3

        _, grads, _ = learner.policy_loss_and_grads(s, actor_pass(learner, s, xi))
        numeric = central_diff(
            lambda: learner.policy_loss_and_grads(s, actor_pass(learner, s, xi))[0],
            learner.policy.member_params(0))
        assert max_rel_error(learner.policy.member_params(0, grads), numeric) <= TOL

    def test_policy_gradients_small_alpha(self):
        learner = make_learner(alpha=0.002, seed=6)
        rng = np.random.default_rng(7)
        s = rng.uniform(0, 10, size=(8, 4))
        xi = rng.standard_normal((8, 2))
        _, grads, _ = learner.policy_loss_and_grads(s, actor_pass(learner, s, xi))
        numeric = central_diff(
            lambda: learner.policy_loss_and_grads(s, actor_pass(learner, s, xi))[0],
            learner.policy.member_params(0))
        assert max_rel_error(learner.policy.member_params(0, grads), numeric) <= TOL
