import tracemalloc

import numpy as np
import pytest

from lavabridge.env import Cause, LavaBridgeEnv
from lavabridge.learner import (
    DivergenceError,
    LearnerConfig,
    SACLearner,
    train_for_one_episode,
)
from lavabridge.replay import ReplayBuffer, prefill_demo
from lavabridge.samplers import JumpStart


def mk_state(px, py, vx=0.0, vy=0.0):
    return np.array([px, py, vx, vy])


def mk_learner(seed=0, **kw):
    cfg = LearnerConfig(**{"batch_size": 8, "buffer_capacity": 64, **kw})
    return SACLearner(cfg, init_rng=np.random.default_rng(seed),
                      noise_rng=np.random.default_rng(seed + 1))


class TestAct:
    def test_zero_network_gives_zero_action(self):
        cfg = LearnerConfig(batch_size=8, buffer_capacity=64)
        learner = SACLearner(cfg, init_rng=None, noise_rng=np.random.default_rng(0))
        a = learner.act(mk_state(3.0, 3.0), stochastic=False)
        assert a == (0.0, 0.0)
        assert all(type(f) is float for f in a)

    def test_actions_respect_bounds(self):
        learner = mk_learner(seed=1)
        # Blow up the last layer to push tanh toward saturation.
        learner.policy.params[-2][...] *= 1000
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = mk_state(*rng.uniform(0, 10, 2), *rng.uniform(-2, 2, 2))
            for stochastic in (False, True):
                fx, fy = learner.act(s, stochastic)
                assert abs(fx) <= learner.f_max
                assert abs(fy) <= learner.f_max

    def test_stochastic_act_deterministic_per_seed(self):
        learner = mk_learner(seed=3)
        s = mk_state(2.0, 7.0)
        learner.noise_rng = np.random.default_rng(42)
        a = learner.act(s, True)
        learner.noise_rng = np.random.default_rng(42)
        b = learner.act(s, True)
        assert a == b

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_stochastic_act_equals_sample_path(self, dtype):
        # act draws its action through head.action, without a log-prob; the
        # forces and the noise stream must be those of the full head.sample.
        learner = mk_learner(seed=5, dtype=dtype)
        states = np.random.default_rng(6).uniform(-2, 10, (20, 4))
        learner.noise_rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for s in states:
            out = learner.policy.forward(s[None, :])[0][0]
            a, _, _ = learner.head.sample(out, ref.standard_normal((1, 2)))
            assert learner.act(s, True) == (float(a[0, 0]), float(a[0, 1]))
            assert learner.noise_rng.bit_generator.state == ref.bit_generator.state

    def test_divergence_detected(self):
        learner = mk_learner(seed=4)
        learner.policy.params[0][0, 0] = float("nan")
        with pytest.raises(DivergenceError):
            learner.act(mk_state(1.0, 1.0), stochastic=False)
        with pytest.raises(DivergenceError):
            learner.act_batch(np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0]]))


class TestActBatch:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_rows_equal_single_row_act_bitwise(self, dtype, n):
        # A (N, 4) gemm forward rounds differently from act's (1, 4) gemv in
        # nearly every row; act_batch must take the gemv path row by row.
        learner = mk_learner(seed=10 + n, dtype=dtype)
        rng = np.random.default_rng(n)
        states = np.column_stack([rng.uniform(0, 10, (n, 2)), rng.uniform(-2, 2, (n, 2))])
        forces = learner.act_batch(states)
        assert forces.shape == (n, 2)
        for s, f in zip(states, forces):
            assert learner.act(s, stochastic=False) == (f[0], f[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_reduce_over_n_equals_np_mean_bitwise(dtype):
    # The losses and the entropy are np.add.reduce(x) / n, which must be
    # np.mean(x) bit for bit, scalar type included.
    rng = np.random.default_rng(30)
    for n in (1, 2, 7, 8, 9, 100, 255, 256, 512, 1000, 4097):
        for scale in (1e-30, 1.0, 1e6):
            x = (scale * rng.standard_normal(n)).astype(dtype)
            got, want = np.add.reduce(x) / n, np.mean(x)
            assert type(got) is type(want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_losses_equal_np_mean_forms(dtype):
    learner = mk_learner(seed=31, dtype=dtype, batch_size=16, buffer_capacity=64)
    dt = learner.dtype
    rng = np.random.default_rng(32)
    s = rng.uniform(-2, 10, (16, 4)).astype(dt)
    a = rng.uniform(-1, 1, (16, 2)).astype(dt)
    y = rng.standard_normal(16).astype(dt)
    xi = rng.standard_normal((16, 2)).astype(dt)

    err = learner.q.forward(np.concatenate([s, a], axis=1))[0][:, :, 0] - y
    critic_want = float(np.mean(err[0] ** 2) + np.mean(err[1] ** 2))
    out, pc = learner.policy.forward(s)
    a_new, logp, head_cache = learner.head.sample(out[0], xi)
    qq, _ = learner.q.forward(np.concatenate([s, a_new], axis=1))
    q_min = np.where(qq[0, :, 0] <= qq[1, :, 0], qq[0, :, 0], qq[1, :, 0])
    policy_want = float(np.mean(learner.cfg.alpha * logp - q_min))

    assert learner.critic_loss_and_grads(np.concatenate([s, a], 1), y)[0] == critic_want
    assert learner.policy_loss_and_grads(s, (pc, a_new, logp, head_cache))[0] == policy_want


class TestUpdateStep:
    def fill_identical(self, learner, n=16):
        buf = ReplayBuffer(capacity=64)
        for _ in range(n):
            buf.add(mk_state(2.0, 2.0), (0.1, 0.0), 0.0, mk_state(2.2, 2.0), True)
        return buf

    def test_done_batch_collapses_target_to_zero(self):
        learner = mk_learner(seed=5)
        buf = self.fill_identical(learner)
        s = buf.states[:8]
        a = buf.actions[:8]
        sa = np.concatenate([s, a], axis=1).astype(np.float32)
        qq = learner.q.forward(sa)[0]
        expected = float(np.mean(qq[0, :, 0] ** 2) + np.mean(qq[1, :, 0] ** 2))  # y == 0 when done
        report = learner.update_step(buf)
        assert report["critic_loss"] == pytest.approx(expected, rel=1e-5)
        assert np.isfinite(report["policy_loss"])
        assert np.isfinite(report["entropy"])

    def test_target_ema_coefficient_one_copies(self):
        learner = mk_learner(seed=6, tau=1.0)
        buf = self.fill_identical(learner)
        learner.update_step(buf)
        assert np.array_equal(learner.q_target.flat, learner.q.flat)

    def test_update_requires_full_batch(self):
        learner = mk_learner(seed=7)
        buf = ReplayBuffer(capacity=64)
        buf.add(mk_state(1.0, 1.0), (0.0, 0.0), 0.0, mk_state(1.0, 1.0), False)
        with pytest.raises(ValueError):
            learner.update_step(buf)


    def test_overflow_raises_divergence(self):
        # z * z overflows float32 past ~1.8e19, after which the activation
        # would read 0 instead of +-1; the update must stop instead.
        learner = mk_learner(seed=15)
        buf = self.fill_identical(learner)
        learner.update_step(buf)
        learner.q.flat *= 1e30
        with pytest.raises(DivergenceError, match="overflow in update 2"):
            learner.update_step(buf)
        assert learner.updates == 1

    def test_steady_state_update_allocates_little(self):
        # Large per-update temporaries went back to the OS and were faulted in
        # again on every update; the nets' buffers keep the transient peak of
        # a default float32 update small, and they stop growing after warm-up.
        cfg = LearnerConfig()
        learner = SACLearner(cfg, np.random.default_rng(16), np.random.default_rng(17))
        buf = ReplayBuffer(capacity=cfg.buffer_capacity)
        rng = np.random.default_rng(18)
        for _ in range(2 * cfg.batch_size):
            buf.add(rng.uniform(0, 10, 4), rng.uniform(-1, 1, 2), 0.0, rng.uniform(0, 10, 4),
                    bool(rng.random() < 0.1))
        for _ in range(3):
            learner.update_step(buf)
        numpy_domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

        def numpy_bytes():
            snapshot = tracemalloc.take_snapshot().filter_traces(numpy_domain)
            return sum(trace.size for trace in snapshot.traces)

        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            learner.update_step(buf)
            _, peak = tracemalloc.get_traced_memory()
            held = numpy_bytes()
            for _ in range(50):
                learner.update_step(buf)
            held_after = numpy_bytes()
        finally:
            tracemalloc.stop()
        assert peak - base < 256 * 1024
        assert held_after <= held

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cache_survives_other_forwards(self, dtype):
        # A cache lives in the net's buffers for its input shape: acting and a
        # forward and backward at another row count must leave it intact.
        learner = mk_learner(seed=19, dtype=dtype)
        net = learner.policy
        rng = np.random.default_rng(20)
        x = rng.standard_normal((9, 4)).astype(dtype)
        dout = rng.standard_normal((1, 9, 4)).astype(dtype)
        _, cache = net.forward(x)
        learner.act(mk_state(3.0, 4.0), stochastic=True)
        learner.act_batch(rng.uniform(0, 5, (5, 4)))
        _, other = net.forward(rng.standard_normal((3, 4)).astype(dtype))
        net.backward(other, np.ones((1, 3, 4), dtype=dtype))
        kept_grad, kept_dx = net.backward(cache, dout)
        _, fresh = net.forward(x)
        fresh_grad, fresh_dx = net.backward(fresh, dout)
        assert np.array_equal(kept_grad, fresh_grad)
        assert np.array_equal(kept_dx, fresh_dx)


class TestTrainForOneEpisode:
    def test_start_inside_goal_terminates_immediately(self):
        env = LavaBridgeEnv()
        learner = mk_learner(seed=8)
        buf = ReplayBuffer(capacity=64)
        result = train_for_one_episode(env, mk_state(8.95, 5.0), learner, buf)
        assert result.length == 1
        assert result.ep_return == 1.0
        assert result.cause is Cause.GOAL

    def test_doomed_start_reports_lava(self):
        env = LavaBridgeEnv()
        learner = mk_learner(seed=9)
        buf = ReplayBuffer(capacity=64)
        result = train_for_one_episode(env, mk_state(5.0, 4.7, 0.0, -2.0), learner, buf)
        assert result.cause is Cause.LAVA
        assert result.ep_return == -1.0
        assert result.length <= 3

    def test_untrained_policy_bounded_by_horizon(self):
        env = LavaBridgeEnv(horizon=50)
        learner = mk_learner(seed=10)
        buf = ReplayBuffer(capacity=256)
        rng = np.random.default_rng(11)
        result = train_for_one_episode(env, env.sample_start("p0", rng), learner, buf)
        assert 1 <= result.length <= 50
        assert len(buf) == result.length

    def test_env_state_stays_python_floats(self):
        # act returns a pair of floats, so step keeps the state in floats; a numpy
        # force would turn every entry into np.float64 and make step ~1.7x slower.
        env = LavaBridgeEnv(horizon=20)
        learner = mk_learner(seed=14)
        buf = ReplayBuffer(capacity=64)
        result = train_for_one_episode(env, mk_state(2.0, 2.0), learner, buf)
        assert result.length > 1
        assert [type(v) for v in env.snapshot()[:4]] == [float] * 4

    def test_timeout_stored_as_not_done(self):
        env = LavaBridgeEnv(horizon=5)
        learner = mk_learner(seed=12)
        buf = ReplayBuffer(capacity=64)
        result = train_for_one_episode(env, mk_state(2.0, 2.0), learner, buf)
        assert result.cause is Cause.TIMEOUT
        assert buf.dones[: len(buf)].sum() == 0.0

    def test_updates_gated_on_online_samples(self):
        env = LavaBridgeEnv(horizon=10)
        learner = mk_learner(seed=13, batch_size=16, buffer_capacity=128)
        buf = ReplayBuffer(capacity=128)
        s = np.tile(mk_state(1.0, 1.0), (32, 1))
        prefill_demo(buf, s, np.zeros((32, 2)), np.zeros(32), s, np.zeros(32))  # frozen rows only
        train_for_one_episode(env, mk_state(2.0, 2.0), learner, buf)
        assert learner.updates == 0  # only 10 online samples so far, batch is 16
        train_for_one_episode(env, mk_state(2.0, 2.0), learner, buf)
        assert learner.updates == 5  # online hits 16 at step 6 of the second episode


def id_scan_draw(states, ids, t, t_max, env, rng):
    """The jump-start draw over flattened demo states and their per-row
    trajectory ids: the rows of a uniformly drawn id, at fraction 1 - t/t_max."""
    if t >= t_max:
        return None, env.sample_start("p0", rng)
    tids = np.unique(ids)
    rows = np.flatnonzero(ids == tids[int(rng.integers(len(tids)))])
    i = int(rows[int((1.0 - t / t_max) * (len(rows) - 1))])
    return i, states[i]


class TestJsrlStartState:
    def make_demo(self, lengths=(101, 51)):
        """One (L, 4) state array per trajectory."""
        return [np.array([mk_state(1.0 + i * 0.01, 2.0 + k) for i in range(n)])
                for k, n in enumerate(lengths)]

    def draw(self, demo, t, rng, t_max=1000, env=None):
        """One start of a jump-start rule whose last observed clock is t."""
        rule = JumpStart(demo, t_max, env or LavaBridgeEnv())
        rule.observe(0, 1, Cause.TIMEOUT, t)
        i, s = rule.sample(rng)
        if i is not None:
            assert np.array_equal(s, np.concatenate(demo)[i])
        return s

    def test_t_zero_returns_trajectory_tail(self):
        demo = self.make_demo()
        rng = np.random.default_rng(14)
        tails = {tuple(demo[0][100]), tuple(demo[1][50])}
        for _ in range(20):
            assert tuple(self.draw(demo, 0, rng)) in tails

    def test_draws_match_the_id_scan_oracle(self, demo_archive):
        # The archive's last trajectory is head-trimmed, so lengths differ.
        trajs = demo_archive.trajectories
        assert len({len(t) for t in trajs}) > 1
        ids = np.concatenate([np.full(len(t), t.episode_id) for t in trajs])
        states = demo_archive.demo_states()
        env = LavaBridgeEnv()
        rule = JumpStart([t.states[:-1] for t in trajs], 1000, env)
        rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(21)
        for t in [*range(1000), 1000, 1500]:
            rule.observe(0, 1, Cause.TIMEOUT, t)
            i, s = rule.sample(rng)
            want_i, want_s = id_scan_draw(states, ids, t, 1000, env, oracle_rng)
            assert i == want_i and s.tobytes() == want_s.tobytes()
            assert (i is None) == (t >= 1000)

    def test_midpoint_index_arithmetic(self):
        demo = self.make_demo(lengths=(101,))
        s = self.draw(demo, 500, np.random.default_rng(15))
        assert np.array_equal(s, demo[0][50])

    def test_t_max_draws_from_p0(self):
        demo = self.make_demo()
        env = LavaBridgeEnv()
        s = self.draw(demo, 1000, np.random.default_rng(16), env=env)
        assert (s[2], s[3]) == (0.0, 0.0)
        assert min(abs(s[1] - 2.5), abs(s[1] - 7.5)) < 1.5
        assert np.array_equal(s, env.sample_start("p0", np.random.default_rng(16)))

    def test_handover_recedes_toward_head(self):
        demo = self.make_demo(lengths=(101,))
        rng = np.random.default_rng(18)
        idx = []
        for t in (0, 250, 500, 750, 999):
            s = self.draw(demo, t, rng)
            idx.append(int(np.flatnonzero((demo[0] == s).all(axis=1))[0]))
        assert idx == sorted(idx, reverse=True)

    def test_clock_comes_from_the_last_observe(self):
        demo = self.make_demo(lengths=(101,))
        rule = JumpStart(demo, 1000, LavaBridgeEnv())
        rng = np.random.default_rng(19)
        assert rule.sample(rng)[0] == 100  # no episode observed yet: t = 0
        rule.observe(100, 7, Cause.LAVA, 900)
        rule.observe(100, 7, Cause.LAVA, 500)
        assert rule.sample(rng)[0] == 50
        rule.observe(50, 500, Cause.TIMEOUT, 1000)
        assert rule.sample(rng)[0] is None

    def test_zero_t_max_builds_and_draws_p0(self):
        env = LavaBridgeEnv()
        rule = JumpStart(self.make_demo(), 0, env)
        i, s = rule.sample(np.random.default_rng(20))
        assert i is None
        assert np.array_equal(s, env.sample_start("p0", np.random.default_rng(20)))
