import math

import numpy as np
import pytest

from lavabridge.env import Cause, LavaBridgeEnv, State, Vec2
from lavabridge.samplers import (
    DemoStates,
    EpisodeLengthSampler,
    GoalDistSampler,
    SafetyWeightedSampler,
    SamplerConfig,
    SamplerWeights,
    UniformSampler,
    goal_dist_weights,
    init_weights,
    load_weights_csv,
    omega_weights,
    sample_index,
    save_weights_csv,
    update_auxss,
)


def mk_state(px, py, vx=0.0, vy=0.0):
    return State(Vec2(px, py), Vec2(vx, vy))


def mk_demo(states, tids=None):
    if tids is None:
        tids = [0] * len(states)
    return DemoStates(states=tuple(states), trajectory_ids=tuple(tids))


# Three states: s1 and s2 both sit at squared distance 2*sigma^2 from s0
# (one offset in position, one in velocity), so the kernel is exactly e^-1.
THREE = mk_demo([
    mk_state(1.0, 1.0),
    mk_state(1.5, 1.5),
    mk_state(1.0, 1.0, 0.5, 0.5),
])
CFG = SamplerConfig(delta=0.05, sigma=0.5)


class TestInitWeights:
    def test_three_states(self):
        w = init_weights(THREE)
        assert w.w.tolist() == [1.0, 1.0, 1.0]

    def test_single_state(self):
        w = init_weights(mk_demo([mk_state(2.0, 2.0)]))
        assert w.w.tolist() == [1.0]

    def test_150_states(self):
        demo = mk_demo([mk_state(1.0 + 0.01 * i, 2.0) for i in range(150)])
        assert init_weights(demo).w.sum() == 150.0

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mk_demo([])


class TestSampleIndex:
    def test_exact_probability_skewed(self):
        w = SamplerWeights(np.array([1.0, 0.05, 0.05]))
        p0 = 1.0 / 1.1
        rng = np.random.default_rng(11)
        n = 100_000
        hits = sum(sample_index(w, rng) == 0 for _ in range(n))
        sigma = math.sqrt(n * p0 * (1 - p0))
        assert abs(hits - n * p0) <= 3 * sigma

    def test_symmetric_thirds(self):
        w = init_weights(THREE)
        rng = np.random.default_rng(12)
        n = 30_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample_index(w, rng)] += 1
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - n / 3) <= 3 * sigma)

    def test_single_state_always_zero(self):
        w = init_weights(mk_demo([mk_state(2.0, 2.0)]))
        rng = np.random.default_rng(13)
        assert all(sample_index(w, rng) == 0 for _ in range(50))

    def test_empirical_matches_weights_per_index(self):
        rng = np.random.default_rng(14)
        raw = rng.uniform(0.05, 1.0, size=8)
        w = SamplerWeights(raw)
        p = raw / raw.sum()
        n = 100_000
        counts = np.zeros(8)
        draw = np.random.default_rng(15)
        for _ in range(n):
            counts[sample_index(w, draw)] += 1
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


class TestUpdateOracle:
    """Hand-evaluated scalar oracle for the episode-length update."""

    def test_three_state_hand_computation(self):
        weights = init_weights(THREE)
        out = update_auxss(weights, i=0, ep_len=250, horizon=500, demo=THREE, cfg=CFG)
        w_star = max((500 - 250) / 500, CFG.delta)  # = 0.5
        lam = math.exp(-1.0)  # squared distance 0.5 = 2 sigma^2
        expected = [
            w_star,
            (1 - lam) * 1.0 + lam * w_star,
            (1 - lam) * 1.0 + lam * w_star,
        ]
        assert abs(out.w[0] - expected[0]) < 1e-12
        assert abs(out.w[1] - expected[1]) < 1e-12
        assert abs(out.w[2] - expected[2]) < 1e-12

    def test_full_length_episode_hits_floor(self):
        out = update_auxss(init_weights(THREE), 1, 500, 500, THREE, CFG)
        assert out.w[1] == CFG.delta

    def test_instant_episode_hits_ceiling(self):
        # First cool state 2 down, then confirm an instant episode restores it to 1.
        cooled = update_auxss(init_weights(THREE), 2, 500, 500, THREE, CFG)
        out = update_auxss(cooled, 2, 0, 500, THREE, CFG)
        assert out.w[2] == 1.0

    def test_self_assignment_exact(self):
        rng = np.random.default_rng(16)
        weights = init_weights(THREE)
        for _ in range(50):
            i = int(rng.integers(3))
            ep = int(rng.integers(0, 501))
            weights = update_auxss(weights, i, ep, 500, THREE, CFG)
            assert weights.w[i] == max((500 - ep) / 500, CFG.delta)

    def test_too_long_episode_rejected(self):
        with pytest.raises(ValueError, match="harness"):
            update_auxss(init_weights(THREE), 0, 501, 500, THREE, CFG)

    def test_cause_aware_goal_cools_to_floor(self):
        cfg = SamplerConfig(delta=0.05, sigma=0.5, cause_aware=True)
        out = update_auxss(init_weights(THREE), 0, 10, 500, THREE, cfg, cause=Cause.GOAL)
        assert out.w[0] == cfg.delta
        out2 = update_auxss(init_weights(THREE), 0, 10, 500, THREE, cfg, cause=Cause.LAVA)
        assert out2.w[0] == max(490 / 500, cfg.delta)


class TestUpdateProperties:
    def test_boundedness_over_randomized_sequences(self):
        # 10^4 randomized updates starting from all ones: every weight stays in
        # [delta, 1] because each step is a convex blend of values in that range.
        rng = np.random.default_rng(17)
        pts = rng.uniform(0.5, 9.5, size=(25, 2))
        vels = rng.uniform(-1.5, 1.5, size=(25, 2))
        demo = mk_demo([mk_state(*p, *v) for p, v in zip(pts, vels)])
        cfg = SamplerConfig(delta=0.05, sigma=0.5)
        arr = demo.as_array()
        weights = init_weights(demo)
        horizon = 500
        for _ in range(10_000):
            i = int(rng.integers(25))
            ep = int(rng.integers(0, horizon + 1))
            weights = update_auxss(weights, i, ep, horizon, demo, cfg, demo_array=arr)
            assert np.all(weights.w >= cfg.delta - 1e-15)
            assert np.all(weights.w <= 1.0 + 1e-15)

    def test_locality_bound(self):
        # Squared distance >= 18 sigma^2 implies lambda <= e^-9 and a per-update
        # weight change of at most 1.3e-4.
        sigma = 0.5
        far = math.sqrt(18 * sigma**2)
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(1.0 + far, 1.0), mk_state(1.0 + 2 * far, 1.0)])
        cfg = SamplerConfig(delta=0.05, sigma=sigma)
        weights = init_weights(demo)
        out = update_auxss(weights, 0, 500, 500, demo, cfg)
        assert abs(out.w[1] - 1.0) <= 1.3e-4
        assert abs(out.w[2] - 1.0) <= 1.3e-4

    def test_dimension_scaling_vector(self):
        # Doubling the length scale of the x axis makes a pure-x neighbor look
        # half as far, raising its kernel weight.
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 1.0)])
        base = SamplerConfig(delta=0.05, sigma=0.5)
        scaled = SamplerConfig(delta=0.05, sigma=0.5, scale=(2.0, 1.0, 1.0, 1.0))
        wb = update_auxss(init_weights(demo), 0, 500, 500, demo, base)
        ws = update_auxss(init_weights(demo), 0, 500, 500, demo, scaled)
        assert ws.w[1] < wb.w[1]  # stronger smoothing pull toward delta


class TestGoalDistWeights:
    def test_equidistant_is_uniform(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(10.0, 5.0), mk_state(9.0, 4.0)])
        out = goal_dist_weights(demo, Vec2(9.0, 5.0), 0, 100, CFG)
        assert np.allclose(out.w, 1.0)

    def test_high_temperature_flattens(self):
        demo = mk_demo([mk_state(1.0, 5.0), mk_state(8.0, 5.0), mk_state(5.0, 5.0)])
        cfg = SamplerConfig(tau0=0.5, tau1=1e6)
        out = goal_dist_weights(demo, Vec2(9.0, 5.0), 100, 100, cfg)
        assert np.all(np.abs(out.w - 1.0) < 1e-3)

    def test_distance_ratio_closed_form(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(7.0, 5.0)])  # distances 1 and 2
        cfg = SamplerConfig(tau0=1.0, tau1=1.0)
        out = goal_dist_weights(demo, Vec2(9.0, 5.0), 0, 100, cfg)
        assert out.w[0] == 1.0  # max-normalized
        assert abs(out.w[0] / out.w[1] - math.e) < 1e-12

    def test_temperature_anneals_linearly(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(5.0, 5.0)])
        cfg = SamplerConfig(tau0=0.5, tau1=5.0)
        early = goal_dist_weights(demo, Vec2(9.0, 5.0), 0, 100, cfg)
        late = goal_dist_weights(demo, Vec2(9.0, 5.0), 100, 100, cfg)
        assert late.w[1] > early.w[1]


class TestOmegaWeights:
    def test_inverse_proportionality(self, monkeypatch):
        # Closed form: omega 1.0 vs 0.5 with epsilon=0.05 gives weight ratio 1:2.
        from lavabridge import safety as safety_mod

        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 2.0)])
        fake = {demo.states[0]: 1.0, demo.states[1]: 0.5}

        def fake_estimate(env, s, policy, k, n, rng, **kw):
            return safety_mod.SafetyEstimate(value=fake[s], n_rollouts=n, k=k)

        monkeypatch.setattr(safety_mod, "estimate_safety", fake_estimate)
        out = omega_weights(demo, LavaBridgeEnv(), SamplerConfig(epsilon=0.05),
                            np.random.default_rng(0))
        assert abs(out.w[1] / out.w[0] - 2.0) < 1e-12
        assert out.w.max() == 1.0

    def test_all_safe_is_uniform(self):
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 2.0), mk_state(1.0, 8.0)])
        env = LavaBridgeEnv()
        out = omega_weights(demo, env, SamplerConfig(k_safety=4, n_safety_rollouts=16),
                            np.random.default_rng(19))
        assert np.allclose(out.w, 1.0)

    def test_doomed_state_gets_maximal_weight(self):
        # (5, 4.7) at full downward speed cannot brake out of the lava strip
        # within 4 steps for any action sequence, so omega-hat is exactly 0 and
        # the weight hits the 1/epsilon cap.
        from lavabridge.safety import brute_force_safety

        env = LavaBridgeEnv()
        doomed = mk_state(5.0, 4.7, 0.0, -2.0)
        assert brute_force_safety(env, doomed, k=4, grid=3) == 0.0
        demo = mk_demo([mk_state(1.0, 1.0), doomed])
        cfg = SamplerConfig(epsilon=0.05, k_safety=4, n_safety_rollouts=32)
        out = omega_weights(demo, env, cfg, np.random.default_rng(20))
        assert out.w[1] == 1.0
        assert abs(out.w[1] / out.w[0] - (1.0 / cfg.epsilon)) < 1e-12


class TestSamplerObjects:
    def test_uniform_weights_never_change(self):
        demo = THREE
        s = UniformSampler(demo)
        before = s.weights.w.copy()
        rng = np.random.default_rng(21)
        for t in range(20):
            i, _ = s.sample(rng)
            s.observe(i, 100, Cause.TIMEOUT, (t + 1) * 100)
        assert np.array_equal(s.weights.w, before)

    def test_omega_sampler_static(self):
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 8.0)])
        s = SafetyWeightedSampler(demo, LavaBridgeEnv(), SamplerConfig(n_safety_rollouts=8),
                                  np.random.default_rng(22))
        before = s.weights.w.copy()
        for t in range(10):
            s.observe(0, 5, Cause.LAVA, t)
        assert np.array_equal(s.weights.w, before)

    def test_episode_length_sampler_tracks_updates(self):
        s = EpisodeLengthSampler(THREE, horizon=500, cfg=CFG)
        s.observe(0, 500, Cause.TIMEOUT, 500)
        assert s.weights.w[0] == CFG.delta

    def test_goal_dist_sampler_recomputes_with_clock(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(1.0, 5.0)])
        s = GoalDistSampler(demo, Vec2(9.0, 5.0), t_max=1000, cfg=SamplerConfig(tau0=0.5, tau1=5.0))
        w0 = s.weights.w.copy()
        s.observe(0, 100, Cause.GOAL, 1000)
        assert s.weights.w[1] > w0[1]


class TestSnapshotCsv:
    def test_round_trip(self, tmp_path):
        demo = THREE
        weights = update_auxss(init_weights(demo), 0, 250, 500, demo, CFG)
        path = tmp_path / "weights.csv"
        save_weights_csv(path, demo, weights)
        demo2, weights2 = load_weights_csv(path)
        assert np.array_equal(weights2.w, weights.w)
        assert [s.position for s in demo2.states] == [s.position for s in demo.states]
        assert [s.velocity for s in demo2.states] == [s.velocity for s in demo.states]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_weights_csv(path)


class TestSamplerConfigValidation:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(delta=1.5)

    def test_temperatures_ordered(self):
        with pytest.raises(ValueError):
            SamplerConfig(tau0=5.0, tau1=0.5)
