import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lavabridge.bench import run_training
from lavabridge.demos import save_archive
from lavabridge.env import Cause, LavaBridgeEnv, Vec2
from lavabridge.samplers import (
    EpisodeLengthSampler,
    GoalDistSampler,
    SafetyWeightedSampler,
    SamplerConfig,
    SamplerWeights,
    StartStateSampler,
    UniformSampler,
)

from test_bench import tiny_config


def mk_state(px, py, vx=0.0, vy=0.0):
    return [px, py, vx, vy]


def mk_demo(states):
    return np.array(states, dtype=np.float64).reshape(-1, 4)


def weighted(w) -> UniformSampler:
    """A sampler over len(w) distinct demo states whose weights are set to w."""
    sampler = UniformSampler(mk_demo([mk_state(1.0 + 0.1 * j, 1.0) for j in range(len(w))]))
    sampler.weights = SamplerWeights(np.asarray(w, dtype=np.float64))
    return sampler


def auxss_after(updates, demo=None, cfg=None, horizon=500) -> np.ndarray:
    """Weights of an episode-length sampler after (index, ep_len[, cause]) updates."""
    sampler = EpisodeLengthSampler(THREE if demo is None else demo, horizon=horizon, cfg=cfg or CFG)
    for i, ep_len, *cause in updates:
        sampler.observe(i, ep_len, cause[0] if cause else Cause.TIMEOUT, 0)
    return sampler.weights.w


def goal_dist(demo, cfg, t, t_max=100, goal=Vec2(9.0, 5.0)) -> np.ndarray:
    sampler = GoalDistSampler(demo, goal, t_max, cfg)
    if t:
        sampler.observe(0, 0, Cause.TIMEOUT, t)
    return sampler.weights.w


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
        assert StartStateSampler(THREE).weights.w.tolist() == [1.0, 1.0, 1.0]

    def test_single_state(self):
        assert StartStateSampler(mk_demo([mk_state(2.0, 2.0)])).weights.w.tolist() == [1.0]

    def test_150_states(self):
        demo = mk_demo([mk_state(1.0 + 0.01 * i, 2.0) for i in range(150)])
        assert StartStateSampler(demo).weights.w.sum() == 150.0

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            StartStateSampler(mk_demo([]))


class TestDemoStates:
    def test_sample_returns_the_row_and_resets_to_it_bitwise(self, demo_archive):
        # The sampled state is the demo row itself; reset_to stores its bits.
        demo = demo_archive.demo_states()
        sampler = UniformSampler(demo)
        env = LavaBridgeEnv()
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, s = sampler.sample(rng)
            assert s.tobytes() == demo[i].tobytes()
            env.reset_to(s)
            assert env.state.tobytes() == demo[i].tobytes()


class TestSampleIndex:
    def test_exact_probability_skewed(self):
        sampler = weighted([1.0, 0.05, 0.05])
        p0 = 1.0 / 1.1
        rng = np.random.default_rng(11)
        n = 100_000
        hits = sum(sampler.sample(rng)[0] == 0 for _ in range(n))
        sigma = math.sqrt(n * p0 * (1 - p0))
        assert abs(hits - n * p0) <= 3 * sigma

    def test_symmetric_thirds(self):
        sampler = UniformSampler(THREE)
        rng = np.random.default_rng(12)
        n = 30_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sampler.sample(rng)[0]] += 1
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - n / 3) <= 3 * sigma)

    def test_single_state_always_zero(self):
        sampler = UniformSampler(mk_demo([mk_state(2.0, 2.0)]))
        rng = np.random.default_rng(13)
        assert all(sampler.sample(rng)[0] == 0 for _ in range(50))

    def test_empirical_matches_weights_per_index(self):
        rng = np.random.default_rng(14)
        raw = rng.uniform(0.05, 1.0, size=8)
        sampler = weighted(raw)
        p = raw / raw.sum()
        n = 100_000
        counts = np.zeros(8)
        draw = np.random.default_rng(15)
        for _ in range(n):
            counts[sampler.sample(draw)[0]] += 1
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


class TestUpdateOracle:
    """Hand-evaluated scalar oracle for the episode-length update."""

    def test_three_state_hand_computation(self):
        out = auxss_after([(0, 250)])
        w_star = max((500 - 250) / 500, CFG.delta)  # = 0.5
        lam = math.exp(-1.0)  # squared distance 0.5 = 2 sigma^2
        expected = [
            w_star,
            (1 - lam) * 1.0 + lam * w_star,
            (1 - lam) * 1.0 + lam * w_star,
        ]
        assert abs(out[0] - expected[0]) < 1e-12
        assert abs(out[1] - expected[1]) < 1e-12
        assert abs(out[2] - expected[2]) < 1e-12

    def test_full_length_episode_hits_floor(self):
        assert auxss_after([(1, 500)])[1] == CFG.delta

    def test_instant_episode_hits_ceiling(self):
        # First cool state 2 down, then confirm an instant episode restores it to 1.
        assert auxss_after([(2, 500), (2, 0)])[2] == 1.0

    def test_self_assignment_exact(self):
        rng = np.random.default_rng(16)
        sampler = EpisodeLengthSampler(THREE, horizon=500, cfg=CFG)
        for _ in range(50):
            i = int(rng.integers(3))
            ep = int(rng.integers(0, 501))
            sampler.observe(i, ep, Cause.TIMEOUT, 0)
            assert sampler.weights.w[i] == max((500 - ep) / 500, CFG.delta)

    def test_too_long_episode_rejected(self):
        with pytest.raises(ValueError, match="harness"):
            auxss_after([(0, 501)])

    def test_cause_aware_goal_cools_to_floor(self):
        cfg = SamplerConfig(delta=0.05, sigma=0.5, cause_aware=True)
        assert auxss_after([(0, 10, Cause.GOAL)], cfg=cfg)[0] == cfg.delta
        assert auxss_after([(0, 10, Cause.LAVA)], cfg=cfg)[0] == max(490 / 500, cfg.delta)


class TestUpdateProperties:
    def test_boundedness_over_randomized_sequences(self):
        # 10^4 randomized updates starting from all ones: every weight stays in
        # [delta, 1] because each step is a convex blend of values in that range.
        rng = np.random.default_rng(17)
        pts = rng.uniform(0.5, 9.5, size=(25, 2))
        vels = rng.uniform(-1.5, 1.5, size=(25, 2))
        demo = mk_demo([mk_state(*p, *v) for p, v in zip(pts, vels)])
        cfg = SamplerConfig(delta=0.05, sigma=0.5)
        sampler = EpisodeLengthSampler(demo, horizon=500, cfg=cfg)
        for _ in range(10_000):
            i = int(rng.integers(25))
            ep = int(rng.integers(0, 501))
            sampler.observe(i, ep, Cause.TIMEOUT, 0)
            assert np.all(sampler.weights.w >= cfg.delta - 1e-15)
            assert np.all(sampler.weights.w <= 1.0 + 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(0.001, 0.999),
        sigma=st.floats(0.05, 5.0),
        points=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
                                  st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                        min_size=1, max_size=8),
        updates=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 50),
                                   st.sampled_from(list(Cause))),
                         max_size=30),
        cause_aware=st.booleans(),
    )
    def test_observe_keeps_weights_in_floor_and_ceiling(self, delta, sigma, points, updates,
                                                        cause_aware):
        cfg = SamplerConfig(delta=delta, sigma=sigma, cause_aware=cause_aware)
        sampler = EpisodeLengthSampler(mk_demo([mk_state(*p) for p in points]), horizon=50, cfg=cfg)
        # Up to rounding: a blend of two equal weights can round an ulp past them.
        # Each blend rounds four times (at most 2 eps for values <= 1) and is a
        # contraction, so the slack grows at most linearly with the updates.
        for k, (i, ep_len, cause) in enumerate(updates, start=1):
            sampler.observe(i % len(points), ep_len, cause, 0)
            slack = 2 * k * np.finfo(np.float64).eps
            assert np.all(sampler.weights.w >= delta - slack)
            assert np.all(sampler.weights.w <= 1.0 + slack)

    def test_locality_bound(self):
        # Squared distance >= 18 sigma^2 implies lambda <= e^-9 and a per-update
        # weight change of at most 1.3e-4.
        sigma = 0.5
        far = math.sqrt(18 * sigma**2)
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(1.0 + far, 1.0), mk_state(1.0 + 2 * far, 1.0)])
        out = auxss_after([(0, 500)], demo=demo, cfg=SamplerConfig(delta=0.05, sigma=sigma))
        assert abs(out[1] - 1.0) <= 1.3e-4
        assert abs(out[2] - 1.0) <= 1.3e-4

    def test_dimension_scaling_vector(self):
        # Doubling the length scale of the x axis makes a pure-x neighbor look
        # half as far, raising its kernel weight.
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 1.0)])
        base = SamplerConfig(delta=0.05, sigma=0.5)
        scaled = SamplerConfig(delta=0.05, sigma=0.5, scale=(2.0, 1.0, 1.0, 1.0))
        wb = auxss_after([(0, 500)], demo=demo, cfg=base)
        ws = auxss_after([(0, 500)], demo=demo, cfg=scaled)
        assert ws[1] < wb[1]  # stronger smoothing pull toward delta


class TestGoalDistWeights:
    def test_equidistant_is_uniform(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(10.0, 5.0), mk_state(9.0, 4.0)])
        assert np.allclose(goal_dist(demo, CFG, 0), 1.0)

    def test_high_temperature_flattens(self):
        demo = mk_demo([mk_state(1.0, 5.0), mk_state(8.0, 5.0), mk_state(5.0, 5.0)])
        out = goal_dist(demo, SamplerConfig(tau0=0.5, tau1=1e6), 100)
        assert np.all(np.abs(out - 1.0) < 1e-3)

    def test_distance_ratio_closed_form(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(7.0, 5.0)])  # distances 1 and 2
        out = goal_dist(demo, SamplerConfig(tau0=1.0, tau1=1.0), 0)
        assert out[0] == 1.0  # max-normalized
        assert abs(out[0] / out[1] - math.e) < 1e-12

    def test_temperature_anneals_linearly(self):
        demo = mk_demo([mk_state(8.0, 5.0), mk_state(5.0, 5.0)])
        cfg = SamplerConfig(tau0=0.5, tau1=5.0)
        assert goal_dist(demo, cfg, 100)[1] > goal_dist(demo, cfg, 0)[1]


class TestOmegaWeights:
    def test_inverse_proportionality(self, monkeypatch):
        # Closed form: omega 1.0 vs 0.5 with epsilon=0.05 gives weight ratio 1:2.
        from lavabridge import safety as safety_mod

        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 2.0)])
        fake = {demo[0].tobytes(): 1.0, demo[1].tobytes(): 0.5}

        def fake_estimate(env, states, policy, k, n, rng, **kw):
            return safety_mod.SafetyEstimate(value=np.array([fake[s.tobytes()] for s in states]),
                                             n_rollouts=n, k=k)

        monkeypatch.setattr(safety_mod, "estimate_safety", fake_estimate)
        out = SafetyWeightedSampler(demo, LavaBridgeEnv(), SamplerConfig(epsilon=0.05),
                                    np.random.default_rng(0)).weights.w
        assert abs(out[1] / out[0] - 2.0) < 1e-12
        assert out.max() == 1.0

    def test_all_safe_is_uniform(self):
        demo = mk_demo([mk_state(1.0, 1.0), mk_state(2.0, 2.0), mk_state(1.0, 8.0)])
        out = SafetyWeightedSampler(demo, LavaBridgeEnv(), SamplerConfig(k_safety=4, n_safety_rollouts=16),
                                    np.random.default_rng(19)).weights.w
        assert np.allclose(out, 1.0)

    def test_doomed_state_gets_maximal_weight(self):
        # (5, 4.7) at full downward speed cannot brake out of the lava strip
        # within 4 steps for any action sequence, so omega-hat is exactly 0 and
        # the weight hits the 1/epsilon cap.
        from safety_oracle import brute_force_safety

        env = LavaBridgeEnv()
        doomed = mk_state(5.0, 4.7, 0.0, -2.0)
        assert brute_force_safety(env, doomed, k=4, grid=3) == 0.0
        demo = mk_demo([mk_state(1.0, 1.0), doomed])
        cfg = SamplerConfig(epsilon=0.05, k_safety=4, n_safety_rollouts=32)
        out = SafetyWeightedSampler(demo, env, cfg, np.random.default_rng(20)).weights.w
        assert out[1] == 1.0
        assert abs(out[1] / out[0] - (1.0 / cfg.epsilon)) < 1e-12


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
    def test_run_writes_final_weights(self, demo_archive, tmp_path):
        archive = tmp_path / "demos.csv"
        save_archive(demo_archive, archive)
        result = run_training(tiny_config("auxss", archive, t_max=400, eval_interval=400),
                              out_dir=tmp_path / "run")
        with open(tmp_path / "run" / "sampler_weights.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "px", "py", "vx", "vy", "weight"]
        assert [int(r[0]) for r in rows[1:]] == list(range(len(result.sampler.demo)))
        written = np.array([float(r[5]) for r in rows[1:]])
        assert written.tobytes() == result.sampler.weights.w.tobytes()
        assert len(set(written.tolist())) > 1  # the run moved the weights


class TestSamplerConfigValidation:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            SamplerConfig(delta=1.5)

    def test_temperatures_ordered(self):
        with pytest.raises(ValueError):
            SamplerConfig(tau0=5.0, tau1=0.5)

    @pytest.mark.parametrize("scale", [(1.0, 1.0), (), (1.0,) * 5])
    def test_scale_needs_one_entry_per_state_column(self, scale):
        # (1.0, 1.0) was accepted and broke the first auxss observe with a
        # numpy broadcast error, after the step-0 evaluation.
        with pytest.raises(ValueError, match="scale"):
            SamplerConfig(scale=scale)
