import csv

import numpy as np
import pytest

from lavabridge.bench import (
    MetricsRow,
    aggregate_runs,
    evaluate,
    read_metrics_csv,
    run_training,
    write_metrics_csv,
)
from lavabridge.config import RunConfig, config_from_mapping
from lavabridge.demos import save_archive, scripted_expert
from lavabridge.env import LavaBridgeEnv
from lavabridge.learner import LearnerConfig
from lavabridge.samplers import SamplerConfig


class ExpertPolicy:
    """Adapter presenting the scripted expert through the learner's act()."""

    def __init__(self, geometry):
        self.geometry = geometry

    def act(self, state, stochastic, rng=None):
        return scripted_expert(state, self.geometry)


class RandomPolicy:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def act(self, state, stochastic, rng=None):
        from lavabridge.env import Action, Vec2
        fx, fy = self.rng.uniform(-1, 1, size=2)
        return Action(Vec2(fx, fy))


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory, demo_archive):
    path = tmp_path_factory.mktemp("demos") / "demos.csv"
    save_archive(demo_archive, path)
    return path


def tiny_config(method: str, archive_path, **kw) -> RunConfig:
    defaults = dict(
        method=method,
        t_max=1200,
        horizon=120,
        seed=0,
        eval_interval=600,
        eval_episodes=3,
        demo_archive=str(archive_path) if method != "sac" else None,
        demo_subset=40,
        sampler=SamplerConfig(n_safety_rollouts=8),
        learner=LearnerConfig(batch_size=32, buffer_capacity=2000, hidden=(16, 16)),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestEvaluate:
    def test_expert_policy_succeeds_from_p0(self):
        env = LavaBridgeEnv()
        policy = ExpertPolicy(env.geometry)
        success, ret = evaluate(policy, env, "p0", 20, 500, 0.99, np.random.default_rng(0))
        assert success == 1.0
        assert 0.1 < ret < 1.0  # discounted +1 goal reward

    def test_random_policy_fails_from_p0(self):
        env = LavaBridgeEnv()
        policy = RandomPolicy(1)
        success, _ = evaluate(policy, env, "p0", 100, 500, 0.99, np.random.default_rng(2))
        assert success < 0.02

    def test_zero_episodes_rejected(self):
        env = LavaBridgeEnv()
        with pytest.raises(ValueError):
            evaluate(RandomPolicy(3), env, "p0", 0, 500, 0.99, np.random.default_rng(4))


class TestRunTraining:
    def test_zero_budget_gives_initial_eval_only(self, archive_path):
        cfg = tiny_config("auxss", archive_path, t_max=0)
        result = run_training(cfg)
        assert result.episodes == 0
        assert len(result.rows) == 1
        assert result.rows[0].step == 0
        assert result.rows[0].id_success is not None

    def test_step_accounting_window(self, archive_path):
        cfg = tiny_config("auxss", archive_path)
        result = run_training(cfg)
        total = sum(r.ep_len for r in result.rows if r.ep_len is not None)
        assert cfg.t_max <= total < cfg.t_max + cfg.horizon
        assert result.env_steps == total

    def test_rows_monotone_and_unique_steps(self, archive_path):
        cfg = tiny_config("uniform", archive_path)
        result = run_training(cfg)
        steps = [r.step for r in result.rows]
        assert steps == sorted(steps)
        assert len(steps) == len(set(steps))

    def test_determinism_byte_identical_metrics(self, archive_path, tmp_path):
        cfg = tiny_config("auxss", archive_path)
        run_training(cfg, out_dir=tmp_path / "a")
        run_training(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()

    def test_eval_cadence_does_not_perturb_training(self, archive_path):
        sparse = run_training(tiny_config("auxss", archive_path, eval_interval=100000))
        dense = run_training(tiny_config("auxss", archive_path, eval_interval=300))
        ep_sparse = [(r.step, r.ep_len, r.ep_return, r.cause) for r in sparse.rows if r.ep_len]
        ep_dense = [(r.step, r.ep_len, r.ep_return, r.cause) for r in dense.rows if r.ep_len]
        assert ep_sparse == ep_dense
        assert len(dense.evals) > len(sparse.evals)

    @pytest.mark.parametrize("method", ["sac", "hysac", "jsrl", "goaldist", "omega", "hysac-auxss"])
    def test_all_methods_run(self, archive_path, method, tmp_path):
        cfg = tiny_config(method, archive_path, t_max=400, eval_interval=400)
        result = run_training(cfg, out_dir=tmp_path / method)
        assert result.env_steps >= 400
        assert (tmp_path / method / "metrics.csv").exists()
        assert (tmp_path / method / "checkpoint.bin").exists()
        if method in ("hysac", "hysac-auxss"):
            assert result.buffer.frozen_prefix_len == 400  # archive size
        if method in ("goaldist", "omega", "hysac-auxss"):
            assert (tmp_path / method / "sampler_weights.csv").exists()

    def test_geometry_mismatch_rejected(self, archive_path):
        from lavabridge.config import EnvSettings
        from lavabridge.demos import ArchiveFormatError
        cfg = tiny_config("auxss", archive_path, env=EnvSettings(goal_radius=0.3))
        with pytest.raises(ArchiveFormatError, match="geometry"):
            run_training(cfg)

    def test_demo_subset_larger_than_archive_rejected(self, archive_path):
        cfg = tiny_config("auxss", archive_path, demo_subset=401)
        with pytest.raises(ValueError, match="subset size 401"):
            run_training(cfg)

    @pytest.mark.parametrize("capacity", [420, 400])
    def test_prefill_leaving_no_batch_rejected(self, archive_path, capacity):
        learner = LearnerConfig(batch_size=32, buffer_capacity=capacity, hidden=(16, 16))
        cfg = tiny_config("hysac", archive_path, learner=learner)
        with pytest.raises(ValueError, match="fewer than batch_size=32"):
            run_training(cfg)

    def test_final_row_carries_eval(self, archive_path):
        cfg = tiny_config("auxss", archive_path)
        result = run_training(cfg)
        last_eval_step = result.evals[-1].step
        assert last_eval_step == result.rows[-1].step
        assert result.rows[-1].id_success is not None


class TestMetricsCsv:
    def test_header_and_empty_cells(self, tmp_path):
        from lavabridge.env import Cause
        rows = [
            MetricsRow(step=0, episode=0, id_success=0.0, ood_success=0.0,
                       id_return=0.0, ood_return=0.0),
            MetricsRow(step=17, episode=1, ep_len=17, ep_return=-1.0, cause=Cause.LAVA),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,episode,ep_len,ep_return,cause,id_success,ood_success,id_return,ood_return"
        assert lines[1].startswith("0,0,,,")
        assert ",lava," in lines[2]
        assert lines[2].endswith(",,,,")

    def test_round_trip(self, tmp_path):
        from lavabridge.env import Cause
        rows = [
            MetricsRow(step=0, episode=0, id_success=0.5, ood_success=0.25,
                       id_return=0.125, ood_return=-0.5),
            MetricsRow(step=9, episode=1, ep_len=9, ep_return=1.0, cause=Cause.GOAL),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        parsed = read_metrics_csv(path)
        assert parsed[0]["id_success"] == 0.5
        assert parsed[0]["ep_len"] is None
        assert parsed[1]["cause"] == "goal"
        assert parsed[1]["step"] == 9


class TestAggregation:
    def write_run(self, run_dir, eval_rows):
        run_dir.mkdir(parents=True)
        rows = []
        for step, id_s, ood_s in eval_rows:
            rows.append(MetricsRow(step=step, episode=step, id_success=id_s,
                                   ood_success=ood_s, id_return=id_s, ood_return=ood_s))
        write_metrics_csv(run_dir / "metrics.csv", rows)

    def test_median_and_quartiles_across_seeds(self, tmp_path):
        # Eval rows land just past each checkpoint; alignment buckets them.
        self.write_run(tmp_path / "s0", [(0, 0.0, 0.0), (1050, 0.2, 0.1)])
        self.write_run(tmp_path / "s1", [(0, 0.0, 0.0), (1003, 0.6, 0.5)])
        self.write_run(tmp_path / "s2", [(0, 0.0, 0.0), (1999, 1.0, 0.9)])
        rows = aggregate_runs([tmp_path / f"s{i}" for i in range(3)], eval_interval=1000)
        assert [r[0] for r in rows] == [0, 1000]
        step1k = rows[1]
        assert step1k[1] == 3          # n_seeds
        assert step1k[2] == 0.6        # id median
        assert step1k[3] == pytest.approx(0.4)   # q25
        assert step1k[4] == pytest.approx(0.8)   # q75
        assert step1k[5] == 0.5        # ood median

    def test_single_run_aggregate_is_identity(self, tmp_path):
        self.write_run(tmp_path / "only", [(0, 0.1, 0.2), (512, 0.3, 0.4)])
        rows = aggregate_runs([tmp_path / "only"], eval_interval=500)
        assert rows[0][2] == 0.1 and rows[0][5] == 0.2
        assert rows[1][0] == 500 and rows[1][2] == 0.3 and rows[1][5] == 0.4
