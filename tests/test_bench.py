import csv
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from lavabridge import bench
from lavabridge.bench import (
    METRICS_HEADER,
    MetricsRow,
    TrainingRun,
    aggregate_runs,
    evaluate,
    read_metrics_csv,
    run_training,
    write_csv,
)
from lavabridge.config import METHODS, RunConfig, config_from_mapping, format_value, parse_value
from lavabridge.demos import ArchiveFormatError, save_archive, scripted_expert
from lavabridge.env import Cause, InvalidResetError, LavaBridgeEnv
from lavabridge.learner import LearnerConfig, SACLearner
from lavabridge.samplers import (
    EpisodeLengthSampler,
    GoalDistSampler,
    JumpStart,
    P0Start,
    SafetyWeightedSampler,
    SamplerConfig,
    UniformSampler,
)


class ExpertPolicy:
    """Adapter presenting the scripted expert through the learner's act()."""

    def __init__(self, geometry):
        self.geometry = geometry

    def act(self, state, stochastic):
        return scripted_expert(state, self.geometry)

    def act_batch(self, states):
        return np.array([self.act(s, False) for s in states])


class RandomPolicy:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def act_batch(self, states):
        return self.rng.uniform(-1, 1, size=(len(states), 2))


def scalar_evaluate(learner, env, which, n_episodes, horizon, gamma, rng):
    """Reference for `evaluate`: one episode and one single-row `act` at a time.

    Returns `evaluate`'s (success rate, mean discounted return) and the
    length of each episode.
    """
    successes = 0
    total_return = 0.0
    lengths = []
    for _ in range(n_episodes):
        env.reset_to(env.sample_start(which, rng))
        discount = 1.0
        ep_return = 0.0
        length = 0
        for _ in range(horizon):
            res = env.step(learner.act(env.state, stochastic=False))
            length += 1
            ep_return += discount * res.reward
            discount *= gamma
            if res.terminated:
                if res.cause is Cause.GOAL:
                    successes += 1
                break
        total_return += ep_return
        lengths.append(length)
    return (successes / n_episodes, total_return / n_episodes), lengths


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

    # Output-layer scales: 1.0 reaches lava within ~120 steps, 0.0 never moves
    # and times out, so the episodes of one call end at different steps.
    @pytest.mark.parametrize("scale", [1.0, 0.3, 0.1, 0.0])
    @pytest.mark.parametrize("which", ["p0", "ood"])
    def test_lockstep_matches_scalar_loop(self, scale, which):
        env = LavaBridgeEnv(horizon=300)
        learner = SACLearner(LearnerConfig(), init_rng=np.random.default_rng(11),
                             noise_rng=np.random.default_rng(12))
        for p in learner.policy.params[-2:]:
            p *= scale
        for n_episodes, horizon in ((10, 300), (10, 120), (1, 300)):
            got = evaluate(learner, env, which, n_episodes, horizon, 0.99,
                           np.random.default_rng(13))
            want, lengths = scalar_evaluate(learner, env, which, n_episodes, horizon, 0.99,
                                            np.random.default_rng(13))
            assert got == want
            if n_episodes > 1 and horizon == env.horizon and scale > 0.0:
                assert len(set(lengths)) > 1

    def test_lockstep_matches_scalar_loop_with_successes(self):
        env = LavaBridgeEnv()
        policy = ExpertPolicy(env.geometry)
        got = evaluate(policy, env, "p0", 8, 500, 0.99, np.random.default_rng(5))
        want, lengths = scalar_evaluate(policy, env, "p0", 8, 500, 0.99, np.random.default_rng(5))
        assert got == want
        assert got[0] > 0.5
        assert len(set(lengths)) > 1

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
        assert (tmp_path / "a/checkpoint.npz").read_bytes() == (tmp_path / "b/checkpoint.npz").read_bytes()

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
        assert (tmp_path / method / "checkpoint.npz").exists()
        if method in ("hysac", "hysac-auxss"):
            assert result.buffer.frozen_prefix_len == 400  # archive size
        if method in ("goaldist", "omega", "hysac-auxss"):
            assert (tmp_path / method / "sampler_weights.csv").exists()

    @pytest.mark.parametrize("method", list(METHODS))
    def test_run_directory_holds_the_documented_files(self, archive_path, tmp_path, method):
        # run_training's docstring lists these: sampler_weights.csv only for the
        # start rules that hold weights, and a prefill run writes no buffer copy.
        cfg = tiny_config(method, archive_path, t_max=200, eval_interval=200)
        run = run_training(cfg, out_dir=tmp_path / "run")
        weighted = method in ("auxss", "uniform", "goaldist", "omega", "hysac-auxss")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "checkpoint.npz", "config.txt", "metrics.csv",
            *(["sampler_weights.csv"] if weighted else [])]
        assert read_metrics_csv(tmp_path / "run" / "metrics.csv") == run.rows

    def test_geometry_mismatch_rejected(self, archive_path):
        from lavabridge.config import EnvSettings
        cfg = tiny_config("auxss", archive_path, env=EnvSettings(goal_radius=0.3))
        with pytest.raises(ArchiveFormatError, match="geometry"):
            run_training(cfg)

    @pytest.mark.parametrize("method", ["auxss", "hysac", "jsrl"])
    def test_bad_archive_state_rejected_before_the_run(self, tmp_path, demo_archive, method):
        # One demo state moved into lava, geometry stamp intact: the run stops
        # at set-up, before a sampler could pick it or the replay buffer copy it.
        first = demo_archive.trajectories[0]
        states = first.states.copy()
        states[3, :2] = (5.0, 2.0)
        moved = replace(demo_archive, trajectories=(replace(first, states=states),
                                                    *demo_archive.trajectories[1:]))
        path = tmp_path / "demos.csv"
        save_archive(moved, path)
        cfg = tiny_config(method, path)
        with pytest.raises(InvalidResetError, match=r"reset position \(5.0, 2.0\) is inside lava"):
            run_training(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("field, row, value, message", [
        # hysac would store a terminal row as the next state of a done, goal-paid transition.
        ("states", -1, (2.0, 5.0), "goal disc at its last state"),  # ends on the open floor
        ("states", -3, (9.0, 5.0), "goal disc at its last state"),  # in the goal disc too early
        # The env clamps forces to f_max, so 5.0 is not the force that was executed.
        ("actions", 2, (5.0, 0.0), r"force beyond f_max=1\.0"),
    ], ids=["terminal-row-off-goal", "goal-before-last-state", "force-beyond-f_max"])
    def test_archive_the_env_could_not_produce_rejected_at_build(self, tmp_path, demo_archive,
                                                                 field, row, value, message):
        first = demo_archive.trajectories[0]
        arr = getattr(first, field).copy()
        arr[row, :2] = value
        edited = replace(demo_archive, trajectories=(replace(first, **{field: arr}),
                                                     *demo_archive.trajectories[1:]))
        path = tmp_path / "demos.csv"
        save_archive(edited, path)
        with pytest.raises(ArchiveFormatError, match=f"demo trajectory {first.episode_id} .*{message}"):
            TrainingRun(tiny_config("hysac", path))

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


class TestTrainingRun:
    @pytest.mark.parametrize("method, sampler_cls, prefix", [
        ("auxss", EpisodeLengthSampler, 0),
        ("uniform", UniformSampler, 0),
        ("goaldist", GoalDistSampler, 0),
        ("omega", SafetyWeightedSampler, 0),
        ("sac", P0Start, 0),
        ("hysac", P0Start, 400),  # the archive's transition count
        ("hysac-auxss", EpisodeLengthSampler, 400),
        ("jsrl", JumpStart, 0),
    ])
    def test_method_table_builds_start_rule_and_buffer(self, archive_path, method, sampler_cls,
                                                        prefix):
        # Building runs no episode; t_max=1 because GoalDistSampler rejects t_max=0.
        run = TrainingRun(tiny_config(method, archive_path, t_max=1))
        assert type(run.sampler) is sampler_cls
        assert run.buffer.frozen_prefix_len == prefix
        assert [r.step for r in run.evals] == [0]

    @pytest.mark.parametrize("method", ["auxss", "uniform", "omega", "sac", "hysac", "hysac-auxss",
                                        "jsrl"])
    def test_zero_budget_builds_for_every_method_but_goaldist(self, archive_path, method):
        # perfbench's train-auxss set-up builds such a run; goaldist rejects t_max=0 in RunConfig.
        run = run_training(tiny_config(method, archive_path, t_max=0))
        assert run.episodes == 0 and [r.step for r in run.evals] == [0]

    def test_sac_never_reads_the_archive(self, archive_path, tmp_path):
        cfg = tiny_config("sac", archive_path, t_max=200, eval_interval=200,
                          demo_archive=str(tmp_path / "missing.csv"))
        assert run_training(cfg).env_steps >= 200

    def test_evals_land_on_rows_that_cross_an_interval(self, archive_path):
        run = run_training(tiny_config("uniform", archive_path, eval_interval=250))
        crossed = [r.step for prev, r in zip(run.rows, run.rows[1:])
                   if r.step // 250 > prev.step // 250]
        assert len(crossed) >= 4
        assert [r.step for r in run.evals] == [0, *crossed]

    def test_loop_calls_through_module_globals(self, archive_path, monkeypatch, tmp_path):
        # perfbench's tracer swaps these module globals. A run that bound them
        # early would bypass the swap, and the traced bench.* and io.* metrics
        # would read 0.
        calls = dict.fromkeys(["train_for_one_episode", "evaluate", "write_csv",
                               "save_checkpoint"], 0)

        def counting(name):
            fn = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bench, name, counting(name))
        run = run_training(tiny_config("auxss", archive_path), out_dir=tmp_path / "run")
        assert len(run.evals) >= 2
        assert calls == {"train_for_one_episode": run.episodes, "evaluate": 2 * len(run.evals),
                         "write_csv": 2, "save_checkpoint": 1}


def write_metrics(path, rows):
    """metrics.csv as ``TrainingRun.save`` writes it: one line per row, in field order."""
    write_csv(path, METRICS_HEADER, [astuple(r) for r in rows])


class TestWriteCsv:
    def test_cells_are_config_codec_text(self, tmp_path):
        rows = [[0, 0.1, None, "a,b", Cause.GOAL, True], [7, 1 / 3, -0.0, "", Cause.LAVA, False]]
        path = tmp_path / "t.csv"
        write_csv(path, ["i", "x", "y", "s", "cause", "flag"], rows)
        assert path.read_bytes() == (b'i,x,y,s,cause,flag\r\n0,0.1,,"a,b",goal,true\r\n'
                                     b'7,0.3333333333333333,-0.0,,lava,false\r\n')
        with open(path, newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        assert cells == [[format_value(v) for v in row] for row in rows]

    def test_floats_read_back_bit_for_bit(self, tmp_path):
        values = np.random.default_rng(4).normal(size=200) * 10.0 ** np.arange(-100, 100)
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], ([v] for v in values.tolist()))
        with open(path, newline="") as fh:
            back = np.array([parse_value(float, c) for c, in list(csv.reader(fh))[1:]])
        assert back.tobytes() == values.tobytes()

    def test_sweep_tables_keep_their_cell_text(self, tmp_path):
        # format_value gives jobs.csv's ints, strings and rounded floats their str() text.
        rows = [(3, "ok", 12.34, ""), (4, "failed", 0.5, "ValueError: x, y")]
        path = tmp_path / "jobs.csv"
        write_csv(path, ["seed", "status", "runtime_s", "error"], rows)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[1:] == [[str(v) for v in r] for r in rows]


class TestMetricsCsv:
    def test_header_and_empty_cells(self, tmp_path):
        from lavabridge.env import Cause
        rows = [
            MetricsRow(step=0, episode=0, id_success=0.0, ood_success=0.0,
                       id_return=0.0, ood_return=0.0),
            MetricsRow(step=17, episode=1, ep_len=17, ep_return=-1.0, cause=Cause.LAVA),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,episode,ep_len,ep_return,cause,id_success,ood_success,id_return,ood_return"
        assert lines[1].startswith("0,0,,,")
        assert ",lava," in lines[2]
        assert lines[2].endswith(",,,,")

    def test_round_trip(self, tmp_path):
        rows = [MetricsRow(step=0, episode=0, id_success=0.5, ood_success=0.25,
                           id_return=0.125, ood_return=-0.5)]
        for i, cause in enumerate(Cause, start=1):
            rows.append(MetricsRow(step=9 * i, episode=i, ep_len=9, ep_return=0.1 * i - 1.0,
                                   cause=cause, id_success=1 / 3 if i == 2 else None,
                                   ood_success=0.0 if i == 2 else None))
        path = tmp_path / "metrics.csv"
        write_metrics(path, rows)
        parsed = read_metrics_csv(path)
        assert parsed == rows
        assert [type(r.cause) for r in parsed[1:]] == [Cause] * len(Cause)
        assert type(parsed[0].step) is int and parsed[0].ep_len is None

    @pytest.mark.parametrize("line", ["9,1,9,1.0,goal,,,", "9,1,9,1.0,goal,,,,,"])
    def test_row_of_the_wrong_length_rejected(self, tmp_path, line):
        path = tmp_path / "metrics.csv"
        write_metrics(path, [])
        with open(path, "a") as fh:
            fh.write(line + "\n")
        # Every cell parses: only the count is wrong.
        n = len(line.split(","))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}, line 2: {n} cells, expected 9"):
            read_metrics_csv(path)

    def test_unknown_cause_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics(path, [])
        with open(path, "a") as fh:
            fh.write("9,1,9,1.0,fire,,,,\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}, line 2: .*fire"):
            read_metrics_csv(path)


class TestAggregation:
    def write_run(self, run_dir, eval_rows):
        run_dir.mkdir(parents=True)
        rows = []
        for step, id_s, ood_s in eval_rows:
            rows.append(MetricsRow(step=step, episode=step, id_success=id_s,
                                   ood_success=ood_s, id_return=id_s, ood_return=ood_s))
        write_metrics(run_dir / "metrics.csv", rows)

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
