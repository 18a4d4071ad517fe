import csv
import subprocess
import sys

import numpy as np
import pytest

from lavabridge import bench
from lavabridge.bench import _job_env, sweep
from lavabridge.checkpoint import save_checkpoint
from lavabridge.cli import main
from lavabridge.config import RunConfig
from lavabridge.demos import save_archive
from lavabridge.learner import LearnerConfig, SACLearner
from lavabridge.rngs import substream
from lavabridge.safety import safety_field


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, demo_archive):
    root = tmp_path_factory.mktemp("cli")
    archive = root / "demos.csv"
    save_archive(demo_archive, archive)
    cfg = root / "run.cfg"
    cfg.write_text(
        "run.method = auxss\n"
        f"run.demo_archive = {archive}\n"
        "run.t_max = 500\n"
        "run.horizon = 100\n"
        "run.eval_interval = 250\n"
        "run.eval_episodes = 2\n"
        "run.demo_subset = 30\n"
        "learner.batch_size = 32\n"
        "learner.buffer_capacity = 1000\n"
        "learner.hidden = 16,16\n"
    )
    return root


def test_gen_demos(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["gen-demos", "--n", "120", "--seed", "3", "--out", str(out)]) == 0
    assert "120 transitions" in capsys.readouterr().out
    assert out.exists()


def test_train_and_eval(workdir, capsys):
    rundir = workdir / "run0"
    assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "5",
                 "--out-dir", str(rundir), "--quiet"]) == 0
    assert (rundir / "metrics.csv").exists()
    assert (rundir / "sampler_weights.csv").exists()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(rundir / "checkpoint.npz"),
                 "--dist", "ood", "--episodes", "3",
                 "--config", str(workdir / "run.cfg")]) == 0
    assert "success_rate=" in capsys.readouterr().out


@pytest.mark.parametrize("tamper, match", [
    (lambda policy: policy[:-1], "'policy' holds 5 arrays, the learner has 6"),
    (lambda policy: [policy[0], np.zeros(1, np.float32)] + policy[2:],
     r"'policy' array 1 has shape \(1,\), the learner expects \(16,\)"),
], ids=["missing-array", "short-bias"])
def test_eval_rejects_mismatched_policy(tamper, match, workdir, tmp_path):
    learner = SACLearner(LearnerConfig(hidden=(16, 16)), init_rng=np.random.default_rng(0),
                         noise_rng=np.random.default_rng(1))
    nets = learner.named_networks()
    nets["policy"] = tamper(nets["policy"])
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, nets)
    with pytest.raises(SystemExit, match=match):
        main(["eval", "--checkpoint", str(path), "--episodes", "1",
              "--config", str(workdir / "run.cfg")])


def test_eval_loads_float64_policy_under_float32_config_bitwise(workdir, tmp_path, monkeypatch):
    # The run's config says float32 (the default); the checkpoint is float64.
    learner = SACLearner(LearnerConfig(hidden=(16, 16), dtype="float64"),
                         init_rng=np.random.default_rng(0), noise_rng=np.random.default_rng(1))
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, learner.named_networks())
    seen = []

    def capture(policy, *args):
        seen.append(policy)
        return 0.0, 0.0

    monkeypatch.setattr(bench, "evaluate", capture)
    assert main(["eval", "--checkpoint", str(path), "--episodes", "1",
                 "--config", str(workdir / "run.cfg")]) == 0
    (loaded,) = seen
    for name, want in learner.named_networks().items():
        for a, b in zip(want, loaded.named_networks()[name], strict=True):
            assert b.dtype == np.float64
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["policy", "q2_target"])
def test_eval_rejects_mixed_dtypes(name, workdir, tmp_path):
    learner = SACLearner(LearnerConfig(hidden=(16, 16), dtype="float64"),
                         init_rng=np.random.default_rng(0), noise_rng=np.random.default_rng(1))
    nets = learner.named_networks()
    nets[name] = [a.astype(np.float32) if i == 2 else a for i, a in enumerate(nets[name])]
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, nets)
    with pytest.raises(SystemExit, match=f"'{name}' array 2 has dtype float32, "
                                         "the policy's array 0 has float64"):
        main(["eval", "--checkpoint", str(path), "--episodes", "1",
              "--config", str(workdir / "run.cfg")])


def test_seed_override_lands_in_config(workdir):
    rundir = workdir / "run_seeded"
    main(["train", "--config", str(workdir / "run.cfg"), "--seed", "9",
          "--out-dir", str(rundir), "--quiet"])
    assert "run.seed = 9" in (rundir / "config.txt").read_text()


def test_safety_map(tmp_path, capsys):
    # The rollout horizon and count come from the config. At a 9 x 9 grid the
    # field for k = 20 has fractional cells and the one for k = 4 has none, so
    # a k that does not come from the config shows.
    cfg_path, out = tmp_path / "safety.cfg", tmp_path / "field.csv"
    cfg_path.write_text("sampler.k_safety = 20\nsampler.n_safety_rollouts = 4\n")
    assert main(["safety-map", "--config", str(cfg_path), "--grid", "9",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert set(rows[0]) == {"px", "py", "omega"}
    cfg = RunConfig(method="sac")
    env = cfg.env.build(cfg.horizon)
    want = safety_field(env, 20, 4, substream(1, "sampler", 2), nx=9, ny=9)
    assert [tuple(float(r[c]) for c in ("px", "py", "omega")) for r in rows] == want
    assert want != safety_field(env, 4, 4, substream(1, "sampler", 2), nx=9, ny=9)


def test_sweep_subprocesses(workdir):
    outdir = workdir / "sweep"
    assert main(["sweep", "--config", str(workdir / "run.cfg"), "--seeds", "2",
                 "--jobs", "2", "--out-dir", str(outdir), "--quiet"]) == 0
    jobs = list(csv.DictReader((outdir / "jobs.csv").open()))
    assert [j["status"] for j in jobs] == ["ok", "ok"]
    agg = list(csv.DictReader((outdir / "aggregate.csv").open()))
    assert agg[0]["step"] == "0"
    assert agg[0]["n_seeds"] == "2"
    assert (outdir / "seed_0/metrics.csv").exists()
    assert (outdir / "seed_1/metrics.csv").exists()


def test_module_entrypoint_help():
    # Run the way a sweep job runs, so it works without lavabridge installed.
    proc = subprocess.run([sys.executable, "-m", "lavabridge.cli", "--help"],
                          capture_output=True, text=True, env=_job_env())
    assert proc.returncode == 0
    assert "gen-demos" in proc.stdout
    assert "safety-map" in proc.stdout


def test_unknown_method_fails_cleanly(workdir, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("run.method = nonsense\n")
    with pytest.raises(ValueError, match="unknown method"):
        main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "x"), "--quiet"])


@pytest.mark.parametrize("argv", [
    ["gen-demos", "--n", "0", "--out", "d.csv"],
    ["eval", "--checkpoint", "c.npz", "--episodes", "0"],
    ["sweep", "--seeds", "0", "--out-dir", "s"],
    ["sweep", "--jobs", "0", "--out-dir", "s"],
    ["sweep", "--jobs", "two", "--out-dir", "s"],
    ["safety-map", "--grid", "-3", "--out", "f.csv"],
])
def test_count_flags_rejected_at_parse_time(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gen-demos", "--n", "10", "--seed", "-1", "--out", "d.csv"],
    ["train", "--seed", "-1", "--out-dir", "r"],
    ["eval", "--checkpoint", "c.npz", "--seed", "-1"],
    ["safety-map", "--seed", "-1", "--out", "f.csv"],
    ["safety-map", "--seed", "one", "--out", "f.csv"],
])
def test_seed_flags_rejected_at_parse_time(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_a_negative_seed_starts_no_job(workdir, tmp_path):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text((workdir / "run.cfg").read_text() + "run.seed = -1\n")
    with pytest.raises(ValueError, match="seed"):
        main(["sweep", "--config", str(cfg), "--seeds", "2", "--out-dir",
              str(tmp_path / "sweep"), "--quiet"])
    assert not list(tmp_path.glob("**/seed_*"))


@pytest.mark.parametrize("seeds, jobs, match", [
    ([], 1, "at least one seed"),
    ([0, 1], 0, "jobs must be >= 1"),
    ([-1], 1, ">= 0"),
])
def test_sweep_rejects_empty_seeds_and_zero_jobs(seeds, jobs, match, tmp_path):
    with pytest.raises(ValueError, match=match):
        sweep(RunConfig(method="sac"), seeds, tmp_path / "sweep", jobs=jobs)
    assert not (tmp_path / "sweep").exists()
