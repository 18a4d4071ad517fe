"""Tests of the benchmark itself: python3 -m pytest perfbench

A tiny-size run of every workload, traced and untraced, must emit every
metric that BENCHMARK.json names, with its unit; the output checks must
reject corrupted outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.import_package() is not None, "run from a checkout that has src/lavabridge"

import tracing  # noqa: E402
import workloads  # noqa: E402
from lavabridge import bench  # noqa: E402
from lavabridge.env import LavaBridgeEnv  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit) for m in tracing.PER_LAYER]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    result, record = run.measure(name, 5, 0.0, trace, workloads.TINY, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["problems"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert record["rounds"] >= (2 if trace else 1)
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        if name != "train-auxss":
            assert metrics["learner.update_step.count"] == 0
        if name == "safety":
            assert all(v == 0 for k, v in metrics.items() if k.startswith("nets.") and k.endswith(".count"))
    assert not any(p.name.startswith("round") for p in tmp_path.iterdir())


def _training_outputs(tmp_path):
    wl = workloads.TrainAuxss(5, workloads.TINY, tmp_path)
    wl.setup()
    out = tmp_path / "run"
    result = bench.run_training(wl.cfg, out_dir=out)
    params = [p for ps in result.learner.named_networks().values() for p in ps]
    return (out / "metrics.csv").read_text(), result.env_steps, wl.cfg.eval_interval, params


def test_training_check_rejects_tampered_metrics(tmp_path):
    text, steps, interval, params = _training_outputs(tmp_path)
    assert workloads.check_training(text, steps, interval, params) == []
    lines = text.splitlines()
    # Lengthen one episode without moving the step counter.
    fields = lines[2].split(",")
    fields[2] = str(int(fields[2]) + 1)
    tampered = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert workloads.check_training(tampered, steps, interval, params)
    # Drop the evaluation cells of the first row that crossed an interval.
    crossing = next(i for i, line in enumerate(lines[2:], 2) if line.split(",")[5])
    fields = lines[crossing].split(",")
    tampered = "\n".join(lines[:crossing] + [",".join(fields[:5] + [""] * 4)] + lines[crossing + 1:])
    assert workloads.check_training(tampered + "\n", steps, interval, params)
    bad = [p.copy() for p in params]
    bad[0].flat[0] = np.nan
    assert workloads.check_training(text, steps, interval, bad)


def test_evaluation_check():
    assert workloads.check_evaluation(0.5, 0.3, 1.0, -1.0) == []
    assert workloads.check_evaluation(1.5, 0.3, 1.0, -1.0)
    assert workloads.check_evaluation(0.0, 0.2, 1.0, -1.0)  # positive return without a success
    assert workloads.check_evaluation(1.0, -0.1, 1.0, -1.0)  # negative return with all successes


def test_safety_checks():
    env = LavaBridgeEnv()
    rows = [(5.0, 2.0, 0.0), (9.0, 5.0, 1.0), (1.0, 1.0, 0.75)]
    assert workloads.check_safety_field(rows, env, 4, 3) == []
    assert workloads.check_safety_field([(5.0, 2.0, 0.25)] + rows[1:], env, 4, 3)  # lava not 0
    assert workloads.check_safety_field(rows[:2] + [(1.0, 1.0, 0.3)], env, 4, 3)  # not k/n
    assert workloads.check_safety_field(rows[:2], env, 4, 3)  # a cell missing
    assert workloads.check_omega_weights(np.array([0.05, 0.5, 1.0]), 0.05) == []
    assert workloads.check_omega_weights(np.array([0.01, 1.0]), 0.05)
    assert workloads.check_omega_weights(np.array([0.5, 0.9]), 0.05)


class _Flaky:
    """Stands in for a workload whose second round returns other outputs."""

    def __init__(self):
        self.calls = 0

    def round(self, index):
        self.calls += 1
        return workloads.RoundResult([(5, 1.0), (5, 1.0)], 0, "a" if self.calls != 2 else "b")


def test_repeat_digest_mismatch_fails_the_round():
    rounds = run.Rounds(_Flaky())
    for _ in range(3):
        rounds.run_one()
    assert (rounds.attempted, rounds.failed) == (6, 2)
    assert any("differs" in p for p in rounds.problems)


def test_missing_hook_omits_its_metrics(monkeypatch):
    monkeypatch.delattr(bench, "evaluate")
    tracer = tracing.Tracer()
    tracing.install_hooks(tracer)
    try:
        metrics = tracing.layer_metrics(tracer, 0, 1, 1.0, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert "bench.evaluate.count" not in metrics
    assert "learner.update_step.count" in metrics


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "evaluate", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
