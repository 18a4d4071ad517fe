"""The benchmark's workloads, their inputs and their output checks.

Every workload builds all of its inputs from the seed, drives the public
`lavabridge` API in a closed loop (one caller, next call when the previous
one returns) and checks each output. Work is counted in units fixed by the
inputs, not by the code under test, so a faster implementation cannot change
how much work a round represents.

A round is the repeating unit of a workload. Rounds of one invocation use
identical inputs, so each round's output digest must equal the first one's.
A digest that differs across commits is only reported: a change that
re-pins the numerics on purpose (e.g. a batched simulator) is still correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from lavabridge import bench, demos, safety, samplers
from lavabridge.config import EnvSettings, RunConfig
from lavabridge.env import Cause, State, Vec2
from lavabridge.learner import LearnerConfig, SACLearner
from lavabridge.samplers import SamplerConfig

__all__ = ["FULL", "TINY", "WORKLOADS", "Sizes", "RoundResult"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the command line always uses FULL, the tests use TINY."""

    horizon: int = 500
    demo_transitions: int = 500
    demo_subset: int = 150
    t_max: int = 5000
    eval_interval: int = 5000
    eval_episodes: int = 20
    # Output-layer scales of the evaluate policies: 1.0 runs into lava after
    # ~100 steps, 0.0 never moves and times out at the horizon.
    policy_scales: tuple[float, ...] = (1.0, 0.3, 0.1, 0.0)
    safety_k: int = 4
    safety_n: int = 64
    grid: int = 20
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(demo_transitions=200, demo_subset=20, t_max=300, eval_interval=100,
             eval_episodes=2, policy_scales=(1.0, 0.0), safety_n=4, grid=4, setup_repeats=1)


@dataclass
class RoundResult:
    # (work units, seconds) of each operation in a fixed order; the seconds
    # cover the call into `lavabridge` only, not the checks. NaN if it raised.
    ops: list[tuple[float, float]]
    failed: int                  # operations that raised or failed a check
    digest: str                  # sha256 over the round's outputs
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng((seed, *key))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fail(problems: list[str], where: str, exc: Exception) -> None:
    problems.append(f"{where}: {type(exc).__name__}: {exc}")


# -- output checks ----------------------------------------------------------------


def check_training(metrics_csv: str, env_steps: int, eval_interval: int, params) -> list[str]:
    """Problems with one training run's metrics.csv text and final parameters."""
    problems = []
    rows = list(csv.DictReader(io.StringIO(metrics_csv)))
    if not rows or rows[0]["step"] != "0" or not rows[0]["id_success"]:
        return ["metrics.csv does not open with the step-0 evaluation row"]
    ep_len_sum = sum(int(r["ep_len"]) for r in rows[1:])
    if ep_len_sum != env_steps:
        problems.append(f"ep_len values sum to {ep_len_sum}, env_steps is {env_steps}")
    next_eval = eval_interval
    for r in rows[1:]:
        step = int(r["step"])
        crossed = step >= next_eval
        if crossed != bool(r["id_success"]):
            problems.append(f"step {step}: evaluation row {'missing' if crossed else 'unexpected'}")
        if crossed:
            next_eval = (step // eval_interval + 1) * eval_interval
    for r in rows:
        for key in ("id_success", "ood_success"):
            if r[key] and not 0.0 <= float(r[key]) <= 1.0:
                problems.append(f"step {r['step']}: {key}={r[key]} outside [0, 1]")
    if not all(np.all(np.isfinite(p)) for p in params):
        problems.append("final parameters are not finite")
    return problems


def check_evaluation(success: float, mean_return: float, goal_reward: float,
                     lava_reward: float) -> list[str]:
    """Success in [0, 1] and the mean return within what its outcomes allow.

    Only terminal steps pay, so each episode returns at most ``goal_reward``
    (goal), at least ``lava_reward`` (lava), or 0 (timeout).
    """
    if not 0.0 <= success <= 1.0:
        return [f"success {success} outside [0, 1]"]
    hi = success * goal_reward
    lo = (1.0 - success) * lava_reward
    if not lo - 1e-12 <= mean_return <= hi + 1e-12:
        return [f"return {mean_return} outside [{lo}, {hi}] for success {success}"]
    return []


def check_safety_field(rows, env, n_rollouts: int, n_cells: int) -> list[str]:
    """Values in [0, 1] on the 1/n lattice; lava cells 0, goal cells 1."""
    problems = []
    if len(rows) != n_cells:
        problems.append(f"{len(rows)} cells, expected {n_cells}")
    for px, py, omega in rows:
        cause = env.is_terminal(State(Vec2(px, py), Vec2(0.0, 0.0)))
        if cause is Cause.LAVA and omega != 0.0:
            problems.append(f"lava cell ({px}, {py}) has safety {omega}")
        elif cause is Cause.GOAL and omega != 1.0:
            problems.append(f"goal cell ({px}, {py}) has safety {omega}")
        elif not 0.0 <= omega <= 1.0 or abs(omega * n_rollouts - round(omega * n_rollouts)) > 1e-9:
            problems.append(f"cell ({px}, {py}) has safety {omega}, not a multiple of 1/{n_rollouts}")
    return problems


def check_omega_weights(w: np.ndarray, epsilon: float) -> list[str]:
    """Safety-inverse weights are max-normalized into [epsilon, 1]."""
    if w.size == 0 or not np.all(np.isfinite(w)):
        return ["omega weights are empty or not finite"]
    if w.max() != 1.0 or w.min() < epsilon * (1.0 - 1e-12):
        return [f"omega weights span [{w.min()}, {w.max()}], expected [{epsilon}, 1] with max 1"]
    return []


# -- workloads ------------------------------------------------------------------------


class Workload:
    name = ""
    unit = ""                    # what one unit of work is

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = Path(workdir)
        self.env_settings = EnvSettings()

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def properties(self) -> dict:
        """Measured properties of the generated inputs."""
        return {}

    def _archive(self):
        """Generate the seeded expert archive, write it and read it back."""
        env = self.env_settings.build(self.sizes.horizon)
        archive = demos.generate_demos(env, self.sizes.demo_transitions, self.seed)
        path = self.workdir / "demos.csv"
        demos.save_archive(archive, path)
        return path, demos.load_archive(path, expected_geometry_hash=env.geometry_hash())


class TrainAuxss(Workload):
    """`run_training` with method auxss, default learner and evaluation.

    Why: `update_step` takes most of the wall time here (~83% traced over
    5000 steps, ~90% in long runs), so learner, nets and replay changes show,
    while env, sampler, evaluation and output writes are thin slices.
    Layer -> end-to-end: `learner.update_step.*`, `nets.*` (batch) and
    `replay.*` move work_per_s (= 1000 / ms_per_env_step) here;
    `bench.evaluate.share` bounds what a faster evaluation can save (~12%
    here, with checkpoints at steps 0 and 5000; ~5% in long runs); `io.*`
    shows the cost of output and run-state writes. `demos.*` and
    `samplers.build_s` move setup_s.
    """

    name = "train-auxss"
    unit = "env steps"

    def setup(self) -> None:
        path, archive = self._archive()
        self.archive = archive
        s = self.sizes
        self.cfg = RunConfig(method="auxss", t_max=s.t_max, horizon=s.horizon, seed=self.seed,
                             eval_interval=s.eval_interval, eval_episodes=s.eval_episodes,
                             demo_archive=str(path), demo_subset=s.demo_subset)
        # The same configuration run for zero steps: archive load, subsample,
        # learner, buffer and sampler construction, the step-0 evaluation, writes.
        out = self.workdir / "setup"
        bench.run_training(replace(self.cfg, t_max=0), out_dir=out)
        shutil.rmtree(out)

    def round(self, index: int) -> RoundResult:
        out = self.workdir / f"round{index}"
        problems: list[str] = []
        try:
            result, seconds = _timed(bench.run_training, self.cfg, out_dir=out)
        except Exception as exc:  # counted as a failed operation, the suite goes on
            _fail(problems, "run_training", exc)
            shutil.rmtree(out, ignore_errors=True)
            return RoundResult([(0, math.nan)], 1, "", problems)
        text = (out / "metrics.csv").read_text()
        params = [p for ps in result.learner.named_networks().values() for p in ps]
        problems += check_training(text, result.env_steps, self.cfg.eval_interval, params)
        h = hashlib.sha256(text.encode())
        for p in params:
            h.update(np.ascontiguousarray(p).tobytes())
        written = _dir_bytes(out)
        shutil.rmtree(out)
        return RoundResult([(result.env_steps, seconds)], 1 if problems else 0, h.hexdigest(),
                           problems, written)

    def properties(self) -> dict:
        lengths = [len(t) for t in self.archive.trajectories]
        return {"demo_transitions": self.archive.n_transitions, "demo_trajectories": len(lengths),
                "demo_mean_length": float(np.mean(lengths)), "demo_subset": self.sizes.demo_subset}


class Evaluate(Workload):
    """`evaluate` from p0 and ood over seeded 64x64 policies of scaled outputs.

    Why: `env.step` and single-row deterministic `act` are nearly all of the
    work and no update runs. A lockstep batched evaluation shows its full
    gain here, and its loss when episodes end at different times (the
    policies range from ~100-step lava runs to 500-step timeouts). A
    batch-256 learner change should show no change. Layer -> end-to-end:
    `learner.act_deterministic.*`, `nets.forward_b1.*` and `env.step.*` move
    work_per_s (= eval_steps_per_s); `learner.update_step.count` stays 0.
    """

    name = "evaluate"
    unit = "env steps"

    def setup(self) -> None:
        s = self.sizes
        self.env = self.env_settings.build(s.horizon)
        self.gamma = LearnerConfig().gamma
        self.policies = []
        for i, scale in enumerate(s.policy_scales):
            learner = SACLearner(LearnerConfig(), init_rng=_rng(self.seed, 1, i),
                                 noise_rng=_rng(self.seed, 2, i), f_max=self.env_settings.f_max)
            for p in learner.policy.params[-2:]:
                p *= scale
            self.policies.append(learner)
        self.calls = [(i, which) for i in range(len(self.policies)) for which in ("p0", "ood")]
        self.reference = [self._reference(i, which) for i, which in self.calls]

    def _call_rng(self, i: int, which: str) -> np.random.Generator:
        return _rng(self.seed, 3, i, 0 if which == "p0" else 1)

    def _reference(self, i: int, which: str) -> dict:
        """The same episodes rolled out one `act` and `step` at a time.

        Fixes each call's step count, which is the work a round represents.
        """
        learner, env, rng = self.policies[i], self.env, self._call_rng(i, which)
        steps = successes = 0
        total = 0.0
        for _ in range(self.sizes.eval_episodes):
            env.reset_to(env.sample_start(which, rng))
            discount, ret = 1.0, 0.0
            for _ in range(self.sizes.horizon):
                res = env.step(learner.act(env.state, stochastic=False))
                steps += 1
                ret += discount * res.reward
                discount *= self.gamma
                if res.terminated:
                    successes += res.cause is Cause.GOAL
                    break
            total += ret
        n = self.sizes.eval_episodes
        return {"steps": steps, "success": successes / n, "return": total / n}

    def round(self, index: int) -> RoundResult:
        problems: list[str] = []
        ops = []
        failed = 0
        h = hashlib.sha256()
        for (i, which), ref in zip(self.calls, self.reference):
            try:
                (success, ret), seconds = _timed(
                    bench.evaluate, self.policies[i], self.env, which, self.sizes.eval_episodes,
                    self.sizes.horizon, self.gamma, self._call_rng(i, which))
            except Exception as exc:
                _fail(problems, f"evaluate policy {i} {which}", exc)
                ops.append((ref["steps"], math.nan))
                failed += 1
                continue
            ops.append((ref["steps"], seconds))
            found = check_evaluation(success, ret, self.env.goal_reward, self.env.lava_reward)
            problems += found
            failed += bool(found)
            h.update(f"{success!r},{ret!r};".encode())
        return RoundResult(ops, failed, h.hexdigest(), problems)

    def properties(self) -> dict:
        n = self.sizes.eval_episodes
        return {
            "episodes_per_call": n,
            "mean_episode_length": {
                f"scale={self.sizes.policy_scales[i]}/{which}": ref["steps"] / n
                for (i, which), ref in zip(self.calls, self.reference)
            },
            "success": {f"scale={self.sizes.policy_scales[i]}/{which}": ref["success"]
                        for (i, which), ref in zip(self.calls, self.reference)},
            "steps_per_round": sum(r["steps"] for r in self.reference),
        }


class Safety(Workload):
    """Omega sampler build over the demo subset, then a `safety_field` grid.

    Why: many short rollouts, each starting with a reset; it exercises env
    reset/step and the per-rollout RNG while the networks do no work at all.
    Layer -> end-to-end: `safety.estimate.*`, `env.reset_to.*`, `env.step.*`
    and `safety.field_s` move work_per_s (= safety_states_per_s);
    `samplers.build_s` moves setup_s; `nets.*.count` stays 0.
    """

    name = "safety"
    unit = "states"

    def setup(self) -> None:
        s = self.sizes
        _, archive = self._archive()
        self.demo = demos.subsample_states(archive, s.demo_subset, self.seed)
        self.env = self.env_settings.build(s.horizon)
        self.sampler_cfg = SamplerConfig(kind="omega", k_safety=s.safety_k,
                                         n_safety_rollouts=s.safety_n)
        samplers.SafetyWeightedSampler(self.demo, self.env, self.sampler_cfg, _rng(self.seed, 4, 0))

    def round(self, index: int) -> RoundResult:
        s = self.sizes
        problems: list[str] = []
        ops = [(len(self.demo), math.nan), (s.grid * s.grid, math.nan)]
        failed = 0
        h = hashlib.sha256()
        try:
            sampler, seconds = _timed(samplers.SafetyWeightedSampler, self.demo, self.env,
                                      self.sampler_cfg, _rng(self.seed, 4, 0))
            ops[0] = (len(self.demo), seconds)
            w = np.asarray(sampler.weights.w, dtype=np.float64)
            found = check_omega_weights(w, self.sampler_cfg.epsilon)
            problems += found
            failed += bool(found)
            h.update(w.tobytes())
        except Exception as exc:
            _fail(problems, "omega build", exc)
            failed += 1
        try:
            rows, seconds = _timed(safety.safety_field, self.env, s.safety_k, s.safety_n,
                                   _rng(self.seed, 4, 1), nx=s.grid, ny=s.grid)
            ops[1] = (s.grid * s.grid, seconds)
            found = check_safety_field(rows, self.env, s.safety_n, s.grid * s.grid)
            problems += found
            failed += bool(found)
            h.update(np.asarray(rows, dtype=np.float64).tobytes())
        except Exception as exc:
            _fail(problems, "safety_field", exc)
            failed += 1
        return RoundResult(ops, failed, h.hexdigest(), problems)

    def properties(self) -> dict:
        world = self.env.geometry.world
        g = self.sizes.grid
        causes = [self.env.is_terminal(State(Vec2(float(x), float(y)), Vec2(0.0, 0.0)))
                  for y in np.linspace(world.ymin, world.ymax, g)
                  for x in np.linspace(world.xmin, world.xmax, g)]
        share = {c: sum(k is c for k in causes) / len(causes) for c in (Cause.LAVA, Cause.GOAL)}
        return {"demo_states": len(self.demo), "grid_cells": g * g,
                "grid_share_lava": share[Cause.LAVA], "grid_share_goal": share[Cause.GOAL],
                "grid_share_open": 1.0 - share[Cause.LAVA] - share[Cause.GOAL],
                "k": self.sizes.safety_k, "rollouts_per_state": self.sizes.safety_n}


WORKLOADS = {w.name: w for w in (TrainAuxss, Evaluate, Safety)}
