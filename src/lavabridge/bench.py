"""Training loop, ID/OOD evaluation, multi-seed sweeps, metrics emission.

The training loop wires a start-state source (one of the samplers, the
task's own start distribution, or the receding jump-start rule) to the
actor-critic learner, accounting time in environment steps. Every
``eval_interval`` steps the deterministic policy is scored from both the
in-distribution and out-of-distribution start sets with a dedicated
environment and its own random substream, so evaluation can never perturb
training.

Metrics are one CSV row per episode (plus one initial evaluation row):

    step,episode,ep_len,ep_return,cause,id_success,ood_success,id_return,ood_return

with the four evaluation columns filled only on rows where a checkpoint
evaluation ran.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .config import (
    DEMO_METHODS,
    PREFILL_METHODS,
    SAMPLER_METHODS,
    RunConfig,
)
from .demos import load_archive, subsample_states
from .env import Cause, LavaBridgeEnv
from .learner import SACLearner, jsrl_start_state, train_for_one_episode
from .replay import ReplayBuffer, prefill_demo
from .rngs import substream
from .samplers import (
    EpisodeLengthSampler,
    GoalDistSampler,
    SafetyWeightedSampler,
    StartStateSampler,
    UniformSampler,
)

__all__ = [
    "EvalReport",
    "MetricsRow",
    "RunResult",
    "evaluate",
    "run_training",
    "sweep",
    "aggregate_runs",
    "write_metrics_csv",
    "read_metrics_csv",
    "METRICS_HEADER",
]

METRICS_HEADER = [
    "step", "episode", "ep_len", "ep_return", "cause",
    "id_success", "ood_success", "id_return", "ood_return",
]


@dataclass(frozen=True)
class EvalReport:
    """Deterministic-policy scores at one checkpoint."""

    step: int
    id_success: float
    ood_success: float
    id_return: float
    ood_return: float


@dataclass
class MetricsRow:
    step: int
    episode: int
    ep_len: int | None = None
    ep_return: float | None = None
    cause: Cause | None = None
    id_success: float | None = None
    ood_success: float | None = None
    id_return: float | None = None
    ood_return: float | None = None


@dataclass
class RunResult:
    config: RunConfig
    rows: list[MetricsRow]
    evals: list[EvalReport]
    learner: SACLearner
    buffer: ReplayBuffer
    sampler: StartStateSampler | None
    env_steps: int
    episodes: int


def evaluate(
    learner: SACLearner,
    env: LavaBridgeEnv,
    which: str,
    n_episodes: int,
    horizon: int,
    gamma: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Deterministic-policy evaluation from ``which`` in {"p0", "ood"}.

    Returns (success rate, mean discounted return). Success means the episode
    ended by reaching the goal.

    ``learner`` needs one method, ``act_batch(states (N, 4)) -> forces (N, 2)``,
    whose row i is the deterministic action for state i. All ``n_episodes``
    run in lockstep: their start states are drawn first, in episode order,
    then each step makes one ``act_batch`` call over the episodes still
    running and steps each of them on ``env`` from its own snapshot. The
    result is bitwise equal to running the episodes one at a time. ``env`` is
    left in the state of the last episode stepped.
    """
    if n_episodes < 1:
        raise ValueError("evaluation needs at least one episode")
    snaps = []
    for _ in range(n_episodes):
        env.reset_to(env.sample_start(which, rng))
        snaps.append(env.snapshot())
    returns = [0.0] * n_episodes
    successes = 0
    active = list(range(n_episodes))
    discount = 1.0
    for _ in range(horizon):
        if not active:
            break
        forces = learner.act_batch(np.array([snaps[i][:4] for i in active]))
        running = []
        for i, force in zip(active, forces.tolist()):
            env.restore(snaps[i])
            res = env.step(force)
            returns[i] += discount * res.reward
            if res.terminated:
                successes += res.cause is Cause.GOAL
            else:
                snaps[i] = env.snapshot()
                running.append(i)
        active = running
        discount *= gamma
    total_return = 0.0
    # Added in episode order like the one-at-a-time loop; not sum(), which
    # compensates rounding on Python >= 3.12.
    for ep_return in returns:
        total_return += ep_return
    return successes / n_episodes, total_return / n_episodes


def _build_sampler(cfg: RunConfig, demo_sub, env_for_safety) -> StartStateSampler | None:
    kind = SAMPLER_METHODS.get(cfg.method)
    if kind is None:
        return None
    samcfg = cfg.sampler
    if kind == "auxss":
        return EpisodeLengthSampler(demo_sub, cfg.horizon, samcfg)
    if kind == "uniform":
        return UniformSampler(demo_sub)
    if kind == "goaldist":
        goal = cfg.env.geometry().goal_center
        return GoalDistSampler(demo_sub, goal, cfg.t_max, samcfg)
    if kind == "omega":
        return SafetyWeightedSampler(demo_sub, env_for_safety, samcfg, substream(cfg.seed, "sampler", 1))
    raise ValueError(f"unhandled sampler kind {kind!r}")


def run_training(cfg: RunConfig, out_dir=None, verbose: bool = False) -> RunResult:
    """Run one seeded training job to ``t_max`` environment steps.

    Start states come from the configured method; time advances by realized
    episode lengths. When ``out_dir`` is given, writes metrics.csv,
    checkpoint.npz, config.txt (the effective config) and, for sampler
    methods, sampler_weights.csv into it.
    """
    env = cfg.env.build(cfg.horizon)
    eval_env = cfg.env.build(cfg.horizon)
    seed = cfg.seed

    archive = None
    demo_sub = None
    demo_all = None
    if cfg.method in DEMO_METHODS:
        archive = load_archive(
            cfg.demo_archive,
            expected_geometry_hash=env.geometry_hash(),
            goal_reward=cfg.env.goal_reward,
        )
        demo_all = archive.demo_states()
        if cfg.method in SAMPLER_METHODS:
            demo_sub = subsample_states(archive, cfg.demo_subset, seed)

    learner = SACLearner(
        cfg.learner,
        init_rng=substream(seed, "learner-init"),
        noise_rng=substream(seed, "learner-noise"),
        f_max=cfg.env.f_max,
    )
    buffer = ReplayBuffer(cfg.learner.buffer_capacity, dtype=cfg.learner.dtype)
    if cfg.method in PREFILL_METHODS:
        n_demo = archive.n_transitions
        if cfg.learner.buffer_capacity - n_demo < cfg.learner.batch_size:
            raise ValueError(
                f"{n_demo} demo transitions leave fewer than batch_size="
                f"{cfg.learner.batch_size} online slots in buffer_capacity="
                f"{cfg.learner.buffer_capacity}; no update could ever run"
            )
        prefill_demo(buffer, *archive.transition_arrays())

    scratch_env = cfg.env.build(cfg.horizon)
    sampler = _build_sampler(cfg, demo_sub, scratch_env)

    rng_env = substream(seed, "env")
    rng_sampler = substream(seed, "sampler")

    rows: list[MetricsRow] = []
    evals: list[EvalReport] = []
    checkpoint_idx = 0

    def run_eval(step: int) -> EvalReport:
        nonlocal checkpoint_idx
        rng_eval = substream(seed, "eval", checkpoint_idx)
        checkpoint_idx += 1
        id_s, id_r = evaluate(learner, eval_env, "p0", cfg.eval_episodes, cfg.horizon,
                              cfg.learner.gamma, rng_eval)
        ood_s, ood_r = evaluate(learner, eval_env, "ood", cfg.eval_episodes, cfg.horizon,
                                cfg.learner.gamma, rng_eval)
        report = EvalReport(step, id_s, ood_s, id_r, ood_r)
        evals.append(report)
        if verbose:
            print(f"[seed {seed}] step {step}: id={id_s:.2f} ood={ood_s:.2f}", flush=True)
        return report

    first = run_eval(0)
    rows.append(MetricsRow(step=0, episode=0, id_success=first.id_success,
                           ood_success=first.ood_success, id_return=first.id_return,
                           ood_return=first.ood_return))

    t = 0
    episode = 0
    next_eval = cfg.eval_interval
    while t < cfg.t_max:
        if cfg.method in SAMPLER_METHODS:
            i, s0 = sampler.sample(rng_sampler)
        elif cfg.method == "jsrl":
            i, s0 = None, jsrl_start_state(demo_all, t, cfg.t_max, rng_sampler, env=env)
        else:
            i, s0 = None, env.sample_start("p0", rng_env)
        result = train_for_one_episode(env, s0, learner, buffer, cfg.horizon)
        t += result.length
        episode += 1
        if sampler is not None:
            sampler.observe(i, result.length, result.cause, t)
        row = MetricsRow(step=t, episode=episode, ep_len=result.length,
                         ep_return=result.ep_return, cause=result.cause)
        if t >= next_eval:
            report = run_eval(t)
            row.id_success = report.id_success
            row.ood_success = report.ood_success
            row.id_return = report.id_return
            row.ood_return = report.ood_return
            next_eval = (t // cfg.eval_interval + 1) * cfg.eval_interval
        rows.append(row)

    out = RunResult(config=cfg, rows=rows, evals=evals, learner=learner, buffer=buffer,
                    sampler=sampler, env_steps=t, episodes=episode)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "metrics.csv", rows)
        save_checkpoint(out_dir / "checkpoint.npz", learner.named_networks())
        if sampler is not None:
            sampler.snapshot_csv(out_dir / "sampler_weights.csv")
        (out_dir / "config.txt").write_text(cfg.to_text())
    return out


# -- metrics files --------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Cause):
        return v.value
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for r in rows:
            writer.writerow([
                _cell(r.step), _cell(r.episode), _cell(r.ep_len), _cell(r.ep_return),
                _cell(r.cause), _cell(r.id_success), _cell(r.ood_success),
                _cell(r.id_return), _cell(r.ood_return),
            ])


def read_metrics_csv(path) -> list[dict]:
    """Rows as dicts with numeric fields parsed; empty cells become None."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header in {path}: {reader.fieldnames}")
        for row in reader:
            parsed: dict = {}
            for key in ("step", "episode", "ep_len"):
                parsed[key] = int(row[key]) if row[key] else None
            for key in ("ep_return", "id_success", "ood_success", "id_return", "ood_return"):
                parsed[key] = float(row[key]) if row[key] else None
            parsed["cause"] = row["cause"] or None
            out.append(parsed)
    return out


# -- sweeps -----------------------------------------------------------------------


def _job_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread per job: jobs are the parallelism unit and stay deterministic.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Jobs import the same lavabridge as this process, installed or not.
    root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def sweep(cfg: RunConfig, seeds, out_dir, jobs: int = 1, verbose: bool = False) -> Path:
    """Run one config across seeds as isolated subprocesses and aggregate.

    Each (config, seed) job gets its own process and run directory. Failures
    are recorded in jobs.csv; aggregation proceeds over the completers.
    Returns the aggregate CSV path.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError("sweep seeds must be distinct")
    if jobs < 1:
        raise ValueError(f"sweep jobs must be >= 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.txt"
    config_path.write_text(cfg.to_text())

    def run_job(seed: int) -> dict:
        run_dir = out_dir / f"seed_{seed}"
        cmd = [
            sys.executable, "-m", "lavabridge.cli", "train",
            "--config", str(config_path), "--seed", str(seed), "--out-dir", str(run_dir),
        ]
        started = time.time()
        proc = subprocess.run(cmd, env=_job_env(), capture_output=True, text=True)
        elapsed = time.time() - started
        status = "ok" if proc.returncode == 0 else "failed"
        if verbose:
            print(f"[sweep] seed {seed}: {status} in {elapsed:.1f}s", flush=True)
        err_lines = proc.stderr.strip().splitlines()
        return {
            "seed": seed,
            "status": status,
            "runtime_s": round(elapsed, 2),
            "error": "" if proc.returncode == 0 else (err_lines[-1] if err_lines else "unknown"),
        }

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(run_job, seeds))

    with open(out_dir / "jobs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "status", "runtime_s", "error"])
        for r in results:
            writer.writerow([r["seed"], r["status"], r["runtime_s"], r["error"]])

    completed = [out_dir / f"seed_{r['seed']}" for r in results if r["status"] == "ok"]
    agg_rows = aggregate_runs(completed, cfg.eval_interval)
    agg_path = out_dir / "aggregate.csv"
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "step", "n_seeds",
            "id_success_median", "id_success_q25", "id_success_q75",
            "ood_success_median", "ood_success_q25", "ood_success_q75",
            "id_return_median", "ood_return_median",
        ])
        for row in agg_rows:
            writer.writerow([_cell(v) for v in row])
    return agg_path


def aggregate_runs(run_dirs, eval_interval: int) -> list[tuple]:
    """Per-checkpoint medians and interquartile range across completed runs.

    Evaluation rows land at the first episode boundary past each scheduled
    checkpoint, so rows are aligned by the checkpoint they satisfied
    (floor(step / eval_interval) * eval_interval) before aggregating.
    """
    per_cp: dict[int, dict[str, list[float]]] = {}
    for run_dir in run_dirs:
        for row in read_metrics_csv(Path(run_dir) / "metrics.csv"):
            if row["id_success"] is None:
                continue
            cp = (row["step"] // eval_interval) * eval_interval
            bucket = per_cp.setdefault(cp, {"id": [], "ood": [], "idr": [], "oodr": []})
            bucket["id"].append(row["id_success"])
            bucket["ood"].append(row["ood_success"])
            bucket["idr"].append(row["id_return"])
            bucket["oodr"].append(row["ood_return"])
    rows = []
    for cp in sorted(per_cp):
        b = per_cp[cp]
        idq = np.percentile(b["id"], [50, 25, 75])
        oodq = np.percentile(b["ood"], [50, 25, 75])
        rows.append((
            cp, len(b["id"]),
            float(idq[0]), float(idq[1]), float(idq[2]),
            float(oodq[0]), float(oodq[1]), float(oodq[2]),
            float(np.median(b["idr"])), float(np.median(b["oodr"])),
        ))
    return rows
