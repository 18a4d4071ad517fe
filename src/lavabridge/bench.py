"""Training loop, ID/OOD evaluation, multi-seed sweeps, metrics emission.

A ``TrainingRun`` wires its method's start rule (``config.METHODS`` names it,
``_START_RULES`` builds it) to the actor-critic learner and keeps the run's
state, accounting time in environment steps. Whenever an episode crosses a
multiple of ``eval_interval`` steps the deterministic policy is scored from
both the in-distribution and out-of-distribution start sets with its own
random substream, on the run's one environment, which ``evaluate`` leaves
untouched; so evaluation can never perturb training.

Metrics are one CSV row per episode (plus one initial evaluation row):

    step,episode,ep_len,ep_return,cause,id_success,ood_success,id_return,ood_return

with the four evaluation columns filled only on rows where a checkpoint
evaluation ran. Every table of a run or sweep directory is written by
``write_csv``, each cell in ``config.txt``'s value text.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .checkpoint import save_checkpoint
from .config import METHODS, RunConfig, format_value, needs_archive, parse_value
from .demos import load_archive, subsample_states
from .env import Cause, LavaBridgeEnv
from .learner import SACLearner, train_for_one_episode
from .replay import ReplayBuffer, prefill_demo
from .rngs import substream
from .samplers import (EpisodeLengthSampler, GoalDistSampler, JumpStart, P0Start,
                       SafetyWeightedSampler, StartStateSampler, UniformSampler)

__all__ = [
    "MetricsRow",
    "TrainingRun",
    "evaluate",
    "run_training",
    "sweep",
    "aggregate_runs",
    "write_csv",
    "read_metrics_csv",
    "METRICS_HEADER",
]


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


METRICS_HEADER = [f.name for f in fields(MetricsRow)]


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
    and checked as reset targets. Then each of ``min(horizon, env.horizon)``
    steps makes one ``act_batch`` call over the episodes still running and
    advances them all by one ``env.transitions`` call. The result is bitwise
    equal to running the episodes one at a time by ``reset_to`` and ``step``,
    and ``env`` is left untouched.
    """
    if n_episodes < 1:
        raise ValueError("evaluation needs at least one episode")
    starts = [env.sample_start(which, rng) for _ in range(n_episodes)]
    states = [tuple(row) for row in env.check_states(starts).tolist()]
    returns = [0.0] * n_episodes
    successes = 0
    active = list(range(n_episodes))
    discount = 1.0
    none, goal = Cause.NONE, Cause.GOAL  # bound once: an enum member lookup is slow per row
    for _ in range(min(horizon, env.horizon)):
        if not active:
            break
        rows = [states[i] for i in active]
        forces = learner.act_batch(
            np.fromiter(chain.from_iterable(rows), np.float64, 4 * len(rows)).reshape(-1, 4))
        running = []
        for i, (px, py, vx, vy, cause) in zip(active, env.transitions(rows, forces.tolist())):
            if cause is none:
                states[i] = (px, py, vx, vy)
                running.append(i)
            elif cause is goal:
                returns[i] += discount * env.goal_reward
                successes += 1
            else:
                returns[i] += discount * env.lava_reward
        active = running
        discount *= gamma
    total_return = 0.0
    # Added in episode order like the one-at-a-time loop; not sum(), which
    # compensates rounding on Python >= 3.12.
    for ep_return in returns:
        total_return += ep_return
    return successes / n_episodes, total_return / n_episodes


def _demo_subset(cfg: RunConfig, archive):
    return subsample_states(archive, cfg.demo_subset, cfg.seed)


# Start rule of config.METHODS -> builder(cfg, env, archive) of its sampler.
_START_RULES = {
    "p0": lambda cfg, env, archive: P0Start(env),
    "jsrl": lambda cfg, env, archive: JumpStart(
        [t.states[:-1] for t in archive.trajectories], cfg.t_max, env),
    "auxss": lambda cfg, env, archive: EpisodeLengthSampler(
        _demo_subset(cfg, archive), cfg.horizon, cfg.sampler),
    "uniform": lambda cfg, env, archive: UniformSampler(_demo_subset(cfg, archive)),
    "goaldist": lambda cfg, env, archive: GoalDistSampler(
        _demo_subset(cfg, archive), env.geometry.goal, cfg.t_max, cfg.sampler),
    "omega": lambda cfg, env, archive: SafetyWeightedSampler(
        _demo_subset(cfg, archive), env, cfg.sampler, substream(cfg.seed, "sampler", 1)),
}


class TrainingRun:
    """One seeded training job's state, built and evaluated at step 0.

    ``rows`` holds the step-0 evaluation row and then one row per episode
    that ``run_episode()`` trained; ``evals`` are the rows with evaluation
    columns filled. ``evaluate``, ``train_for_one_episode`` and the writers
    are looked up in this module's globals at each call, never bound to the
    run, so perfbench's tracer can swap them.
    """

    def __init__(self, cfg: RunConfig, verbose: bool = False):
        self.config = cfg
        self.verbose = verbose
        self.env = cfg.env.build(cfg.horizon)
        start, prefill = METHODS[cfg.method]
        archive = None
        if needs_archive(cfg.method):
            archive = load_archive(cfg.demo_archive, goal_reward=cfg.env.goal_reward,
                                   expected_geometry_hash=self.env.geometry_hash())
            # Reject an archive the env could not have produced before any run starts.
            archive.check(self.env)

        self.learner = SACLearner(cfg.learner, f_max=cfg.env.f_max,
                                  init_rng=substream(cfg.seed, "learner-init"),
                                  noise_rng=substream(cfg.seed, "learner-noise"))
        self.buffer = ReplayBuffer(cfg.learner.buffer_capacity, dtype=cfg.learner.dtype)
        if prefill:
            if cfg.learner.buffer_capacity - archive.n_transitions < cfg.learner.batch_size:
                raise ValueError(
                    f"{archive.n_transitions} demo transitions leave fewer than batch_size="
                    f"{cfg.learner.batch_size} online slots in buffer_capacity="
                    f"{cfg.learner.buffer_capacity}; no update could ever run"
                )
            prefill_demo(self.buffer, *archive.transition_arrays())

        self.sampler = _START_RULES[start](cfg, self.env, archive)
        # A stream's name fixes its draws: p0 starts have always come from "env".
        self.rng_start = substream(cfg.seed, "env" if start == "p0" else "sampler")
        self.env_steps = 0
        self.episodes = 0
        self.rows = [MetricsRow(step=0, episode=0)]
        self.evaluate_checkpoint()

    @property
    def evals(self) -> list[MetricsRow]:
        return [r for r in self.rows if r.id_success is not None]

    def run_episode(self) -> None:
        """Train one episode; evaluate if it crossed a multiple of ``eval_interval``."""
        cfg = self.config
        i, s0 = self.sampler.sample(self.rng_start)
        before = self.env_steps
        result = train_for_one_episode(self.env, s0, self.learner, self.buffer)
        self.env_steps += result.length
        self.episodes += 1
        self.sampler.observe(i, result.length, result.cause, self.env_steps)
        self.rows.append(MetricsRow(step=self.env_steps, episode=self.episodes,
                                    ep_len=result.length, ep_return=result.ep_return,
                                    cause=result.cause))
        if self.env_steps // cfg.eval_interval > before // cfg.eval_interval:
            self.evaluate_checkpoint()

    def evaluate_checkpoint(self) -> None:
        """Score the deterministic policy into the last row's evaluation columns.

        The eval substream is indexed by the checkpoint's position in ``evals``.
        """
        cfg = self.config
        row = self.rows[-1]
        rng = substream(cfg.seed, "eval", len(self.evals))
        args = (cfg.eval_episodes, cfg.horizon, cfg.learner.gamma, rng)
        row.id_success, row.id_return = evaluate(self.learner, self.env, "p0", *args)
        row.ood_success, row.ood_return = evaluate(self.learner, self.env, "ood", *args)
        if self.verbose:
            print(f"[seed {cfg.seed}] step {row.step}: id={row.id_success:.2f} "
                  f"ood={row.ood_success:.2f}", flush=True)

    def save(self, out_dir) -> None:
        """Write metrics.csv, checkpoint.npz, config.txt and, for a weighted start
        rule, sampler_weights.csv (``index,px,py,vx,vy,weight`` per demo state)."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "metrics.csv", METRICS_HEADER,
                  ([getattr(r, name) for name in METRICS_HEADER] for r in self.rows))
        save_checkpoint(out_dir / "checkpoint.npz", self.learner.named_networks())
        if isinstance(self.sampler, StartStateSampler):
            weights = self.sampler.weights.w.tolist()
            write_csv(out_dir / "sampler_weights.csv", ["index", "px", "py", "vx", "vy", "weight"],
                      ([j, *s, weights[j]] for j, s in enumerate(self.sampler.demo.tolist())))
        (out_dir / "config.txt").write_text(self.config.to_text())


def run_training(cfg: RunConfig, out_dir=None, verbose: bool = False) -> TrainingRun:
    """Run one seeded training job until it has taken ``t_max`` environment steps.

    Time advances by realized episode lengths, so the last episode may end
    past ``t_max``. An archive that ``DemoArchive.check`` rejects stops the run
    while it is built, before anything is written. When ``out_dir`` is given,
    ``TrainingRun.save`` writes metrics.csv, checkpoint.npz, config.txt (the
    effective config) and, for the methods whose start rule holds weights,
    sampler_weights.csv into it at the end.
    """
    run = TrainingRun(cfg, verbose=verbose)
    while run.env_steps < cfg.t_max:
        run.run_episode()
    if out_dir is not None:
        run.save(out_dir)
    return run


# -- tables -----------------------------------------------------------------------


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as one CSV line, each cell as
    ``config.format_value`` gives it, so ``config.parse_value`` reads every float back
    bit for bit. The package's one table writer.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def read_metrics_csv(path) -> list[MetricsRow]:
    """The ``MetricsRow``s of a metrics CSV, each cell parsed by its field's type hint:
    empty is None, ``cause`` a ``Cause``. A row of the wrong length or a cell that
    does not parse raises ``ValueError`` naming the path and line."""
    hints = get_type_hints(MetricsRow)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header in {path}: {header}")
        for cells in reader:
            try:
                if len(cells) != len(METRICS_HEADER):
                    raise ValueError(f"{len(cells)} cells, expected {len(METRICS_HEADER)}")
                rows.append(MetricsRow(**{k: parse_value(hints[k], v)
                                          for k, v in zip(METRICS_HEADER, cells)}))
            except ValueError as e:
                raise ValueError(f"{path}, line {reader.line_num}: {e}") from e
    return rows


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

    Each (config, seed) job gets its own process and run directory. Every job's
    seed, status, runtime_s and last error line go to jobs.csv; aggregation
    proceeds over the completers into aggregate.csv, whose path is returned.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds) or min(seeds) < 0:
        raise ValueError("sweep seeds must be distinct and >= 0")
    if jobs < 1:
        raise ValueError(f"sweep jobs must be >= 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.txt"
    config_path.write_text(cfg.to_text())

    def run_job(seed: int) -> tuple:
        """One ``jobs.csv`` row: seed, status, runtime_s, error."""
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
        error = "" if proc.returncode == 0 else (err_lines[-1] if err_lines else "unknown")
        return seed, status, round(elapsed, 2), error

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(run_job, seeds))

    write_csv(out_dir / "jobs.csv", ["seed", "status", "runtime_s", "error"], results)
    completed = [out_dir / f"seed_{seed}" for seed, status, *_ in results if status == "ok"]
    agg_path = out_dir / "aggregate.csv"
    write_csv(agg_path, [
        "step", "n_seeds",
        "id_success_median", "id_success_q25", "id_success_q75",
        "ood_success_median", "ood_success_q25", "ood_success_q75",
        "id_return_median", "ood_return_median",
    ], aggregate_runs(completed, cfg.eval_interval))
    return agg_path


def aggregate_runs(run_dirs, eval_interval: int) -> list[tuple]:
    """Per-checkpoint medians and interquartile range across completed runs.

    Evaluation rows land at the first episode boundary past each scheduled
    checkpoint, so rows are aligned by the checkpoint they satisfied
    (floor(step / eval_interval) * eval_interval) before aggregating.
    """
    per_cp: dict[int, list[MetricsRow]] = {}
    for run_dir in run_dirs:
        for row in read_metrics_csv(Path(run_dir) / "metrics.csv"):
            if row.id_success is not None:
                per_cp.setdefault((row.step // eval_interval) * eval_interval, []).append(row)
    rows = []
    for cp, b in sorted(per_cp.items()):
        idq = np.percentile([r.id_success for r in b], [50, 25, 75])
        oodq = np.percentile([r.ood_success for r in b], [50, 25, 75])
        rows.append((cp, len(b), *idq.tolist(), *oodq.tolist(),
                     float(np.median([r.id_return for r in b])),
                     float(np.median([r.ood_return for r in b]))))
    return rows
