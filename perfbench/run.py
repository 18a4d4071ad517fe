"""Lava Bridge lab benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload train-auxss --seed 1 --seconds 25 --trace 0

Run from the repository root. The benchmark imports `lavabridge` from this
checkout's `src/` (nothing needs installing) and writes only under
`.perfbench-work/`, which it removes on exit. Workloads, their inputs and
their output checks are in `workloads.py`; the span tracer is in
`tracing.py`.

With `--trace 0` the run is untraced and reports the end-to-end metrics:

    work_per_s   1/s  work units per second spent in `lavabridge` calls,
                      median over the timed rounds (env steps for
                      train-auxss and evaluate, states for safety)
    setup_s      s    wall time before the first timed round, median over
                      `setup_repeats` set-ups
    peak_rss_mb  MB   peak resident memory of the process

With `--trace 1` it runs one untraced round, then the traced set-up and
traced rounds until `--seconds` have passed in all, and reports the
per-layer metrics of `tracing.PER_LAYER`.

Every line but the last is for people: each metric with its unit, the
workload's own name for its throughput (ms_per_env_step, eval_steps_per_s
or safety_states_per_s), error_rate, and a `record` line with the seed,
machine, versions, input sizes, input properties and output digests. The
last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 when the run finished, whether or not its
checks passed, and non-zero when it could not run at all.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy is imported anywhere in this process.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("train-auxss", "evaluate", "safety")

# The throughput each workload was defined by, derived from work_per_s.
HEADLINE = {
    "train-auxss": ("ms_per_env_step", "ms", lambda w: 1000.0 / w),
    "evaluate": ("eval_steps_per_s", "1/s", lambda w: w),
    "safety": ("safety_states_per_s", "1/s", lambda w: w),
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the timed rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import `lavabridge` from this checkout's src/, or None if it is not there."""
    if not (SRC / "lavabridge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import lavabridge

    if Path(lavabridge.__file__).resolve().parent != SRC / "lavabridge":
        return None
    return lavabridge


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def run_record(seed: int, sizes) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "sizes": asdict(sizes),
    }


def median_rate(rounds: "Rounds") -> float:
    """Median over clean rounds of work per second spent in `lavabridge` calls."""
    rates = [sum(w for w, _ in r.ops) / sum(t for _, t in r.ops)
             for r in rounds.results if r.failed == 0]
    return statistics.median(rates) if rates else 0.0


class Rounds:
    """Runs rounds, checks repeat digests and keeps the operation tally."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []
        self.results = []
        self.first_digest: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_one(self) -> float:
        t0 = time.perf_counter()
        r = self.workload.round(len(self.results))
        wall = time.perf_counter() - t0
        if r.failed == 0:
            if self.first_digest is None:
                self.first_digest = r.digest
            elif r.digest != self.first_digest:
                r.problems.append(f"round {len(self.results)}: digest {r.digest[:12]} differs "
                                  f"from the first round's {self.first_digest[:12]}")
                r.failed = r.attempted
        self.attempted += r.attempted
        self.failed += r.failed
        self.problems += r.problems
        self.walls.append(wall)
        self.results.append(r)
        return wall

    def run_for(self, seconds: float, start: float, min_rounds: int) -> None:
        """Whole rounds until ``seconds`` have passed since ``start``, at least ``min_rounds``."""
        for _ in range(min_rounds):
            self.run_one()
        while time.perf_counter() - start < seconds:
            self.run_one()


def measure(name: str, seed: int, seconds: float, trace: bool, sizes, workdir: Path):
    """Run one workload; returns (result line, record)."""
    import numpy as np
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, sizes, workdir)
    record = run_record(seed, sizes)
    if not trace:
        setup_s = []
        for _ in range(sizes.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        rounds = Rounds(wl)
        # Two rounds at least, so that every run repeats its outputs once.
        rounds.run_for(seconds, time.perf_counter(), min_rounds=2)
        metrics = {
            "work_per_s": {"value": median_rate(rounds), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        record["setup_s_all"] = setup_s
    else:
        wl.setup()
        rounds = Rounds(wl)
        start = time.perf_counter()
        rounds.run_one()
        tracer = tracing.Tracer()
        tracing.install_hooks(tracer)
        try:
            wl.setup()
            split = len(tracer)
            rounds.run_for(seconds, start, min_rounds=1)
        finally:
            tracer.uninstall()
        untraced, traced = rounds.walls[0], rounds.walls[1:]
        overhead = (statistics.median(traced) / untraced - 1.0) * 100.0
        written = float(np.mean([r.bytes_written for r in rounds.results[1:]]))
        metrics = tracing.layer_metrics(tracer, split, len(traced), sum(traced), written, overhead)
        record["spans"] = len(tracer)
    record["workload"] = {"name": name, "unit": wl.unit}
    record["rounds"] = len(rounds.walls)
    record["round_s"] = rounds.walls
    record["digest"] = rounds.first_digest
    record["properties"] = wl.properties()
    record["problems"] = rounds.problems[:20]
    result = {
        "correct": rounds.failed == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        print(f"perfbench: no lavabridge package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from workloads import FULL

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 FULL, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    for key, m in result["metrics"].items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        label, unit, derive = HEADLINE[args.workload]
        work = result["metrics"]["work_per_s"]["value"]
        if work > 0:
            print(f"metric {label} = {derive(work):.6g} {unit}")
    print(f"metric error_rate = {result['failed'] / max(result['attempted'], 1):.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
