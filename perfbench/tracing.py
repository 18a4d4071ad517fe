"""Span recorder and per-layer metrics for the traced benchmark run.

The traced run wraps the public functions and methods of each `lavabridge`
module (layer) from the benchmark's side; the package itself is untouched.
Hooks are found by role, not by class name (any class in `lavabridge.nets`
with a `forward` is a network, any class with `sample` and `observe` in
`lavabridge.samplers` is a start-state sampler, ...), and module functions
are patched in every `lavabridge` module that holds a reference to them, so
the hooks keep working when classes are merged, split or moved. A hook whose
target does not exist is skipped, and the metrics built on it are omitted
from the result instead of failing the run.

Each span holds a name, a start, an end and its parent span, in flat arrays
that stay in memory until the run ends. A call nested directly inside a span
of the same name (`add` calling `add_arrays`, a subclass `__init__` calling
its base) is not recorded again.

Statistics: durations (`us_p50`, `s_p50`, `build_s`, ...) are taken over
every span of the traced run, set-up included, so that set-up-only calls
such as `generate_demos` are covered. Counts, shares and ratios are taken
over the timed rounds only and given per round, so they repeat exactly for a
seed. A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["PER_LAYER", "Tracer", "install_hooks", "layer_metrics"]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, float] = {}
        self.installed: set[str] = set()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def span_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, choose=None, measure=None):
        """Wrap ``fn`` so each call records one span.

        ``choose(args, kwargs)`` may pick the span name per call (for example
        single-row versus batch forwards); ``measure(result)`` may attach one
        number to the span (for example an episode's length).
        """
        default = self.span_id(name)
        span_id, stack, values = self.span_id, self._stack, self.values
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = default if choose is None else span_id(choose(args, kwargs))
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(top)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                values[idx] = float(measure(out))
            return out

        return traced

    def patch_method(self, cls, attr: str, name: str, choose=None, measure=None) -> None:
        fn = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(fn, name, choose, measure))
        self._undo.append((cls, attr, fn))
        self.installed.add(name)

    def patch_function(self, fn, name: str, measure=None) -> None:
        """Replace ``fn`` in every `lavabridge` module that refers to it by name."""
        wrapper = self.wrap(fn, name, measure=measure)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
        self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lavabridge" or n.startswith("lavabridge."))]


def _own_classes(module):
    return [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]


def _own_functions(module):
    return {n: f for n, f in inspect.getmembers(module, inspect.isfunction) if f.__module__ == module.__name__}


def _public_methods(cls):
    return [a for a, v in cls.__dict__.items() if inspect.isfunction(v) and not a.startswith("_")]


def _rows(args, kwargs) -> int:
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return int(np.shape(x)[0]) if np.ndim(x) >= 2 else 1


def _forward_role(args, kwargs) -> str:
    return "nets.forward_b1" if _rows(args, kwargs) == 1 else "nets.forward_batch"


def _act_role(args, kwargs) -> str:
    stochastic = args[2] if len(args) > 2 else kwargs.get("stochastic")
    return "learner.act_stochastic" if stochastic else "learner.act_deterministic"


def install_hooks(tracer: Tracer) -> None:
    """Wrap every layer of the `lavabridge` package by role."""
    from lavabridge import bench, demos, env, learner, nets, replay, safety, samplers

    for name, span, measure in (
        ("train_for_one_episode", "bench.train_episode", lambda r: r.length),
        ("evaluate", "bench.evaluate", None),
        ("run_training", "bench.run_training", None),
    ):
        fn = getattr(bench, name, None)
        if inspect.isfunction(fn):
            tracer.patch_function(fn, span, measure)
    # Output writers are whatever the harness looks up under a write_/save_ name.
    writers = {id(v): v for k, v in vars(bench).items()
               if (k.startswith("write_") or k.startswith("save_")) and inspect.isfunction(v)
               and v.__module__.startswith("lavabridge")}
    for fn in writers.values():
        tracer.patch_function(fn, "io.write")

    for cls in _own_classes(learner):
        if "update_step" in cls.__dict__:
            for attr in ("update_step", "critic_loss_and_grads", "policy_loss_and_grads"):
                if attr in cls.__dict__:
                    tracer.patch_method(cls, attr, f"learner.{attr}")
            if "act" in cls.__dict__:
                tracer.patch_method(cls, "act", "learner.act_deterministic", choose=_act_role)
                tracer.installed.add("learner.act_stochastic")

    for cls in _own_classes(nets):
        methods = cls.__dict__
        if "mean_action" in methods:  # the policy head
            for attr in _public_methods(cls):
                tracer.patch_method(cls, attr, "nets.head")
            continue
        if "forward" in methods:
            tracer.patch_method(cls, "forward", "nets.forward_batch", choose=_forward_role)
            tracer.installed.add("nets.forward_b1")
            if "backward" in methods:
                tracer.patch_method(cls, "backward", "nets.backward")
        elif "step" in methods:  # optimizers
            tracer.patch_method(cls, "step", "nets.adam")
    for name, fn in _own_functions(nets).items():
        if "ema" in name:
            tracer.patch_function(fn, "nets.ema")

    for cls in _own_classes(replay):
        if "sample" in cls.__dict__ and "add" in cls.__dict__:
            for attr in ("add", "add_arrays"):
                if attr in cls.__dict__:
                    tracer.patch_method(cls, attr, "replay.add")
            tracer.patch_method(cls, "sample", "replay.sample")

    for cls in _own_classes(env):
        if "step" in cls.__dict__ and "reset_to" in cls.__dict__:
            for attr in ("step", "reset_to", "sample_start"):
                if attr in cls.__dict__:
                    tracer.patch_method(cls, attr, f"env.{attr}")

    for cls in _own_classes(samplers):
        if hasattr(cls, "sample") and hasattr(cls, "observe"):
            for attr, span in (("__init__", "samplers.build"), ("sample", "samplers.sample"),
                               ("observe", "samplers.observe"), ("snapshot_csv", "io.write")):
                if attr in cls.__dict__:
                    tracer.patch_method(cls, attr, span)

    safety_funcs = _own_functions(safety)
    if "estimate_safety" in safety_funcs:
        tracer.patch_function(safety_funcs["estimate_safety"], "safety.estimate",
                              measure=lambda r: r.n_rollouts)
    if "safety_field" in safety_funcs:
        tracer.patch_function(safety_funcs["safety_field"], "safety.field")

    demo_funcs = _own_functions(demos)
    for name, span in (("generate_demos", "demos.generate"), ("load_archive", "demos.load"),
                       ("subsample_states", "demos.subsample")):
        if name in demo_funcs:
            tracer.patch_function(demo_funcs[name], span)


# -- per-layer metrics ----------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    spans: tuple[str, ...]   # hooks the metric needs; omitted if any is missing
    stat: str


def _m(name, unit, stat, *spans):
    return LayerMetric(name, unit, spans or (name.rsplit(".", 1)[0],), stat)


# Each entry names the end-to-end metric and workload it should move; see
# workloads.py for the reasoning behind each pairing.
PER_LAYER: tuple[LayerMetric, ...] = (
    # -> work_per_s on train-auxss
    _m("bench.train_episode.count", "count", "count"),
    _m("bench.train_episode.us_per_step_p50", "us", "us_per_value_p50", "bench.train_episode"),
    # -> work_per_s on evaluate; a small slice of train-auxss
    _m("bench.evaluate.count", "count", "count"),
    _m("bench.evaluate.s_p50", "s", "s_p50"),
    _m("bench.evaluate.share", "ratio", "share"),
    # -> work_per_s on train-auxss; zero on evaluate and safety
    _m("learner.update_step.count", "count", "count"),
    _m("learner.update_step.us_p50", "us", "us_p50"),
    _m("learner.update_step.us_p99", "us", "us_p99"),
    _m("learner.update_step.share", "ratio", "share"),
    _m("learner.update_step.self_us_p50", "us", "self_us_p50"),
    _m("learner.critic_loss_and_grads.us_p50", "us", "us_p50"),
    _m("learner.policy_loss_and_grads.us_p50", "us", "us_p50"),
    _m("learner.updates_per_env_step", "ratio", "updates_per_env_step",
       "learner.update_step", "bench.train_episode"),
    _m("learner.act_stochastic.us_p50", "us", "us_p50"),
    # -> work_per_s on evaluate
    _m("learner.act_deterministic.count", "count", "count"),
    _m("learner.act_deterministic.us_p50", "us", "us_p50"),
    # -> work_per_s on train-auxss (batch 256) and evaluate (single rows)
    _m("nets.forward_batch.count", "count", "count"),
    _m("nets.forward_batch.us_p50", "us", "us_p50"),
    _m("nets.forward_b1.count", "count", "count"),
    _m("nets.forward_b1.us_p50", "us", "us_p50"),
    _m("nets.backward.count", "count", "count"),
    _m("nets.backward.us_p50", "us", "us_p50"),
    _m("nets.adam.us_p50", "us", "us_p50"),
    _m("nets.ema.us_p50", "us", "us_p50"),
    _m("nets.head.us_p50", "us", "us_p50"),
    # -> work_per_s on train-auxss
    _m("replay.add.count", "count", "count"),
    _m("replay.add.us_p50", "us", "us_p50"),
    _m("replay.sample.us_p50", "us", "us_p50"),
    # -> work_per_s on evaluate and safety; negligible on train-auxss
    _m("env.step.count", "count", "count"),
    _m("env.step.us_p50", "us", "us_p50"),
    _m("env.reset_to.count", "count", "count"),
    _m("env.reset_to.us_p50", "us", "us_p50"),
    _m("env.sample_start.us_p50", "us", "us_p50"),
    _m("env.steps_per_reset", "ratio", "steps_per_reset", "env.step", "env.reset_to"),
    # -> work_per_s on train-auxss (small); build_s -> setup_s on safety
    _m("samplers.sample.us_p50", "us", "us_p50"),
    _m("samplers.observe.count", "count", "count"),
    _m("samplers.observe.us_p50", "us", "us_p50"),
    _m("samplers.build_s", "s", "s_p50", "samplers.build"),
    # -> work_per_s on safety
    _m("safety.estimate.count", "count", "count"),
    _m("safety.estimate.us_p50", "us", "us_p50"),
    _m("safety.estimate.us_p99", "us", "us_p99"),
    _m("safety.steps_per_rollout", "ratio", "steps_per_rollout", "safety.estimate", "env.step"),
    _m("safety.field_s", "s", "s_p50", "safety.field"),
    # -> setup_s
    _m("demos.generate_s", "s", "s_p50", "demos.generate"),
    _m("demos.load_s", "s", "s_p50", "demos.load"),
    _m("demos.subsample_s", "s", "s_p50", "demos.subsample"),
    # -> work_per_s on train-auxss (output writes at the end of each run)
    _m("io.bytes_written", "bytes", "bytes_written", "io.write"),
    _m("io.write_s", "s", "sum_per_round", "io.write"),
    # traced round wall time over untraced round wall time, per workload
    LayerMetric("trace.overhead_pct", "%", (), "overhead_pct"),
)


def layer_metrics(tracer: Tracer, split: int, rounds: int, round_wall_s: float,
                  bytes_per_round: float, overhead_pct: float) -> dict[str, dict]:
    """Per-layer metrics from the spans; ``split`` is the first timed span."""
    n = len(tracer)
    name = np.frombuffer(tracer.name, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
    start = np.frombuffer(tracer.start, dtype=np.float64, count=n) if n else np.zeros(0)
    end = np.frombuffer(tracer.end, dtype=np.float64, count=n) if n else np.zeros(0)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n] if n else dur
    timed = np.arange(n) >= split
    rounds = max(rounds, 1)

    def mask(span: str, only_timed: bool = False) -> np.ndarray:
        nid = tracer.ids.get(span)
        m = name == nid if nid is not None else np.zeros(n, dtype=bool)
        return m & timed if only_timed else m

    def pct(values: np.ndarray, q: float) -> float:
        return float(np.percentile(values, q)) if values.size else 0.0

    def count(span: str) -> float:
        return float(mask(span, True).sum()) / rounds

    def stat(metric: LayerMetric) -> float:
        span = metric.spans[0] if metric.spans else ""
        kind = metric.stat
        if kind == "count":
            return count(span)
        if kind == "us_p50":
            return pct(dur[mask(span)], 50) * 1e6
        if kind == "us_p99":
            return pct(dur[mask(span)], 99) * 1e6
        if kind == "s_p50":
            return pct(dur[mask(span)], 50)
        if kind == "self_us_p50":
            m = mask(span)
            return pct(dur[m] - child[m], 50) * 1e6
        if kind == "share":
            return float(dur[mask(span, True)].sum()) / round_wall_s if round_wall_s > 0 else 0.0
        if kind == "sum_per_round":
            return float(dur[mask(span, True)].sum()) / rounds
        if kind == "us_per_value_p50":
            idx = np.flatnonzero(mask(span))
            per = [dur[i] / tracer.values[i] for i in idx if tracer.values.get(i)]
            return pct(np.array(per), 50) * 1e6
        if kind == "updates_per_env_step":
            idx = np.flatnonzero(mask("bench.train_episode", True))
            steps = sum(tracer.values.get(i, 0.0) for i in idx)
            return count("learner.update_step") * rounds / steps if steps else 0.0
        if kind == "steps_per_reset":
            resets = count("env.reset_to")
            return count("env.step") / resets if resets else 0.0
        if kind == "steps_per_rollout":
            est = np.flatnonzero(mask("safety.estimate", True))
            rollouts = sum(tracer.values.get(i, 0.0) for i in est)
            if not rollouts:
                return 0.0
            steps = np.isin(parent[mask("env.step", True)], est).sum()
            return float(steps) / rollouts
        if kind == "bytes_written":
            return float(bytes_per_round)
        if kind == "overhead_pct":
            return float(overhead_pct)
        raise ValueError(f"unknown statistic {kind!r}")

    out = {}
    for metric in PER_LAYER:
        if all(s in tracer.installed for s in metric.spans):
            value = stat(metric)
            out[metric.name] = {"value": value if math.isfinite(value) else 0.0, "unit": metric.unit}
    return out
