"""Flat ``key = value`` run configuration.

One text file configures everything; ``#`` starts a comment. Keys are
``run.<name>`` for the scalar fields of ``RunConfig`` and ``env.<name>``,
``sampler.<name>``, ``learner.<name>`` for the fields of its dataclass-typed
sections (``EnvSettings``, ``SamplerConfig``, ``LearnerConfig``): every key
is a dataclass field name. Values are parsed by the field's type hint:
scalars, comma-separated tuples, or semicolon-separated groups of tuples;
an empty value is None for optional fields. For example::

    run.method = auxss
    run.t_max = 150000
    env.lava = 4,0,6,4.5 ; 4,5.5,6,10
    sampler.delta = 0.05

``RunConfig.to_text`` writes every field the same way, so a run's
``config.txt`` reloads to an equal config. Unknown keys and tuples of the
wrong length are rejected to catch typos early.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .env import LavaBridgeEnv, Rect, Vec2, WorldGeometry
from .learner import LearnerConfig
from .samplers import SamplerConfig

__all__ = [
    "EnvSettings",
    "RunConfig",
    "METHODS",
    "parse_kv_text",
    "load_run_config",
    "config_from_mapping",
]

METHODS = ("auxss", "uniform", "goaldist", "omega", "sac", "hysac", "hysac-auxss", "jsrl")

# Methods that reset to demo states through a weighted sampler.
SAMPLER_METHODS = {"auxss": "auxss", "uniform": "uniform", "goaldist": "goaldist",
                   "omega": "omega", "hysac-auxss": "auxss"}
# Methods that need a demo archive at all.
DEMO_METHODS = ("auxss", "uniform", "goaldist", "omega", "hysac", "hysac-auxss", "jsrl")
PREFILL_METHODS = ("hysac", "hysac-auxss")

# The env module owns every geometry and dynamics default.
_GEOMETRY = WorldGeometry()
_DYNAMICS = LavaBridgeEnv.__init__.__kwdefaults__


@dataclass(frozen=True)
class EnvSettings:
    """Geometry and dynamics constants, file-overridable key by key."""

    world: tuple[float, float, float, float] = astuple(_GEOMETRY.world)
    lava: tuple[tuple[float, float, float, float], ...] = tuple(astuple(r) for r in _GEOMETRY.lava)
    goal: tuple[float, float] = astuple(_GEOMETRY.goal_center)
    goal_radius: float = _GEOMETRY.goal_radius
    start_blobs: tuple[tuple[float, float, float], ...] = tuple(
        (*astuple(mean), std) for mean, std in _GEOMETRY.start_blobs
    )
    ood_points: tuple[tuple[float, float], ...] = tuple(astuple(p) for p in _GEOMETRY.ood_points)
    ood_jitter: float = _GEOMETRY.ood_jitter
    dt: float = _DYNAMICS["dt"]
    f_max: float = _DYNAMICS["f_max"]
    v_max: float = _DYNAMICS["v_max"]
    drag: float = _DYNAMICS["drag"]
    goal_reward: float = _DYNAMICS["goal_reward"]
    lava_reward: float = _DYNAMICS["lava_reward"]

    def geometry(self) -> WorldGeometry:
        return WorldGeometry(
            world=Rect(*self.world),
            lava=tuple(Rect(*r) for r in self.lava),
            goal_center=Vec2(*self.goal),
            goal_radius=self.goal_radius,
            start_blobs=tuple((Vec2(x, y), s) for x, y, s in self.start_blobs),
            ood_points=tuple(Vec2(x, y) for x, y in self.ood_points),
            ood_jitter=self.ood_jitter,
        )

    def build(self, horizon: int) -> LavaBridgeEnv:
        return LavaBridgeEnv(
            self.geometry(),
            dt=self.dt, f_max=self.f_max, v_max=self.v_max, drag=self.drag,
            goal_reward=self.goal_reward, lava_reward=self.lava_reward,
            horizon=horizon,
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run needs."""

    method: str = "auxss"
    t_max: int = 150_000
    horizon: int = _DYNAMICS["horizon"]
    seed: int = 0
    eval_interval: int = 5000
    eval_episodes: int = 20
    demo_archive: str | None = None
    demo_subset: int = 150
    env: EnvSettings = field(default_factory=EnvSettings)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    learner: LearnerConfig = field(default_factory=LearnerConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.method in DEMO_METHODS and not self.demo_archive:
            raise ValueError(f"method {self.method!r} requires run.demo_archive")
        if self.horizon < 1 or self.t_max < 0:
            raise ValueError("horizon must be >= 1 and t_max >= 0")
        if self.eval_interval < 1 or self.eval_episodes < 1:
            raise ValueError("eval interval and episode count must be positive")
        if self.demo_subset < 1:
            raise ValueError("demo_subset must be >= 1")

    def to_text(self) -> str:
        """Every field as one ``section.name = value`` line, run keys first."""
        objs = {"run": self, **{name: getattr(self, name) for name in _section_types()}}
        lines = [f"{section}.{f.name} = {_format(getattr(obj, f.name))}".rstrip()
                 for section, obj in objs.items() for f in fields(obj) if f.name not in objs]
        return "\n".join(lines) + "\n"


def _section_types() -> dict[str, type]:
    """Section name -> dataclass, for the dataclass-typed fields of RunConfig."""
    hints = get_type_hints(RunConfig)
    return {f.name: hints[f.name] for f in fields(RunConfig) if is_dataclass(hints[f.name])}


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        sep = " ; " if value and isinstance(value[0], tuple) else ","
        return sep.join(_format(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse(hint, text: str):
    """Parse ``text`` as a value of type ``hint``.

    ``tuple[X, ...]`` splits on ``,`` (on ``;`` when X is itself a tuple);
    a fixed-length tuple hint also checks the number of parts.
    """
    text = text.strip()
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        sep = ";" if get_origin(args[0]) is tuple else ","
        parts = [p for p in text.split(sep) if p.strip()]
        if args[-1] is Ellipsis:
            return tuple(_parse(args[0], p) for p in parts)
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(parts)} in {text!r}")
        return tuple(_parse(a, p) for a, p in zip(args, parts))
    if type(None) in args:  # ``X | None``: empty means None
        if not text:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _parse(inner, text)
    if hint is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"not a boolean: {text!r}")
        return _BOOLS[text.lower()]
    return hint(text)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later duplicates win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _build(cls, section: str, raw: dict[str, str], **kw):
    """``cls`` from the raw values of its ``section`` plus already built fields ``kw``."""
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)} - kw.keys()
    for name, text in raw.items():
        key = f"{section}.{name}"
        if name not in names:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kw[name] = _parse(hints[name], text)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    return cls(**kw)


def config_from_mapping(kv: dict[str, str]) -> RunConfig:
    section_types = _section_types()
    raw: dict[str, dict[str, str]] = {"run": {}, **{name: {} for name in section_types}}
    for key, val in kv.items():
        section, dot, name = key.partition(".")
        if not dot:
            raise ValueError(f"config key {key!r} is not namespaced (want section.name)")
        if section not in raw:
            raise ValueError(f"unknown config section {section!r} in key {key!r}")
        raw[section][name] = val
    sections = {name: _build(cls, name, raw[name]) for name, cls in section_types.items()}
    return _build(RunConfig, "run", raw["run"], **sections)


def load_run_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus key overrides."""
    kv: dict[str, str] = {}
    if path is not None:
        with open(path) as fh:
            kv.update(parse_kv_text(fh.read()))
    if overrides:
        kv.update(overrides)
    return config_from_mapping(kv)
