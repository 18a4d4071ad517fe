"""Flat ``key = value`` run configuration.

One text file configures everything; ``#`` starts a comment. Keys are
``run.<name>`` for the scalar fields of ``RunConfig`` and ``env.<name>``,
``sampler.<name>``, ``learner.<name>`` for the fields of its dataclass-typed
sections (``EnvSettings``, ``SamplerConfig``, ``LearnerConfig``): every key
is a dataclass field name. Values are parsed by the field's type hint. A
group (a dataclass such as ``Rect`` or ``Vec2``, or a fixed-length tuple) is
one comma list of its scalars in field order; ``tuple[X, ...]`` is a comma
list, or ``;``-separated groups when X is a group. A float must be finite,
and an empty value is None for optional fields. For example::

    run.method = auxss
    run.t_max = 150000
    env.goal = 9,5                            # Vec2: x,y
    env.lava = 4,0,6,4.5 ; 4,5.5,6,10         # Rects: xmin,ymin,xmax,ymax
    env.start_blobs = 1,2.5,0.3 ; 1,7.5,0.3   # (Vec2 mean, std) pairs
    sampler.delta = 0.05

``RunConfig.to_text`` writes every field the same way, so a run's
``config.txt`` reloads to an equal config; a value that could not reload
(``#``, line breaks, surrounding spaces) is rejected when the config is built.
Unknown keys and groups of the wrong length are rejected to catch typos early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from types import MappingProxyType
from typing import get_args, get_origin, get_type_hints

from .env import EnvSettings, LavaBridgeEnv
from .learner import LearnerConfig
from .samplers import SamplerConfig

__all__ = [
    "EnvSettings",
    "RunConfig",
    "METHODS",
    "needs_archive",
    "parse_kv_text",
    "load_run_config",
    "config_from_mapping",
    "format_value",
    "parse_value",
]

# Method -> (start rule, prefill). The start rule is a key of bench._START_RULES;
# prefill puts the demo transitions into the replay buffer first.
METHODS = {"auxss": ("auxss", False), "uniform": ("uniform", False),
           "goaldist": ("goaldist", False), "omega": ("omega", False), "sac": ("p0", False),
           "hysac": ("p0", True), "hysac-auxss": ("auxss", True), "jsrl": ("jsrl", False)}


def needs_archive(method: str) -> bool:
    """Whether ``method`` reads ``run.demo_archive``: all but plain p0 starts do."""
    return METHODS[method] != ("p0", False)


@dataclass(frozen=True)
class RunConfig:
    """Everything one training run needs."""

    method: str = "auxss"
    t_max: int = 150_000
    horizon: int = LavaBridgeEnv.__init__.__kwdefaults__["horizon"]
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
            raise ValueError(f"unknown method {self.method!r}; choose from {tuple(METHODS)}")
        if needs_archive(self.method) and not self.demo_archive:
            raise ValueError(f"method {self.method!r} requires run.demo_archive")
        if self.horizon < 1 or self.t_max < 0 or self.seed < 0:
            raise ValueError("horizon must be >= 1, t_max >= 0 and seed >= 0")
        if self.method == "goaldist" and self.t_max == 0:
            raise ValueError("method 'goaldist' needs t_max > 0: it anneals over t_max steps")
        if self.eval_interval < 1 or self.eval_episodes < 1:
            raise ValueError("eval interval and episode count must be positive")
        if self.demo_subset < 1:
            raise ValueError("demo_subset must be >= 1")
        for key, text in self._written():
            if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
                raise ValueError(f"{key} = {text!r} cannot be written to config.txt: "
                                 "no '#', line breaks or surrounding spaces")

    def _written(self) -> list[tuple[str, str]]:
        """(``section.name``, value text) for every field, run keys first."""
        objs = {"run": self, **{name: getattr(self, name) for name in _SECTION_TYPES}}
        return [(f"{section}.{f.name}", format_value(getattr(obj, f.name)))
                for section, obj in objs.items() for f in fields(obj) if f.name not in objs]

    def to_text(self) -> str:
        """Every field as one ``section.name = value`` line, run keys first."""
        return "".join(f"{key} = {text}".rstrip() + "\n" for key, text in self._written())


# Section name -> dataclass, for the dataclass-typed fields of RunConfig in field order; resolved
# once and read-only, since get_type_hints is about half the cost of building a RunConfig.
_SECTION_TYPES = MappingProxyType({name: hint for name, hint in get_type_hints(RunConfig).items()
                                   if is_dataclass(hint)})


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if is_dataclass(value):
        value = tuple([getattr(value, f.name) for f in fields(value)])
    if isinstance(value, tuple):
        groups = value and all(isinstance(v, tuple) or is_dataclass(v) for v in value)
        return (" ; " if groups else ",").join([format_value(v) for v in value])
    return str(value)


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _scalar_hints(hint) -> list:
    """The scalar type hints of a dataclass or fixed tuple ``hint``, in field order."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return [h for f in fields(hint) for h in _scalar_hints(hints[f.name])]
    if get_origin(hint) is tuple:
        return [h for a in get_args(hint) for h in _scalar_hints(a)]
    return [hint]


def _assemble(hint, scalars):
    """A value of the dataclass or fixed tuple ``hint`` from an iterator over its scalars."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return hint(*[_assemble(hints[f.name], scalars) for f in fields(hint)])
    if get_origin(hint) is tuple:
        return tuple([_assemble(a, scalars) for a in get_args(hint)])
    return next(scalars)


def parse_value(hint, text: str):
    """Parse ``text`` as a value of type ``hint``; the inverse of ``format_value``.

    A dataclass or fixed-length tuple is one ``,`` list of its scalars, in
    field order, and the number of scalars is checked. ``tuple[X, ...]``
    splits on ``;`` when X is such a group, else on ``,``. A float must be
    finite.
    """
    text = text.strip()
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and args[-1] is Ellipsis:
        sep = ";" if is_dataclass(args[0]) or get_origin(args[0]) is tuple else ","
        return tuple(parse_value(args[0], p) for p in text.split(sep) if p.strip())
    if origin is tuple or is_dataclass(hint):
        hints = _scalar_hints(hint)
        parts = [p for p in text.split(",") if p.strip()]
        if len(parts) != len(hints):
            raise ValueError(f"expected {len(hints)} values, got {len(parts)} in {text!r}")
        return _assemble(hint, iter([parse_value(h, p) for h, p in zip(hints, parts)]))
    if type(None) in args:  # ``X | None``: empty means None
        if not text:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return parse_value(inner, text)
    if hint is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"not a boolean: {text!r}")
        return _BOOLS[text.lower()]
    value = hint(text)
    if hint is float and not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


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
            kw[name] = parse_value(hints[name], text)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None
    return cls(**kw)


def config_from_mapping(kv: dict[str, str]) -> RunConfig:
    raw: dict[str, dict[str, str]] = {"run": {}, **{name: {} for name in _SECTION_TYPES}}
    for key, val in kv.items():
        section, dot, name = key.partition(".")
        if not dot:
            raise ValueError(f"config key {key!r} is not namespaced (want section.name)")
        if section not in raw:
            raise ValueError(f"unknown config section {section!r} in key {key!r}")
        raw[section][name] = val
    sections = {name: _build(cls, name, raw[name]) for name, cls in _SECTION_TYPES.items()}
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
