"""Run configuration: one JSON document drives every command.

``config_from_dict`` reads each section into its dataclass field by field.
``_field`` checks each field against the type of its default and against
the rule ``RULES`` declares for it; the two cross-field rules of ``ORDERED``
are checked once every section is read. Unknown keys are rejected at every
level, so typos fail loudly instead of silently running defaults, and a
field's refused value raises a ConfigError whose message opens with the
field's ``section.field``. ``load_config`` writes each command-line override
over its field before decoding, so a flag is checked like the file.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields

from . import injection as I
from . import network as N


ConfigError = N.ConfigError  # the model section is checked by N.net_config


@dataclass
class ScheduleConfig:
    timesteps: int = 1000
    beta_min: float = 1e-4
    beta_max: float = 2e-2


@dataclass
class TrainingConfig:
    steps: int = 300
    lr: float = 3e-5


@dataclass
class SamplerConfig:
    steps: int = 50
    guidance: float = 7.5


@dataclass
class AlignmentConfig:
    first_frame_only: bool = False
    control_on_recon: bool = True


@dataclass
class PromptsConfig:
    source: str = ""
    target: str = ""


@dataclass
class Config:
    seed: int = 0
    model: N.NetConfig = field(default_factory=N.NetConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    injection: I.InjectionSettings = field(default_factory=I.InjectionSettings)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    prompts: PromptsConfig = field(default_factory=PromptsConfig)
    paths: dict[str, str] = field(default_factory=dict)


# sections read field by field into their dataclass, before the model
# section: the model's schedule_steps is the schedule's timesteps
_SECTIONS = {"schedule": ScheduleConfig, "training": TrainingConfig,
             "sampler": SamplerConfig, "injection": I.InjectionSettings,
             "alignment": AlignmentConfig, "prompts": PromptsConfig}
_PATHS = ("source_video", "source_masks", "source_skeletons", "ref_skeletons",
          "ref_masks", "checkpoint")

_SECTION_FIELDS = {
    **{section: {f.name for f in fields(cls)} for section, cls in _SECTIONS.items()},
    "model": {f.name for f in fields(N.NetConfig)} - {"schedule_steps"},
    "paths": set(_PATHS),
}
_TOP_KEYS = {"seed"} | set(_SECTION_FIELDS)

# section.field -> (whether a value of the field's type holds, what it must be)
RULES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "schedule.timesteps": (lambda v: v >= 2, ">= 2"),  # as D.make_schedule needs
    "schedule.beta_min": (lambda v: 0 < v < 1, "in (0, 1)"),
    "schedule.beta_max": (lambda v: 0 < v < 1, "in (0, 1)"),
    "training.steps": (lambda v: v >= 0, ">= 0"),
    "training.lr": (lambda v: v > 0, "> 0"),
    "sampler.steps": (lambda v: v >= 1, ">= 1"),
    "sampler.guidance": (lambda v: v >= 0, ">= 0"),
    "injection.window_fraction": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    **{f"paths.{key}": (lambda v: v != "" and "\0" not in v,
                        "a non-empty path without NUL") for key in _PATHS},
}
# (low, high): fields whose values must satisfy low <= high
ORDERED = (("schedule.beta_min", "schedule.beta_max"),
           ("sampler.steps", "schedule.timesteps"))


def _values(blob: dict, section: str) -> dict:
    """``blob[section]`` ({} when absent), once its keys are checked."""
    values = blob.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(values) - _SECTION_FIELDS[section]
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")
    return values


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(blob: dict, section: str, name: str, default):
    """``blob[name]`` (``default`` when absent), of the type of ``default``
    and under the rule of ``RULES`` for ``section.name``, if any.

    An int field takes only a JSON integer and a float field any finite
    number. ConfigError names ``section.name``.
    """
    value = blob.get(name, default)
    kind = type(default)
    if kind is float:
        ok = _is_int(value) or (isinstance(value, float) and math.isfinite(value))
    elif kind is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, kind)
    where = f"{section}.{name}" if section else name
    if not ok:
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    rule = RULES.get(where)
    if rule is not None and not rule[0](value):
        raise ConfigError(f"{where} must be {rule[1]}, got {value!r}")
    return value


def _section(blob: dict, section: str, cls):
    """Build dataclass ``cls`` from ``blob[section]``, field by field."""
    values = _values(blob, section)
    defaults = cls()
    return cls(**{f.name: _field(values, section, f.name, getattr(defaults, f.name))
                  for f in fields(cls)})


def config_from_dict(blob: dict) -> Config:
    if not isinstance(blob, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(blob) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    cfg = Config(seed=_field(blob, "", "seed", 0),
                 **{section: _section(blob, section, cls)
                    for section, cls in _SECTIONS.items()})
    cfg.model = N.net_config({**asdict(N.NetConfig()), **_values(blob, "model"),
                              "schedule_steps": cfg.schedule.timesteps}, "model.")
    paths = _values(blob, "paths")
    cfg.paths = {k: _field(paths, "paths", k, "") for k in paths}
    for low, high in ORDERED:
        a, b = (functools.reduce(getattr, key.split("."), cfg) for key in (low, high))
        if a > b:
            raise ConfigError(f"{low} {a!r} must be <= {high} {b!r}")
    return cfg


def load_config(path, overrides: dict | None = None) -> Config:
    """Config from the JSON file at ``path``, with the value of each
    ``section.field`` (or top-level field) of ``overrides`` written over the
    file's before decoding, so an override is checked like the file."""
    blob = N.read_json(path)
    if isinstance(blob, dict):  # config_from_dict rejects any other root
        for key, value in (overrides or {}).items():
            section, _, name = key.rpartition(".")
            target = blob.setdefault(section, {}) if section else blob
            if isinstance(target, dict):  # else config_from_dict rejects it
                target[name] = value
    return config_from_dict(blob)
