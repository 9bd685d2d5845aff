"""Run configuration: one JSON document drives every command.

Validation is strict: unknown keys are rejected at every level so typos fail
loudly instead of silently running defaults.
"""
from __future__ import annotations

import json
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
class Config:
    seed: int = 0
    model: N.NetConfig = field(default_factory=N.NetConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    injection: I.InjectionSettings = field(default_factory=I.InjectionSettings)
    align_first_frame_only: bool = False
    control_on_recon: bool = True
    prompt_source: str = ""
    prompt_target: str = ""
    paths: dict[str, str] = field(default_factory=dict)


# sections decoded field by field into their dataclass, schedule first: the
# model's schedule_steps is the schedule's timesteps
_DATACLASS_SECTIONS = {"schedule": ScheduleConfig, "training": TrainingConfig,
                       "sampler": SamplerConfig, "injection": I.InjectionSettings}

_SECTION_FIELDS = {
    **{section: {f.name for f in fields(cls)}
       for section, cls in _DATACLASS_SECTIONS.items()},
    "model": {f.name for f in fields(N.NetConfig)} - {"schedule_steps"},
    "alignment": {"first_frame_only", "control_on_recon"},
    "prompts": {"source", "target"},
    "paths": {"source_video", "source_masks", "source_skeletons",
              "ref_skeletons", "ref_masks", "checkpoint"},
}
_TOP_KEYS = {"seed"} | set(_SECTION_FIELDS)


def _check_keys(section: str, blob: dict) -> None:
    if not isinstance(blob, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(blob) - _SECTION_FIELDS[section]
    if unknown:
        raise ConfigError(f"unknown key(s) in {section!r}: {sorted(unknown)}")


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(blob: dict, section: str, name: str, default, minimum: int | None = None):
    """``blob[name]`` (``default`` when absent), of the type of ``default``.

    An int field takes only a JSON integer and a float field any finite
    number; ``minimum`` bounds an integer field. ConfigError names
    ``section.name``.
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
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value!r}")
    return value


def _section(blob: dict, section: str, cls):
    """Build dataclass ``cls`` from ``blob[section]``, field by field."""
    _check_keys(section, blob[section])
    defaults = cls()
    return cls(**{f.name: _field(blob[section], section, f.name,
                                 getattr(defaults, f.name))
                  for f in fields(cls)})


def config_from_dict(blob: dict) -> Config:
    if not isinstance(blob, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(blob) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    cfg = Config()
    cfg.seed = _field(blob, "", "seed", 0, minimum=0)
    for section, cls in _DATACLASS_SECTIONS.items():
        if section in blob:
            setattr(cfg, section, _section(blob, section, cls))
    m = blob.get("model", {})
    _check_keys("model", m)
    cfg.model = N.net_config({**asdict(N.NetConfig()), **m,
                              "schedule_steps": cfg.schedule.timesteps}, "model.")
    a = blob.get("alignment", {})
    _check_keys("alignment", a)
    cfg.align_first_frame_only = _field(a, "alignment", "first_frame_only", False)
    cfg.control_on_recon = _field(a, "alignment", "control_on_recon", True)
    prompts = blob.get("prompts", {})
    _check_keys("prompts", prompts)
    cfg.prompt_source = _field(prompts, "prompts", "source", "")
    cfg.prompt_target = _field(prompts, "prompts", "target", "")
    paths = blob.get("paths", {})
    _check_keys("paths", paths)
    cfg.paths = {k: _field(paths, "paths", k, "") for k in paths}
    _validate(cfg)
    return cfg


def _validate(cfg: Config) -> None:
    if cfg.training.steps < 0 or cfg.training.lr <= 0:
        raise ConfigError("training needs steps >= 0 and lr > 0")
    if cfg.sampler.steps < 1:
        raise ConfigError("sampler needs at least one step")
    if cfg.sampler.guidance < 0:
        raise ConfigError("guidance must be >= 0")
    if not 0.0 <= cfg.injection.window_fraction <= 1.0:
        raise ConfigError("injection window_fraction must lie in [0, 1]")


def load_config(path, overrides=()) -> Config:
    """Config from the JSON file at ``path``, with each ``(section, field,
    value)`` of ``overrides`` written over the file's before decoding, so an
    override is checked like the file (section "" is the top level)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    blob = json.loads(text)  # json.JSONDecodeError carries line/column
    if isinstance(blob, dict):  # config_from_dict rejects any other root
        for section, name, value in overrides:
            target = blob.setdefault(section, {}) if section else blob
            if isinstance(target, dict):  # else config_from_dict rejects it
                target[name] = value
    return config_from_dict(blob)
