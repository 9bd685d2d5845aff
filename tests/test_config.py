"""The config decoder: README's schema block, the rule table and fuzzed
overrides of every documented field."""
import inspect
import json
import math
import os
from dataclasses import MISSING, astuple, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidmotion import config as C
from vidmotion import diffusion as D
from vidmotion import pipeline as P
from vidmotion import tensor as T

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def readme_schema() -> dict:
    """The JSON block under README's "Config schema" heading."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Config schema", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


# every documented field, as "section.field" or a top-level name
FIELDS = sorted(key if not isinstance(value, dict) else f"{key}.{name}"
                for key, value in readme_schema().items()
                for name in (value if isinstance(value, dict) else [None]))


def value_at(cfg: C.Config, key: str):
    """The value of field ``key`` of ``cfg``; KeyError if it has none."""
    section, _, name = key.rpartition(".")
    holder = getattr(cfg, section) if section else cfg
    if not isinstance(holder, dict):
        holder = {f.name: getattr(holder, f.name) for f in fields(holder)}
    return holder[name]


def test_readme_schema_decodes_to_the_defaults():
    cfg = C.config_from_dict(readme_schema())
    default = C.Config()
    for f in fields(C.Config):
        if f.name not in ("prompts", "paths"):
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name
    assert set(cfg.paths) == set(C._PATHS)


def test_every_rule_names_a_documented_field():
    cfg = C.config_from_dict(readme_schema())
    for key in [*C.RULES, *(key for pair in C.ORDERED for key in pair)]:
        assert key in FIELDS
        value_at(cfg, key)


# values at and beyond each bound, NUL and empty strings, and wrong types
VALUES = (st.sampled_from([-1, 0, 1, 2, 3, 999, 1000, 1001, 2000, -0.5, -0.0, 0.0,
                           1e-12, 1e-4, 2e-2, 0.5, 0.999, 1.0, 1.5, 1e30, math.inf,
                           -math.inf, math.nan, True, False, None, "", "\0",
                           "a\0b", "x", [], [32, 64], {}])
          | st.integers(-5, 3000) | st.floats()
          | st.text(alphabet="ab/\0", max_size=4))


@pytest.fixture(scope="module")
def base_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({"seed": 3, "sampler": {"steps": 20}}))
    return path


@settings(max_examples=400, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(FIELDS), VALUES,
                                 min_size=1, max_size=3))
def test_fuzzed_overrides_decode_or_name_their_field(base_config, overrides):
    try:
        cfg = C.load_config(base_config, overrides)
    except C.ConfigError as exc:
        assert str(exc).split(" ", 1)[0] in FIELDS, str(exc)
        return
    for key, (holds, _) in C.RULES.items():
        if not key.startswith("paths.") or key[len("paths."):] in cfg.paths:
            assert holds(value_at(cfg, key)), key
    for low, high in C.ORDERED:
        assert value_at(cfg, low) <= value_at(cfg, high)
    for key, value in overrides.items():
        if not key.startswith("model."):
            assert value_at(cfg, key) == value, key


def test_each_setting_default_is_declared_once():
    # the defaults that stay declared twice agree
    schedule = D.make_schedule()
    assert astuple(C.ScheduleConfig()) == (schedule.timesteps, schedule.beta_min,
                                          schedule.beta_max)
    assert C.Config().model.schedule_steps == C.Config().schedule.timesteps
    control = inspect.signature(P.reconstruct).parameters["control_on_recon"]
    assert control.default == C.AlignmentConfig().control_on_recon
    # and the pipeline declares none of the settings its caller passes
    settings_of = {P.one_shot_train: None, P.invert: ("steps", "schedule"),
                   P.reconstruct: ("steps", "schedule"), P.edit: None,
                   P.align_skeletons: None, T.AdamState: None}
    defaulted = [f"{fn.__qualname__}({name})" for fn, names in settings_of.items()
                 for name, p in inspect.signature(fn).parameters.items()
                 if p.default is not p.empty and (names is None or name in names)]
    defaulted += [f"EditJob.{f.name}" for f in fields(P.EditJob)
                  if f.default is not MISSING or f.default_factory is not MISSING]
    assert defaulted == []
