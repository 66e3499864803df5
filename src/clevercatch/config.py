"""Run configuration: a flat INI file with one section per pipeline stage.

The whole file parses and validates before any stage runs; unknown sections
or keys are rejected. Command-line overrides arrive as ``section.key=value``
strings and pass through the same typed conversion as file values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .alignment import AlignmentConfig
from .detector import DetectorConfig
from .encoders import PretrainConfig
from .errors import ConfigError, ValidationError
from .evaluation import ABLATION_GROUPS, configs_for_groups
from .io_utils import open_text
from .simulator import SimConfig

PATH_KEYS = (
    "claims",
    "rules",
    "labels",
    "features",
    "encoders",
    "detector",
    "scores",
    "out_dir",
)

@dataclass
class EvaluateConfig:
    ks: tuple[int, ...] = (10, 20, 50, 100)
    threshold: float = 0.5

    def __post_init__(self):
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValidationError("ks must be a non-empty list of positive integers")
        if any(a >= b for a, b in zip(self.ks, self.ks[1:])):
            raise ValidationError("ks must be distinct and ascending")


@dataclass
class AblationConfig:
    groups: tuple[str, ...] = tuple(ABLATION_GROUPS)
    seeds: tuple[int, ...] = ()
    eval_fraction: float = 0.0

    def __post_init__(self):
        configs_for_groups(self.groups)
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("ablation seeds must be distinct")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValidationError("eval fraction must lie in [0, 1)")


@dataclass
class RunConfig:
    paths: dict[str, str] = field(default_factory=dict)
    simulator: SimConfig = field(default_factory=SimConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)
    ablation: AblationConfig = field(default_factory=AblationConfig)

    def path(self, key: str) -> Path:
        if key not in PATH_KEYS:
            raise ConfigError(f"unknown path key {key!r}")
        if key not in self.paths:
            raise ConfigError(f"config is missing paths.{key}")
        return Path(self.paths[key])

    def has_path(self, key: str) -> bool:
        return key in self.paths


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()!r}")
    return value


def _items(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


# Parsers of a setting's text, keyed by its field's annotation string; a
# parser raises ValueError on text it cannot read.
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[int, ...]": lambda text: tuple(int(part) for part in _items(text)),
    "tuple[str, ...]": lambda text: tuple(_items(text)),
}


# Sections map onto stage config dataclasses; [detector] accepts "lambda" as
# the file spelling of the lam field.
_SECTION_SPECS: dict[str, tuple[object, dict[str, str]]] = {
    "simulator": (SimConfig, {}),
    "pretrain": (PretrainConfig, {}),
    "alignment": (AlignmentConfig, {}),
    "detector": (DetectorConfig, {"lambda": "lam"}),
    "evaluate": (EvaluateConfig, {}),
    "ablation": (AblationConfig, {}),
}


# The simulate command derives the simulator seed from --seed, so the
# field is not a setting.
_NOT_SETTINGS = {("simulator", "seed")}


def _build_section(section: str, raw: dict[str, str]):
    cls, aliases = _SECTION_SPECS[section]
    annotations = {item.name: item.type for item in fields(cls)}
    kwargs: dict[str, object] = {}
    for key, text in raw.items():
        name = aliases.get(key, key)
        if name not in annotations or (section, name) in _NOT_SETTINGS:
            raise ConfigError(f"unknown key {section}.{key}")
        try:
            kwargs[name] = _PARSERS[annotations[name]](text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from None
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _merge_overrides(
    raw: dict[str, dict[str, str]], overrides: list[str] | None
) -> dict[str, dict[str, str]]:
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        raw.setdefault(section.strip(), {})[key.strip()] = value
    return raw


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate the full run configuration before any stage runs."""
    raw: dict[str, dict[str, str]] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        with open_text(path) as handle:
            text = handle.read()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section in parser.sections():
            raw[section] = dict(parser.items(section))
    raw = _merge_overrides(raw, overrides)

    known_sections = ("paths", *_SECTION_SPECS.keys())
    for section in raw:
        if section not in known_sections:
            raise ConfigError(f"unknown config section [{section}]")

    cfg = RunConfig()
    for key, value in raw.get("paths", {}).items():
        if key not in PATH_KEYS:
            raise ConfigError(f"unknown key paths.{key}")
        cfg.paths[key] = value.strip()
    for section in _SECTION_SPECS:
        if section in raw:
            setattr(cfg, section, _build_section(section, raw[section]))
    return cfg
