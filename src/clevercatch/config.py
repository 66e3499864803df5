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


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return tuple(int(part) for part in items)


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _convert(section: str, key: str, text: str, kind) -> object:
    try:
        if kind is bool:
            return _parse_bool(text)
        if kind is int:
            return int(text)
        if kind is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(f"must be finite, got {text.strip()!r}")
            return value
        if kind is str:
            return text.strip()
        if kind == "int_tuple":
            return _parse_int_tuple(text)
        if kind == "str_tuple":
            return _parse_str_tuple(text)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from None
    raise ConfigError(f"{section}.{key}: unsupported value kind {kind!r}")


def _dataclass_kinds(cls) -> dict[str, object]:
    kinds: dict[str, object] = {}
    for item in fields(cls):
        if item.type in ("int", int):
            kinds[item.name] = int
        elif item.type in ("float", float):
            kinds[item.name] = float
        elif item.type in ("bool", bool):
            kinds[item.name] = bool
        elif item.type in ("str", str):
            kinds[item.name] = str
        elif "tuple[int" in str(item.type):
            kinds[item.name] = "int_tuple"
        elif "tuple[str" in str(item.type):
            kinds[item.name] = "str_tuple"
        else:
            raise ConfigError(f"unmappable config field {cls.__name__}.{item.name}")
    return kinds


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
    kinds = _dataclass_kinds(cls)
    kwargs: dict[str, object] = {}
    for key, text in raw.items():
        name = aliases.get(key, key)
        if name not in kinds or (section, name) in _NOT_SETTINGS:
            raise ConfigError(f"unknown key {section}.{key}")
        kwargs[name] = _convert(section, key, text, kinds[name])
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
        text = Path(path).read_text(encoding="utf-8")
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
