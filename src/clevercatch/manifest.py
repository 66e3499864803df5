"""Run manifests: a JSON record of what a command read, wrote, and took.

Manifests capture the effective config, input and output file hashes, the
command's wall time, and library versions, and are written atomically when the
command finishes. Timings vary between runs, so manifests are not part of the
byte-identical determinism contract that model files and CSVs obey.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .io_utils import atomic_write_text, dumps_canonical, sha256_file


def _config_snapshot(obj) -> object:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            item.name: _config_snapshot(getattr(obj, item.name))
            for item in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _config_snapshot(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_config_snapshot(v) for v in obj]
    return obj


@dataclass
class RunManifest:
    command: str
    seed: int
    config: object = None
    inputs: dict[str, dict] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def add_input(self, name: str, path) -> None:
        path = Path(path)
        self.inputs[name] = {"path": str(path), "sha256": sha256_file(path)}

    def add_output(self, name: str, path) -> None:
        path = Path(path)
        self.outputs[name] = {"path": str(path), "sha256": sha256_file(path)}

    def write(self, path) -> None:
        doc = {
            "command": self.command,
            "seed": self.seed,
            "versions": {
                "clevercatch": __version__,
                "numpy": np.__version__,
            },
            "config": _config_snapshot(self.config),
            "inputs": self.inputs,
            "outputs": self.outputs,
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
        }
        atomic_write_text(path, dumps_canonical(doc) + "\n")
