"""Deterministic serialization helpers: float formatting, canonical JSON, hashing."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits so parsing round-trips exactly."""
    return FLOAT_FMT % float(x)


def dumps_canonical(obj) -> str:
    """JSON text with insertion-ordered keys and 17-significant-digit floats.

    The standard json module offers no control over float formatting, so this
    walks the object tree directly. Output is byte-stable for equal inputs.
    """
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, parts: list[str]) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _write_json(value, parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(", ")
            _write_json(value, parts)
        parts.append("]")
    elif isinstance(obj, bool) or obj is None:
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_float(float(obj)))
    else:
        parts.append(json.dumps(obj))


def atomic_write_text(path, text: str) -> None:
    """Write text then rename into place so readers never see a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
