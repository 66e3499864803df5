"""Deterministic serialization helpers: float formatting, canonical JSON, hashing,
the checked read of a versioned model document, and the one CSV dialect.

Every CSV table is comma-separated, LF-terminated and starts with a header.
Writers hand over lines they formatted themselves; readers get each record's
fields after the header and field count are checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ParseError

FLOAT_FMT = "%.17g"

CSV_BLOCK_LINES = 4096  # lines joined per write of a CSV table


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


@contextmanager
def open_text(path, newline: str | None = None) -> Iterator[TextIO]:
    """path opened for reading as UTF-8; bytes that do not decode are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def read_json_document(path, version: int, keys: list[str], what: str) -> dict:
    """The JSON object in path; its format version and exact key order are checked."""
    with open_text(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if doc.get("format_version") != version:
        raise ParseError(f"{path}: unsupported format version {doc.get('format_version')!r}")
    if list(doc.keys()) != keys:
        raise ParseError(f"{path}: expected {what} keys {keys}")
    return doc


def json_number(path, doc: dict, key: str, integer: bool) -> int | float:
    """doc[key] if it is a JSON integer or, unless integer is set, a finite JSON number."""
    value = doc[key]
    if type(value) is int or (not integer and type(value) is float and math.isfinite(value)):
        return value
    kind = "a JSON integer" if integer else "a finite JSON number"
    raise ParseError(f"{path}: field {key!r} must be {kind}, got {json.dumps(value)}")


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write text, or each string of an iterable in turn, then rename into place
    so readers never see a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: Sequence[str], lines: Iterable[str], comments: Sequence[str] = ()) -> None:
    """Write comment lines, the header, then one pre-formatted line per item,
    atomically, joining CSV_BLOCK_LINES lines per write."""
    lines = iter(lines)
    blocks = iter(lambda: list(islice(lines, CSV_BLOCK_LINES)), [])
    atomic_write_text(path, chain(
        ["\n".join([*comments, ",".join(header), ""])], ("\n".join([*block, ""]) for block in blocks)
    ))  # "" ends the last line of each block


def csv_records(path, headers: Sequence[Sequence[str]]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank record of a CSV whose header is one of headers.

    A record is numbered by the physical line it starts on, so a quoted line
    break moves the numbers of the records after it. A record must have as
    many fields as the header.
    """
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header not in map(list, headers):
            expected = " or ".join(",".join(h) for h in headers)
            raise ParseError(f"{path}: line 1: expected header {expected}")
        start = reader.line_num + 1  # the line the next record starts on
        for fields in reader:
            lineno, start = start, reader.line_num + 1
            if not fields:
                continue
            if len(fields) != len(header):
                raise ParseError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}")
            yield lineno, fields


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
