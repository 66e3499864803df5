"""Weighted domain rules over a drug vocabulary.

A rule is either binary ("prescribing drug p over equivalent drug q is
suspicious") or unary ("prescribing flagged drug p is suspicious"), with a
weight in [0, 1]. Rule sets parse from CSV, serialize canonically, and carry a
fingerprint so downstream artifacts can refuse mismatched bindings.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .io_utils import atomic_write_text, csv_records, fmt_float, sha256_text
from .vocab import Vocabulary

RULES_HEADER = ["kind", "drug_p", "drug_q", "weight"]
KINDS = ("binary", "unary")


@dataclass(frozen=True)
class Rule:
    kind: str
    p: str
    q: str | None
    weight: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown rule kind {self.kind!r}")
        if self.kind == "unary":
            if self.q is not None:
                raise ValidationError(f"unary rule on {self.p!r} must not name a second drug")
        else:
            if not self.q:
                raise ValidationError(f"binary rule on {self.p!r} needs a second drug")
            if self.q == self.p:
                raise ValidationError(f"binary rule cannot pair {self.p!r} with itself")
        if not self.p:
            raise ValidationError("rule needs a non-empty drug name")
        if not np.isfinite(self.weight) or not 0.0 <= self.weight <= 1.0:
            raise ValidationError(f"rule weight must lie in [0, 1], got {self.weight}")

    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.p, self.q or "")


class RuleSet:
    """Ordered rules bound to a drug vocabulary; indices resolved eagerly."""

    def __init__(self, rules: Sequence[Rule], vocab: Vocabulary):
        if len(rules) == 0:
            raise ValidationError("a rule set needs at least one rule")
        seen: set[tuple[str, str, str]] = set()
        for rule in rules:
            if rule.key() in seen:
                raise ValidationError(f"duplicate rule {rule.key()}")
            seen.add(rule.key())
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.vocab = vocab
        self.p_idx = np.array([vocab.index(r.p) for r in self.rules], dtype=np.int64)
        self.q_idx = np.array(
            [vocab.index(r.q) if r.q is not None else -1 for r in self.rules], dtype=np.int64
        )
        self.weights = np.array([r.weight for r in self.rules], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.rules)

    def canonical_lines(self) -> list[str]:
        return [
            ",".join([r.kind, r.p, r.q or "", fmt_float(r.weight)]) for r in self.rules
        ]

    def fingerprint(self) -> str:
        """Hash of the canonical serialization; stable across runs."""
        return sha256_text("\n".join(self.canonical_lines()) + "\n")


def parse_rules(path, vocab: Vocabulary) -> RuleSet:
    """Parse a rules CSV (kind,drug_p,drug_q,weight) against a drug vocabulary."""
    rules: list[Rule] = []
    for lineno, (kind, drug_p, drug_q, weight_text) in csv_records(path, [RULES_HEADER]):
        try:
            weight = float(weight_text)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: malformed weight {weight_text!r}") from None
        try:
            rule = Rule(kind, drug_p, drug_q or None, weight)
        except ValidationError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        for name in (rule.p, rule.q):
            if name is not None and name not in vocab:
                raise ParseError(f"{path}: line {lineno}: unknown drug name {name!r}")
        rules.append(rule)
    try:
        return RuleSet(rules, vocab)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_rules_csv(rules: Iterable[Rule], path) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RULES_HEADER)
    for rule in rules:
        writer.writerow([rule.kind, rule.p, rule.q or "", fmt_float(rule.weight)])
    atomic_write_text(path, buffer.getvalue())
