"""Weighted domain rules over a drug vocabulary.

A rule is either binary ("prescribing drug p over equivalent drug q is
suspicious") or unary ("prescribing flagged drug p is suspicious"), with a
weight in [0, 1]. Rule sets parse from CSV, serialize canonically, and carry a
fingerprint so downstream artifacts can refuse mismatched bindings. Offline
derivation builds binary rules from drug-target equivalence (Jaccard = 1) plus
price gaps, and unary rules from an opioid annotation file.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .io_utils import atomic_write_text, fmt_float, sha256_text
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

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

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def canonical_lines(self) -> list[str]:
        return [
            ",".join([r.kind, r.p, r.q or "", fmt_float(r.weight)]) for r in self.rules
        ]

    def fingerprint(self) -> str:
        """Hash of the canonical serialization; stable across runs."""
        return sha256_text("\n".join(self.canonical_lines()) + "\n")

    def subset(self, keep) -> "RuleSet | None":
        """New RuleSet with rules passing the predicate, or None if empty."""
        kept = [r for r in self.rules if keep(r)]
        if not kept:
            return None
        return RuleSet(kept, self.vocab)


def parse_rules(path, vocab: Vocabulary) -> RuleSet:
    """Parse a rules CSV (kind,drug_p,drug_q,weight) against a drug vocabulary."""
    rules: list[Rule] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != RULES_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(RULES_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            kind, drug_p, drug_q, weight_text = row
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


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two non-empty sets."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise ValidationError("similarity is undefined for empty target sets")
    return len(sa & sb) / len(sa | sb)


def load_drug_targets(path) -> dict[str, frozenset[str]]:
    """Parse a drug,target CSV into drug -> protein-target set."""
    targets: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["drug", "target"]:
            raise ParseError(f"{path}: line 1: expected header drug,target")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 or not row[0] or not row[1]:
                raise ParseError(f"{path}: line {lineno}: expected drug,target")
            targets.setdefault(row[0], set()).add(row[1])
    return {drug: frozenset(names) for drug, names in targets.items()}


@dataclass(frozen=True)
class PriceStats:
    total_cost: float
    total_claims: float


@dataclass(frozen=True)
class GapThresholds:
    moderate: float = 0.5
    high: float = 1.0
    extreme: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.moderate <= self.high <= self.extreme:
            raise ValidationError("gap thresholds must satisfy 0 < moderate <= high <= extreme")

    def tier(self, gap: float) -> str | None:
        if gap >= self.extreme:
            return "extreme"
        if gap >= self.high:
            return "high"
        if gap >= self.moderate:
            return "moderate"
        return None


@dataclass(frozen=True)
class CostRuleCandidate:
    rule: Rule
    tier: str
    gap: float


def derive_cost_preference_rules(
    targets: Mapping[str, frozenset[str]],
    price_stats: Mapping[str, PriceStats],
    thresholds: GapThresholds = GapThresholds(),
) -> list[CostRuleCandidate]:
    """Binary rule candidates from interchangeable drug pairs with a price gap.

    Drugs with identical protein-target sets (Jaccard exactly 1) are treated
    as interchangeable. For each such pair the relative price gap on average
    cost per claim decides the tier, and the weight is min(1, gap / extreme).
    The costlier drug is always drug p.
    """
    drugs = sorted(targets)
    out: list[CostRuleCandidate] = []
    for i, drug_a in enumerate(drugs):
        for drug_b in drugs[i + 1 :]:
            if jaccard(targets[drug_a], targets[drug_b]) != 1.0:
                continue
            stats_a = price_stats.get(drug_a)
            stats_b = price_stats.get(drug_b)
            if stats_a is None or stats_b is None:
                logger.warning(
                    "skipping pair (%s, %s): missing price statistics", drug_a, drug_b
                )
                continue
            if stats_a.total_claims <= 0 or stats_b.total_claims <= 0:
                logger.warning(
                    "skipping pair (%s, %s): no claims to price against", drug_a, drug_b
                )
                continue
            cpc_a = stats_a.total_cost / stats_a.total_claims
            cpc_b = stats_b.total_cost / stats_b.total_claims
            if cpc_a == cpc_b:
                continue
            if cpc_a > cpc_b:
                costlier, cheaper, cpc_hi, cpc_lo = drug_a, drug_b, cpc_a, cpc_b
            else:
                costlier, cheaper, cpc_hi, cpc_lo = drug_b, drug_a, cpc_b, cpc_a
            # A free cheaper drug makes the relative gap unbounded; treat as extreme.
            gap = float("inf") if cpc_lo == 0 else (cpc_hi - cpc_lo) / cpc_lo
            tier = thresholds.tier(gap)
            if tier is None:
                continue
            weight = min(1.0, gap / thresholds.extreme)
            out.append(CostRuleCandidate(Rule("binary", costlier, cheaper, weight), tier, gap))
    return out


def load_opioid_annotations(path) -> list[tuple[str, str, float | None]]:
    """Parse drug,likelihood[,weight] rows; likelihood must be low or high."""
    rows: list[tuple[str, str, float | None]] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header not in (["drug", "likelihood"], ["drug", "likelihood", "weight"]):
            raise ParseError(f"{path}: line 1: expected header drug,likelihood[,weight]")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) not in (2, 3) or not row[0]:
                raise ParseError(f"{path}: line {lineno}: expected drug,likelihood[,weight]")
            likelihood = row[1]
            if likelihood not in ("low", "high"):
                raise ParseError(
                    f"{path}: line {lineno}: likelihood must be low or high, got {likelihood!r}"
                )
            weight: float | None = None
            if len(row) == 3 and row[2] != "":
                try:
                    weight = float(row[2])
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: malformed weight {row[2]!r}") from None
            rows.append((row[0], likelihood, weight))
    return rows


def derive_opioid_rules(
    annotations: Sequence[tuple[str, str, float | None]], default_weight: float = 0.5
) -> list[Rule]:
    """Unary rules for every high-likelihood drug, in file order."""
    rules = []
    for drug, likelihood, weight in annotations:
        if likelihood != "high":
            continue
        rules.append(Rule("unary", drug, None, default_weight if weight is None else weight))
    return rules
