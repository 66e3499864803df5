"""Claims and label table ingestion.

Claims rows are prescriber-year-drug totals over five metric channels:
claim count, 30-day fill count, day supply, cost, and beneficiary count.
Vocabularies (drugs, prescribers) are built in first-appearance order so
parsing is deterministic for identical bytes.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .vocab import Vocabulary, VocabularyBuilder

logger = logging.getLogger(__name__)

CHANNELS = ("clm", "fill30", "days", "cost", "bene")

CLAIMS_HEADER = [
    "npi",
    "year",
    "specialty",
    "drug",
    "total_claims",
    "total_30day_fills",
    "total_day_supply",
    "total_cost",
    "total_beneficiaries",
]

LABELS_HEADER = ["npi", "label"]


@dataclass
class ClaimsTable:
    """Columnar claims records plus the vocabularies they index into."""

    npi_idx: np.ndarray  # (n,) int64 into prescribers
    year: np.ndarray  # (n,) int64
    drug_idx: np.ndarray  # (n,) int64 into drugs
    metrics: np.ndarray  # (n, 5) float64, CHANNELS order
    specialties: tuple[str, ...]  # per record, metadata only
    drugs: Vocabulary
    prescribers: Vocabulary
    years: tuple[int, ...]  # distinct years, ascending

    @property
    def n_records(self) -> int:
        return int(self.npi_idx.size)


def parse_claims_csv(path) -> ClaimsTable:
    """Parse a claims CSV; duplicate (npi, year, drug) rows are summed."""
    drugs = VocabularyBuilder()
    prescribers = VocabularyBuilder()
    position: dict[tuple[int, int, int], int] = {}
    npi_idx: list[int] = []
    years: list[int] = []
    drug_idx: list[int] = []
    metrics: list[np.ndarray] = []
    specialties: list[str] = []
    n_duplicates = 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CLAIMS_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(CLAIMS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 9:
                raise ParseError(f"{path}: line {lineno}: expected 9 fields, got {len(row)}")
            npi, year_text, specialty, drug = row[0], row[1], row[2], row[3]
            if not npi or not drug:
                raise ParseError(f"{path}: line {lineno}: npi and drug must be non-empty")
            try:
                year = int(year_text)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: malformed year {year_text!r}") from None
            values = np.empty(5)
            for k, text in enumerate(row[4:9]):
                try:
                    values[k] = float(text)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: malformed number {text!r} in column "
                        f"{CLAIMS_HEADER[4 + k]}"
                    ) from None
                if not np.isfinite(values[k]) or values[k] < 0:
                    raise ParseError(
                        f"{path}: line {lineno}: {CLAIMS_HEADER[4 + k]} must be a finite "
                        f"non-negative number, got {text}"
                    )
            i = prescribers.add(npi)
            d = drugs.add(drug)
            key = (i, year, d)
            at = position.get(key)
            if at is None:
                position[key] = len(npi_idx)
                npi_idx.append(i)
                years.append(year)
                drug_idx.append(d)
                metrics.append(values)
                specialties.append(specialty)
            else:
                metrics[at] = metrics[at] + values
                n_duplicates += 1
    if n_duplicates:
        logger.warning("%s: summed %d duplicate (npi, year, drug) rows", path, n_duplicates)
    return ClaimsTable(
        npi_idx=np.asarray(npi_idx, dtype=np.int64),
        year=np.asarray(years, dtype=np.int64),
        drug_idx=np.asarray(drug_idx, dtype=np.int64),
        metrics=np.vstack(metrics) if metrics else np.empty((0, 5)),
        specialties=tuple(specialties),
        drugs=drugs.build(),
        prescribers=prescribers.build(),
        years=tuple(sorted(set(years))),
    )


@dataclass
class LabelTable:
    """Binary labels for a subset of prescribers, by prescriber index."""

    idx: np.ndarray  # (m,) int64 prescriber indices
    labels: np.ndarray  # (m,) int64 in {0, 1}
    n_skipped: int = 0

    def __post_init__(self):
        if self.idx.shape != self.labels.shape:
            raise ValidationError("label indices and values must align")

    @property
    def n_labeled(self) -> int:
        return int(self.idx.size)

    def to_dense(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense (labels, mask) arrays over n prescribers."""
        y = np.zeros(n, dtype=np.float64)
        mask = np.zeros(n, dtype=bool)
        y[self.idx] = self.labels
        mask[self.idx] = True
        return y, mask

    def restrict(self, keep_idx: np.ndarray) -> "LabelTable":
        """Labels restricted to the given prescriber indices."""
        keep_set = set(int(i) for i in np.asarray(keep_idx).ravel())
        chosen = np.array([int(i) in keep_set for i in self.idx], dtype=bool)
        return LabelTable(self.idx[chosen], self.labels[chosen], self.n_skipped)


def parse_labels(path, prescribers: Vocabulary, on_unknown: str = "warn") -> LabelTable:
    """Parse npi,label rows; unknown npis warn and skip (or error if asked)."""
    if on_unknown not in ("warn", "error"):
        raise ValidationError(f"on_unknown must be warn or error, got {on_unknown!r}")
    idx: list[int] = []
    labels: list[int] = []
    seen: set[str] = set()
    n_skipped = 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != LABELS_HEADER:
            raise ParseError(f"{path}: line 1: expected header npi,label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected npi,label")
            npi, label_text = row
            if label_text not in ("0", "1"):
                raise ParseError(
                    f"{path}: line {lineno}: label must be 0 or 1, got {label_text!r}"
                )
            if npi in seen:
                raise ParseError(f"{path}: line {lineno}: duplicate label for npi {npi!r}")
            seen.add(npi)
            if npi not in prescribers:
                if on_unknown == "error":
                    raise ParseError(f"{path}: line {lineno}: unknown npi {npi!r}")
                n_skipped += 1
                continue
            idx.append(prescribers.index(npi))
            labels.append(int(label_text))
    if n_skipped:
        logger.warning("%s: skipped %d labels for npis absent from the claims table", path, n_skipped)
    return LabelTable(
        idx=np.asarray(idx, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        n_skipped=n_skipped,
    )
