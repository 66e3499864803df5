"""Claims and label table ingestion.

Claims rows are prescriber-year-drug totals over five metric channels:
claim count, 30-day fill count, day supply, cost, and beneficiary count.
Vocabularies (drugs, prescribers) are built in first-appearance order so
parsing is deterministic for identical bytes.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .vocab import Vocabulary

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
    drugs: Vocabulary
    prescribers: Vocabulary

    @property
    def n_records(self) -> int:
        return int(self.npi_idx.size)


def parse_claims_csv(path) -> ClaimsTable:
    """Parse a claims CSV; duplicate (npi, year, drug) rows are summed.

    One streaming pass appends each record to typed columns: prescriber and
    drug indices in first-appearance order, the year, and the five metrics.
    The metrics are checked in one step after the pass, and duplicates are
    summed in file order. A file with several faults reports the one a
    record-by-record check meets first; an npi that would need CSV quoting, or
    a drug name holding a line break, is rejected only after every record passes.
    """
    prescribers: dict[str, int] = {}
    drugs: dict[str, int] = {}
    npi_col = array("q")
    year_col = array("q")
    drug_col = array("q")
    metric_col = array("d")
    # bound once: this loop runs once per record
    add_npi, add_year, add_drug = npi_col.append, year_col.append, drug_col.append
    add_metrics = metric_col.extend
    npi_index, drug_index = prescribers.setdefault, drugs.setdefault
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CLAIMS_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(CLAIMS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 9 or not row[0] or not row[3]:
                if not row:
                    continue
                raise _first_error(path, lineno, row, metric_col, len(npi_col))
            try:
                add_year(int(row[1]))
                add_metrics(map(float, row[4:9]))
            except (ValueError, OverflowError):
                raise _first_error(path, lineno, row, metric_col, len(npi_col)) from None
            add_drug(drug_index(row[3], len(drugs)))
            add_npi(npi_index(row[0], len(prescribers)))
    n = len(npi_col)
    npi_idx = np.frombuffer(npi_col, dtype=np.int64)
    year = np.frombuffer(year_col, dtype=np.int64)
    drug_idx = np.frombuffer(drug_col, dtype=np.int64)
    metrics = np.frombuffer(metric_col, dtype=np.float64).reshape(n, len(CHANNELS))
    error = _metric_error(path, metrics)
    if error is not None:
        raise error
    # features.csv, scores.csv and pseudo_labels.csv write npis without quoting,
    # and csv.writer leaves a bare \r in a drug name unquoted in rules.csv
    for npi in prescribers:
        if any(c in npi for c in ',"\r\n'):
            raise ParseError(f"{path}: npi {npi!r} holds a comma, a double quote or a line break")
    for drug in drugs:
        if "\r" in drug or "\n" in drug:
            raise ParseError(f"{path}: drug name {drug!r} holds a line break")
    years = np.unique(year)
    # one int64 key per (npi, year, drug); the bound keeps the packing exact
    n_cells = len(prescribers) * years.size * len(drugs)
    if n_cells > np.iinfo(np.int64).max:
        raise ParseError(f"{path}: {n_cells} (npi, year, drug) cells exceed the int64 key range")
    year_rank = np.searchsorted(years, year)
    key = (npi_idx * years.size + year_rank) * len(drugs) + drug_idx
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    del key, year_rank
    n_duplicates = n - first.size
    if n_duplicates:
        order = np.argsort(first)
        keep = first[order]
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        repeat = np.ones(n, dtype=bool)
        repeat[keep] = False
        summed = metrics[keep]
        # unbuffered and in file order, so each cell sums left to right
        np.add.at(summed, position[group[repeat]], metrics[repeat])
        npi_idx, year, drug_idx, metrics = npi_idx[keep], year[keep], drug_idx[keep], summed
        logger.warning("%s: summed %d duplicate (npi, year, drug) rows", path, n_duplicates)
    return ClaimsTable(
        npi_idx=npi_idx,
        year=year,
        drug_idx=drug_idx,
        metrics=metrics,
        drugs=Vocabulary(drugs),
        prescribers=Vocabulary(prescribers),
    )


def _record_error(path, lineno: int, row: list[str]) -> ParseError | None:
    """The first fault of one claims record, checking its fields in column order."""
    where = f"{path}: line {lineno}"
    if len(row) != 9:
        return ParseError(f"{where}: expected 9 fields, got {len(row)}")
    if not row[0] or not row[3]:
        return ParseError(f"{where}: npi and drug must be non-empty")
    try:
        int(row[1])
    except ValueError:
        return ParseError(f"{where}: malformed year {row[1]!r}")
    for name, text in zip(CLAIMS_HEADER[4:], row[4:]):
        try:
            value = float(text)
        except ValueError:
            return ParseError(f"{where}: malformed number {text!r} in column {name}")
        if not math.isfinite(value) or value < 0:
            return ParseError(f"{where}: {name} must be a finite non-negative number, got {text}")
    return None


def _metric_error(path, metrics: np.ndarray) -> ParseError | None:
    """The error of the first record whose metrics are not all finite and non-negative."""
    ok = np.isfinite(metrics)
    ok &= metrics >= 0
    bad = ~ok.all(axis=1)
    if not bad.any():
        return None
    target = int(bad.argmax())
    # only the failing record's text is needed, so read the file again to find it
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        records = ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)
        for k, (lineno, row) in enumerate(records):
            if k == target:
                error = _record_error(path, lineno, row)
                if error is not None:
                    return error
                break
    raise ParseError(f"{path}: changed while it was being read")


def _first_error(path, lineno: int, row: list[str], metric_col: array, n_done: int) -> ParseError:
    """The error for a faulty record, unless an earlier record's metrics fail first."""
    earlier = np.array(metric_col[: n_done * len(CHANNELS)]).reshape(n_done, len(CHANNELS))
    error = _metric_error(path, earlier) or _record_error(path, lineno, row)
    if error is None:  # an int() overflow: the year does not fit the int64 column
        error = ParseError(f"{path}: line {lineno}: malformed year {row[1]!r}")
    return error


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
        """Labels restricted to the given prescriber indices, in table order."""
        chosen = np.isin(self.idx, keep_idx)
        return LabelTable(self.idx[chosen], self.labels[chosen], self.n_skipped)


def parse_labels(path, prescribers: Vocabulary) -> LabelTable:
    """Parse npi,label rows; labels for npis outside the vocabulary warn and are skipped."""
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
                n_skipped += 1
                continue
            idx.append(prescribers.index(npi))
            labels.append(int(label_text))
    if n_skipped:
        msg = "%s: skipped %d labels for npis not among the %d prescribers being labeled"
        logger.warning(msg, path, n_skipped, len(prescribers))
    return LabelTable(
        idx=np.asarray(idx, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        n_skipped=n_skipped,
    )
