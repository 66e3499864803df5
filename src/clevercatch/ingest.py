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
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .io_utils import csv_records, open_text
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
    """Columnar claims rows, as the file holds them, plus the vocabularies they index into."""

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
    """Parse a claims CSV into its rows as read, in file order.

    numpy's C reader takes the body in chunks of records and appends them to
    typed columns: prescriber and drug indices in first-appearance order, the
    year, and the five metrics. A record it cannot read, a metric that is not
    finite and non-negative, or an empty npi or drug sends the whole file to
    the record-by-record reader. That reader checks each record in order, so a
    file with several faults reports the first, and it also takes the numbers
    that int() and float() read but numpy does not, such as 1_000. An npi that
    would need CSV quoting, or a drug name holding a line break, is rejected
    only after every record passes. A (npi, year, drug) cell may span several
    rows; the feature pass sums them.
    """
    with open_text(path, newline="") as handle:
        # the one csv.reader outside io_utils: numpy's fast path reads the
        # records from this handle, so the header is taken from it first
        if next(csv.reader(handle), None) != CLAIMS_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(CLAIMS_HEADER)}")
        columns = _Columns()
        if not columns.read_chunks(handle):
            columns = _Columns()
            columns.read_records(path)
    # features.csv, scores.csv and pseudo_labels.csv write npis without quoting,
    # and csv.writer leaves a bare \r in a drug name unquoted in rules.csv
    for npi in columns.prescribers:
        if any(c in npi for c in ',"\r\n'):
            raise ParseError(f"{path}: npi {npi!r} holds a comma, a double quote or a line break")
    for drug in columns.drugs:
        if "\r" in drug or "\n" in drug:
            raise ParseError(f"{path}: drug name {drug!r} holds a line break")
    return ClaimsTable(
        npi_idx=np.frombuffer(columns.npi, dtype=np.int64),
        year=np.frombuffer(columns.year, dtype=np.int64),
        drug_idx=np.frombuffer(columns.drug, dtype=np.int64),
        metrics=np.frombuffer(columns.metrics, dtype=np.float64).reshape(-1, len(CHANNELS)),
        drugs=Vocabulary(columns.drugs),
        prescribers=Vocabulary(columns.prescribers),
    )


def _record_error(path, lineno: int, row: list[str]) -> ParseError | None:
    """The first fault of one claims record, checking its fields in column order."""
    where = f"{path}: line {lineno}"
    if not row[0] or not row[3]:
        return ParseError(f"{where}: npi and drug must be non-empty")
    try:
        if not -(2**63) <= int(row[1]) < 2**63:  # the year column is int64
            raise ValueError
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


# Records per np.loadtxt call. Each record of a chunk holds three Python
# strings, so a bounded chunk keeps the parse's peak memory flat.
_CHUNK_ROWS = 4096
_RECORD = np.dtype([("npi", object), ("year", np.int64), ("specialty", object), ("drug", object),
                    ("metrics", np.float64, (len(CHANNELS),))])


class _Index(dict):
    """Name -> index in first-appearance order; looking up a new name adds it."""

    def __missing__(self, name: str) -> int:
        self[name] = index = len(self)
        return index


class _Columns:
    """Typed claims columns; npis and drugs become indices in first-appearance order."""

    def __init__(self):
        self.prescribers, self.drugs = _Index(), _Index()
        self.npi, self.year, self.drug, self.metrics = array("q"), array("q"), array("q"), array("d")

    def read_chunks(self, handle) -> bool:
        """Append the records after the header through np.loadtxt; False if one needs checking.

        Each call stops at the line that ends its last record, so no record
        straddles two chunks, not even one with a quoted line break.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # blank lines and the end of the file
            while True:
                try:
                    chunk = np.loadtxt(handle, _RECORD, delimiter=",", quotechar='"', comments=None,
                                       ndmin=1, max_rows=_CHUNK_ROWS)
                except ValueError:
                    return False
                if not chunk.size:
                    return "" not in self.prescribers and "" not in self.drugs
                metrics = chunk["metrics"]
                if not (np.isfinite(metrics).all() and (metrics >= 0).all()):
                    return False
                self.npi.extend(map(self.prescribers.__getitem__, chunk["npi"].tolist()))
                self.drug.extend(map(self.drugs.__getitem__, chunk["drug"].tolist()))
                self.year.frombytes(chunk["year"].tobytes())
                self.metrics.frombytes(metrics.tobytes())

    def read_records(self, path) -> None:
        """Append every record through csv_records, raising the first faulty record's error."""
        for lineno, row in csv_records(path, [CLAIMS_HEADER]):
            error = _record_error(path, lineno, row)
            if error is not None:
                raise error
            self.npi.append(self.prescribers[row[0]])
            self.year.append(int(row[1]))
            self.drug.append(self.drugs[row[3]])
            self.metrics.extend(map(float, row[4:9]))


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
    for lineno, (npi, label_text) in csv_records(path, [LABELS_HEADER]):
        if label_text not in ("0", "1"):
            raise ParseError(f"{path}: line {lineno}: label must be 0 or 1, got {label_text!r}")
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
