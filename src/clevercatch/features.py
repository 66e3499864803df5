"""Rule-contrast feature engineering.

For prescriber i, year t, channel m, a drug's share is its total divided by
the prescriber-year channel total (zero when the total is zero). A binary
rule (p, q) contributes the contrast share(p) - share(q); a unary rule
contributes share(p). Contrasts are aggregated over the prescriber's observed
years with min / mean / max, giving a 15R-dimensional vector per prescriber:
R rule blocks, each (channel: clm, fill30, days, cost, bene) x (stat: min,
mean, max). Every coordinate lies in [-1, 1].
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, ValidationError
from .ingest import CHANNELS, ClaimsTable
from .io_utils import FLOAT_FMT, open_text, write_csv
from .rules import RuleSet

logger = logging.getLogger(__name__)

STATS = ("min", "mean", "max")

BLOCK = len(CHANNELS) * len(STATS)  # 15 coordinates per rule

PRESCRIBER_BLOCK = 1024  # prescribers per feature pass; its temporaries grow with their rows


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (N, width) float64
    columns: tuple[str, ...]
    npis: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ShapeError("feature values must be 2-D")
        if self.values.shape != (len(self.npis), len(self.columns)):
            raise ShapeError(
                f"feature shape {self.values.shape} does not match "
                f"{len(self.npis)} npis x {len(self.columns)} columns"
            )


def feature_columns(n_rules: int) -> tuple[str, ...]:
    return tuple(
        f"rule{j + 1}_{ch}_{stat}" for j in range(n_rules) for ch in CHANNELS for stat in STATS
    )


def build_feature_matrix(claims: ClaimsTable, ruleset: RuleSet) -> FeatureMatrix:
    """Rule-contrast features for every prescriber in the claims table.

    One pass per block of PRESCRIBER_BLOCK prescribers over their claim rows:
    each (prescriber, year) cell's channel totals are summed in drug order,
    the rows of drugs the rules name are divided into a (cell, drug, channel)
    share grid, and the per-cell rule contrasts are folded into each
    prescriber's min, mean and max in year order. The mean is a sum from zero
    divided by the count of observed years. A cell never spans prescribers, so
    the blocks give the values of a single pass. Rows that repeat a
    (prescriber, year, drug) are summed in file order into the first of them,
    with one warning for the whole table.
    """
    if ruleset.vocab != claims.drugs:
        raise ValidationError("rule set is bound to a different drug vocabulary")
    n, r = claims.prescribers.size, len(ruleset)
    # slot[d] is drug d's column in the share grid; slot[-1] (a unary rule's
    # q index) is an extra column that stays zero
    named = np.unique(np.concatenate([ruleset.p_idx, ruleset.q_idx[ruleset.q_idx >= 0]]))
    slot = np.full(claims.drugs.size + 1, named.size)
    slot[named] = np.arange(named.size)
    values = np.empty((n, r, len(CHANNELS), len(STATS)))
    by_npi = np.argsort(claims.npi_idx, kind="stable")  # each block's rows in file order
    bounds = np.concatenate([[0], np.cumsum(np.bincount(claims.npi_idx, minlength=n))])
    n_repeats = 0
    for first in range(0, n, PRESCRIBER_BLOCK):
        last = min(first + PRESCRIBER_BLOCK, n)
        rows = by_npi[bounds[first] : bounds[last]]
        n_repeats += _fold_block(claims, rows, first, slot, ruleset, values[first:last])
    if n_repeats:
        logger.warning("summed %d duplicate (npi, year, drug) rows", n_repeats)
    return FeatureMatrix(
        values=values.reshape(n, r * BLOCK),
        columns=feature_columns(r),
        npis=claims.prescribers.names,
    )


def _fold_block(claims: ClaimsTable, rows, first: int, slot, ruleset: RuleSet, values) -> int:
    """Fill values, shape (prescribers, R, channel, stat), for prescribers first, first + 1, ...
    from rows, the indices of their claim rows in file order; return how many rows repeat an
    earlier row's (prescriber, year, drug) and were summed into it."""
    years, year_rank = np.unique(claims.year[rows], return_inverse=True)
    cell_keys, cell = np.unique((claims.npi_idx[rows] - first) * years.size + year_rank, return_inverse=True)
    cell_npi = cell_keys // years.size  # cells ascend by (prescriber, year)
    drug = claims.drug_idx[rows]
    order = np.lexsort((drug, cell))  # stable: a cell's rows of one drug stay in file order
    cell, drug, metrics = cell[order], drug[order], claims.metrics[rows[order]]
    repeat = np.flatnonzero((cell[1:] == cell[:-1]) & (drug[1:] == drug[:-1])) + 1
    if repeat.size:
        head = np.ones(cell.size, dtype=bool)
        head[repeat] = False
        # unbuffered and in file order, so each cell sums left to right from its first row
        np.add.at(metrics, np.flatnonzero(head)[np.cumsum(head)[repeat] - 1], metrics[repeat])
        cell, drug, metrics = cell[head], drug[head], metrics[head]
    totals = np.zeros((cell_keys.size, len(CHANNELS)))
    np.add.at(totals, cell, metrics)
    keep = np.flatnonzero(slot[drug] < slot[-1])
    cell, drug, metrics = cell[keep], drug[keep], metrics[keep]  # rows of named drugs
    denom = totals[cell]
    shares = np.zeros((cell_keys.size, slot[-1] + 1, len(CHANNELS)))
    shares[cell, slot[drug]] = np.divide(metrics, denom, out=np.zeros_like(denom), where=denom > 0)
    contrast = shares[:, slot[ruleset.p_idx]] - shares[:, slot[ruleset.q_idx]]  # (cells, r, 5)
    del shares
    lo, total, hi = values[..., 0], values[..., 1], values[..., 2]
    lo.fill(np.inf)
    total.fill(0.0)
    hi.fill(-np.inf)
    np.minimum.at(lo, cell_npi, contrast)
    np.add.at(total, cell_npi, contrast)
    np.maximum.at(hi, cell_npi, contrast)
    n_years = np.bincount(cell_npi, minlength=values.shape[0])
    total /= np.maximum(n_years, 1)[:, None, None]
    values[n_years == 0] = 0.0  # a prescriber without rows keeps zeros
    return repeat.size


def write_features_csv(features: FeatureMatrix, path) -> None:
    row_format = "%s," + ",".join([FLOAT_FMT] * len(features.columns))
    rows = zip(features.npis, features.values)
    write_csv(path, ["npi", *features.columns], (row_format % (npi, *row.tolist()) for npi, row in rows))


def read_features_csv(path) -> FeatureMatrix:
    """Read features.csv through numpy's C reader, or through the row reader when it refuses.

    The row reader takes the file when numpy cannot read a row, a value is not
    finite or an npi repeats; it names the first faulty line.
    """
    with open_text(path) as handle:
        fields = handle.readline().rstrip("\n").split(",")
        if fields[0] != "npi":
            raise ParseError(f"{path}: line 1: expected an npi,<feature...> header")
        columns = tuple(fields[1:])
        record = np.dtype([("npi", object), ("values", np.float64, (len(columns),))])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file without rows
                table = np.loadtxt(handle, record, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            table = None
        npis = () if table is None else tuple(table["npi"].tolist())
        if table is None or len(set(npis)) < len(npis) or not np.isfinite(table["values"]).all():
            handle.seek(0)
            handle.readline()
            npis, values = _read_feature_rows(path, handle, len(columns))
        else:
            values = table["values"]  # a view into the record array: no second copy
    if not npis:
        raise ParseError(f"{path}: no feature rows")
    return FeatureMatrix(values=values, columns=columns, npis=npis)


def _read_feature_rows(path, lines, width: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The npis and values of the feature rows, raising at the first faulty line."""
    npis: dict[str, None] = {}
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width + 1:
            raise ParseError(f"{path}: line {lineno}: expected {width + 1} fields, got {len(parts)}")
        if parts[0] in npis:
            raise ParseError(f"{path}: line {lineno}: duplicate npi {parts[0]!r}")
        npis[parts[0]] = None
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: malformed feature value") from None
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"{path}: line {lineno}: feature values must be finite")
    return tuple(npis), np.array(rows, dtype=np.float64)
