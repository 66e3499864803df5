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

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, ValidationError
from .ingest import CHANNELS, ClaimsTable
from .io_utils import atomic_write_text, fmt_float
from .rules import RuleSet

STATS = ("min", "mean", "max")

BLOCK = len(CHANNELS) * len(STATS)  # 15 coordinates per rule


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

    One pass over the claim rows: each (prescriber, year) cell's channel
    totals are summed in drug order, the rows of drugs the rules name are
    divided into a (cell, drug, channel) share grid, and the per-cell rule
    contrasts are folded into each prescriber's min, mean and max in year
    order. The mean is a sum from zero divided by the count of observed
    years. A claims table holds at most one row per (prescriber, year, drug).
    """
    if ruleset.vocab != claims.drugs:
        raise ValidationError("rule set is bound to a different drug vocabulary")
    n, r = claims.prescribers.size, len(ruleset)
    years, year_rank = np.unique(claims.year, return_inverse=True)
    cell_keys, cell = np.unique(claims.npi_idx * years.size + year_rank, return_inverse=True)
    cell_npi = cell_keys // years.size  # cells ascend by (prescriber, year)
    order = np.lexsort((claims.drug_idx, cell))
    totals = np.zeros((cell_keys.size, len(CHANNELS)))
    np.add.at(totals, cell[order], claims.metrics[order])
    # slot[d] is drug d's column in the share grid; slot[-1] (a unary rule's
    # q index) is an extra column that stays zero
    named = np.unique(np.concatenate([ruleset.p_idx, ruleset.q_idx[ruleset.q_idx >= 0]]))
    slot = np.full(claims.drugs.size + 1, named.size)
    slot[named] = np.arange(named.size)
    rows = np.flatnonzero(np.isin(claims.drug_idx, named))
    denom = totals[cell[rows]]
    shares = np.zeros((cell_keys.size, named.size + 1, len(CHANNELS)))
    shares[cell[rows], slot[claims.drug_idx[rows]]] = np.divide(
        claims.metrics[rows], denom, out=np.zeros_like(denom), where=denom > 0
    )
    contrast = shares[:, slot[ruleset.p_idx]] - shares[:, slot[ruleset.q_idx]]  # (cells, r, 5)
    del shares
    values = np.empty((n, r, len(CHANNELS), len(STATS)))
    lo, total, hi = values[..., 0], values[..., 1], values[..., 2]
    lo.fill(np.inf)
    total.fill(0.0)
    hi.fill(-np.inf)
    np.minimum.at(lo, cell_npi, contrast)
    np.add.at(total, cell_npi, contrast)
    np.maximum.at(hi, cell_npi, contrast)
    n_years = np.bincount(cell_npi, minlength=n)
    total /= np.maximum(n_years, 1)[:, None, None]
    values[n_years == 0] = 0.0  # a prescriber without rows keeps zeros
    return FeatureMatrix(
        values=values.reshape(n, r * BLOCK),
        columns=feature_columns(r),
        npis=claims.prescribers.names,
    )


def write_features_csv(features: FeatureMatrix, path) -> None:
    lines = ["npi," + ",".join(features.columns)]
    for npi, row in zip(features.npis, features.values):
        lines.append(npi + "," + ",".join(fmt_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_features_csv(path) -> FeatureMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        fields = header.split(",")
        if not fields or fields[0] != "npi":
            raise ParseError(f"{path}: line 1: expected an npi,<feature...> header")
        columns = tuple(fields[1:])
        npis: list[str] = []
        rows: list[np.ndarray] = []
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns) + 1:
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(columns) + 1} fields, got {len(parts)}"
                )
            npis.append(parts[0])
            try:
                row = np.array([float(v) for v in parts[1:]])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: malformed feature value") from None
            if not np.isfinite(row).all():
                raise ParseError(f"{path}: line {lineno}: feature values must be finite")
            rows.append(row)
    values = np.vstack(rows) if rows else np.empty((0, len(columns)))
    return FeatureMatrix(values=values, columns=columns, npis=tuple(npis))
