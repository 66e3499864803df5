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
class ShareTable:
    """Per (prescriber, year) drug shares for all five channels."""

    drugs: "object"  # Vocabulary; duck-typed to avoid an import cycle in type checks
    groups: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    years_by_prescriber: dict[int, tuple[int, ...]]
    n_prescribers: int


def compute_shares(claims: ClaimsTable) -> ShareTable:
    """Group claims by (prescriber, year) and normalize each channel to shares."""
    raw: dict[tuple[int, int], list[int]] = {}
    for pos in range(claims.n_records):
        key = (int(claims.npi_idx[pos]), int(claims.year[pos]))
        raw.setdefault(key, []).append(pos)
    groups: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    years: dict[int, set[int]] = {}
    for key, positions in raw.items():
        rows = np.asarray(positions, dtype=np.int64)
        drug_idx = claims.drug_idx[rows]
        order = np.argsort(drug_idx, kind="stable")
        drug_idx = drug_idx[order]
        totals = claims.metrics[rows][order]
        channel_sums = totals.sum(axis=0)
        shares = np.zeros_like(totals)
        nonzero = channel_sums > 0
        shares[:, nonzero] = totals[:, nonzero] / channel_sums[nonzero]
        groups[key] = (drug_idx, shares)
        years.setdefault(key[0], set()).add(key[1])
    return ShareTable(
        drugs=claims.drugs,
        groups=groups,
        years_by_prescriber={i: tuple(sorted(ts)) for i, ts in years.items()},
        n_prescribers=claims.prescribers.size,
    )


def _gather_shares(group: tuple[np.ndarray, np.ndarray], wanted: np.ndarray) -> np.ndarray:
    """Share rows for the wanted drug indices; absent drugs give zero rows."""
    drug_idx, shares = group
    out = np.zeros((wanted.size, shares.shape[1]))
    if drug_idx.size == 0:
        return out
    pos = np.searchsorted(drug_idx, wanted)
    pos_clipped = np.minimum(pos, drug_idx.size - 1)
    hit = drug_idx[pos_clipped] == wanted
    out[hit] = shares[pos_clipped[hit]]
    return out


def aggregate_over_years(values: np.ndarray) -> np.ndarray:
    """Stack (min, mean, max) along a new trailing axis; needs >= 1 year."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] < 1:
        raise ValidationError("aggregation needs at least one observed year")
    return np.stack(
        [values.min(axis=0), values.mean(axis=0), values.max(axis=0)], axis=-1
    )


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

    @property
    def width(self) -> int:
        return int(self.values.shape[1])


def feature_columns(n_rules: int, channels: str = "full") -> tuple[str, ...]:
    if channels == "full":
        return tuple(
            f"rule{j + 1}_{ch}_{stat}"
            for j in range(n_rules)
            for ch in CHANNELS
            for stat in STATS
        )
    if channels == "mean-claims-only":
        return tuple(f"rule{j + 1}_clm_mean" for j in range(n_rules))
    raise ValidationError(f"unknown channels mode {channels!r}")


def build_feature_matrix(
    claims: ClaimsTable, ruleset: RuleSet, channels: str = "full"
) -> FeatureMatrix:
    """Rule-contrast features for every prescriber in the claims table.

    channels="full" gives the 15R layout; "mean-claims-only" keeps one column
    per rule (mean over years of the claim-count contrast) for width R.
    """
    if ruleset.vocab != claims.drugs:
        raise ValidationError("rule set is bound to a different drug vocabulary")
    columns = feature_columns(len(ruleset), channels)
    shares = compute_shares(claims)
    n = claims.prescribers.size
    r = len(ruleset)
    unary = ruleset.q_idx < 0
    values = np.zeros((n, len(columns)))
    for i in range(n):
        observed = shares.years_by_prescriber.get(i)
        if observed is None:
            continue  # cannot happen for vocabularies built from the same table
        per_year = np.empty((len(observed), r, len(CHANNELS)))
        for row, year in enumerate(observed):
            group = shares.groups[(i, year)]
            contrast = _gather_shares(group, ruleset.p_idx)
            q_shares = _gather_shares(group, np.where(unary, 0, ruleset.q_idx))
            q_shares[unary] = 0.0
            per_year[row] = contrast - q_shares
        if channels == "full":
            stats = aggregate_over_years(per_year)  # (r, 5, 3)
            values[i] = stats.reshape(-1)
        else:
            values[i] = per_year[:, :, 0].mean(axis=0)
    return FeatureMatrix(values=values, columns=columns, npis=claims.prescribers.names)


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
                rows.append(np.array([float(v) for v in parts[1:]]))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: malformed feature value") from None
    values = np.vstack(rows) if rows else np.empty((0, len(columns)))
    return FeatureMatrix(values=values, columns=columns, npis=tuple(npis))
