"""Ranking metrics, PR-curve export, and the rule-group ablation protocol.

PR-AUC is computed as average precision with tie blocks sharing the precision
at the block end: every positive in a run of equal scores contributes
(# positives with score >= s) / (# samples with score >= s). This keeps the
estimator free of interpolation and makes the all-ties case return prevalence.
Ranking ties always break on ascending row index.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import multiprocessing
import os
import sys
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from logging.handlers import BufferingHandler

import numpy as np

from . import nn
from .alignment import AlignmentConfig
from .detector import DetectorConfig, hybrid_train, score
from .encoders import PretrainConfig, pretrain
from .errors import ParseError, ShapeError, UndefinedMetricError, ValidationError
from .features import BLOCK, build_feature_matrix
from .ingest import ClaimsTable, LabelTable
from .io_utils import csv_records, fmt_float, write_csv
from .rules import RuleSet

logger = logging.getLogger(__name__)

DEFAULT_KS = (10, 20, 50, 100)

R_AT_K_NOTE = "# r_at_k denominator: all positive labels in the evaluated set"


def _check_eval_input(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.ndim != 1 or s.ndim != 1 or y.shape != s.shape:
        raise ShapeError(f"labels {y.shape} and scores {s.shape} must be equal 1-D")
    if y.size == 0:
        raise ValidationError("metrics are undefined on empty inputs")
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")
    return y.astype(np.int64), s


def _rank_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, ties broken by ascending index."""
    return np.lexsort((np.arange(scores.size), -scores))


def _tie_blocks(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score, positives and rows flagged at the end of each tie block in rank order."""
    order = _rank_order(s)
    sorted_s = s[order]
    ends = np.flatnonzero(np.append(sorted_s[1:] != sorted_s[:-1], True))
    return sorted_s[ends], np.cumsum(y[order])[ends], ends + 1


def pr_auc(labels, scores) -> float:
    """Average precision with block-end tie handling.

    Positives are ranked by descending score; each positive contributes the
    precision taken at the end of its tie block, and the contributions are
    summed exactly (math.fsum) before dividing by the positive count.
    """
    y, s = _check_eval_input(labels, scores)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("pr_auc needs at least one positive label")
    _, tp, flagged = _tie_blocks(y, s)
    block_positives = np.diff(tp, prepend=0)
    return math.fsum(np.repeat(tp / flagged, block_positives)) / n_pos


def recall_at_k(labels, scores, k: int) -> float:
    """Fraction of all positives found in the top k rows by descending score."""
    y, s = _check_eval_input(labels, scores)
    if not 1 <= k <= y.size:
        raise ValidationError(f"k must be in [1, {y.size}], got {k}")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("recall_at_k needs at least one positive label")
    top = _rank_order(s)[:k]
    return int(y[top].sum()) / n_pos


def evaluable_ks(ks: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The ks at which recall can be taken on n evaluated prescribers; none is an error."""
    kept = tuple(k for k in ks if k <= n)
    if not kept:
        raise ValidationError(f"all ks in {ks} exceed the {n} labeled prescribers")
    return kept


def prf_at_threshold(labels, scores, threshold: float) -> dict[str, float]:
    """Precision, recall, and F1 flagging scores strictly above the threshold.

    Division-by-zero conventions: precision is 0 when nothing is flagged,
    recall is 0 when there are no positives, F1 is 0 when both are 0.
    """
    y, s = _check_eval_input(labels, scores)
    flagged = s > threshold
    tp = int((flagged & (y == 1)).sum())
    n_flagged = int(flagged.sum())
    n_pos = int(y.sum())
    precision = tp / n_flagged if n_flagged else 0.0
    recall = tp / n_pos if n_pos else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


@dataclass
class PrCurve:
    """One point per distinct score, flagging everything at or above it."""

    thresholds: np.ndarray
    precisions: np.ndarray
    recalls: np.ndarray

    def __post_init__(self):
        if not (
            self.thresholds.shape == self.precisions.shape == self.recalls.shape
        ) or self.thresholds.ndim != 1:
            raise ShapeError("curve arrays must be equal-length 1-D")
        if np.any(np.diff(self.recalls) < 0):
            raise ValidationError("recall must be non-decreasing along the curve")


def pr_curve(labels, scores) -> PrCurve:
    """Precision/recall at every distinct score threshold, descending."""
    y, s = _check_eval_input(labels, scores)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("pr_curve needs at least one positive label")
    thresholds, tp, flagged = _tie_blocks(y, s)
    return PrCurve(thresholds=thresholds, precisions=tp / flagged, recalls=tp / n_pos)


@dataclass
class EvalResult:
    pr_auc: float
    r_at_k: dict[int, float]
    precision: float
    recall: float
    f1: float


def evaluate_scores(
    labels, scores, ks: tuple[int, ...] = DEFAULT_KS, threshold: float = 0.5
) -> EvalResult:
    """All ranking metrics for one score vector; the labels must hold both classes."""
    if _check_eval_input(labels, scores)[0].all():  # pr_auc and every recall would read 1
        raise UndefinedMetricError("ranking metrics need at least one negative label")
    prf = prf_at_threshold(labels, scores, threshold)
    return EvalResult(
        pr_auc=pr_auc(labels, scores),
        r_at_k={int(k): recall_at_k(labels, scores, int(k)) for k in ks},
        precision=prf["precision"],
        recall=prf["recall"],
        f1=prf["f1"],
    )


@dataclass
class MetricsRow:
    config: str
    seed: int
    result: EvalResult


@dataclass
class AblationReport:
    rows: list[MetricsRow]
    notes: list[str] = field(default_factory=list)
    ks: tuple[int, ...] = DEFAULT_KS


def split_labels(
    labels: LabelTable, eval_fraction: float, seed: int
) -> tuple[LabelTable, LabelTable]:
    """Stratified (train, eval) split of the labeled prescribers.

    Positives and negatives are permuted and split separately so both sides
    keep at least one of each class; requires two of each when splitting.
    """
    if not 0.0 < eval_fraction < 1.0:
        raise ValidationError("eval fraction must lie strictly between 0 and 1")
    rng = nn.make_rng(seed)
    eval_ids: list[int] = []
    for value in (1, 0):
        ids = labels.idx[labels.labels == value]
        if ids.size < 2:
            raise ValidationError(
                "stratified split needs at least two labeled prescribers per class"
            )
        count = int(round(eval_fraction * ids.size))
        count = min(max(count, 1), ids.size - 1)
        eval_ids.extend(int(i) for i in ids[rng.permutation(ids.size)][:count])
    eval_table = labels.restrict(np.array(eval_ids, dtype=np.int64))
    train_table = labels.restrict(labels.idx[~np.isin(labels.idx, eval_ids)])
    return train_table, eval_table


# Droppable rule groups: group -> (configuration name, kind of the group's rules).
# Cost-preference rules are the binary pairs; opioid rules are unary.
ABLATION_GROUPS = {
    "cost_preference": ("minus-cost", "binary"),
    "opioid": ("minus-opioid", "unary"),
}


def configs_for_groups(groups: tuple[str, ...]) -> tuple[str, ...]:
    """Configuration names for a selection of droppable rule groups.

    The one check of a group selection: each group known, none repeated.
    """
    for group in groups:
        if group not in ABLATION_GROUPS:
            raise ValidationError(f"unknown ablation group {group!r}")
    if len(set(groups)) != len(groups):
        raise ValidationError("ablation groups must be distinct")
    return ("full",) + tuple(ABLATION_GROUPS[g][0] for g in groups) + ("lambda0",)


def ablation_subset(
    name: str, ruleset: RuleSet, features: np.ndarray
) -> tuple[RuleSet, np.ndarray] | None:
    """Rule subset of one configuration and its features, or None if no rules remain.

    A subset's features are the kept rules' 15-column blocks of the full-rule
    feature matrix, in rule order, so they are sliced rather than rebuilt.
    """
    dropped = {config: kind for config, kind in ABLATION_GROUPS.values()}.get(name)
    keep = [j for j, rule in enumerate(ruleset.rules) if rule.kind != dropped]
    if not keep:
        return None
    if len(keep) == len(ruleset):
        return ruleset, features
    columns = (BLOCK * np.array(keep)[:, None] + np.arange(BLOCK)).ravel()
    return RuleSet([ruleset.rules[j] for j in keep], ruleset.vocab), features[:, columns]


def _run_configuration(
    sub_rules: RuleSet, features: np.ndarray, name: str, seed: int, train_labels: LabelTable,
    eval_labels: LabelTable, pretrain_cfg: PretrainConfig, align_cfg: AlignmentConfig,
    detector_cfg: DetectorConfig, ks: tuple[int, ...], threshold: float,
) -> tuple[EvalResult, list[logging.LogRecord]]:
    """Pretrain unless the job is lambda0 (lambda = 0), then train, score and evaluate it.

    Returns the result and the clevercatch log records the job produced, held back
    rather than emitted so that the caller can emit them in job order."""
    package_log = logging.getLogger("clevercatch")
    held = BufferingHandler(sys.maxsize)
    saved = package_log.handlers, package_log.propagate
    package_log.handlers, package_log.propagate = [held], False
    try:
        encoders = None
        if name != "lambda0":
            encoders, _ = pretrain(sub_rules, pretrain_cfg, nn.derive_seed(seed, "pretrain"))
        cfg = detector_cfg if encoders is not None else dataclasses.replace(detector_cfg, lam=0.0)
        model, _ = hybrid_train(
            features, train_labels, cfg, nn.derive_seed(seed, "detector"), encoders, align_cfg
        )
        scores = score(model, features).scores
        result = evaluate_scores(eval_labels.labels, scores[eval_labels.idx], ks, threshold)
    finally:
        package_log.handlers, package_log.propagate = saved
    return result, held.buffer


def ablation_run(
    claims: ClaimsTable,
    labels: LabelTable,
    ruleset: RuleSet,
    pretrain_cfg: PretrainConfig | None = None,
    align_cfg: AlignmentConfig | None = None,
    detector_cfg: DetectorConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    ks: tuple[int, ...] = DEFAULT_KS,
    threshold: float = 0.5,
    eval_fraction: float = 0.0,
    groups: tuple[str, ...] = tuple(ABLATION_GROUPS),
) -> AblationReport:
    """Retrain encoders and detector per rule subset and report each configuration's metrics.

    Configurations: full rule set, one minus-configuration per selected group
    (cost-preference pairs, opioid single-drug rules), and lambda = 0
    (alignment off, full features). Every configuration reuses the same
    derived stage seeds per run seed, so differences come from the rules
    alone. The feature matrix is built once for the full rule set and each
    subset slices its rules' blocks from it. A subset that would leave no
    rules is skipped with a note. With eval_fraction > 0 the labeled set is
    split and metrics are computed on the held-out part only; otherwise on
    all labeled prescribers. Evaluated labels of one class fail, and a k above
    the smallest evaluated set is dropped, before any configuration trains.
    Each (seed, configuration) job is one task for spawned workers, one per usable CPU.
    Results are read, and each job's log records emitted, in job order, so the report and
    any error are a serial run's. Once a job fails, the jobs not yet started are cancelled."""
    config_names = configs_for_groups(tuple(groups))
    pretrain_cfg = pretrain_cfg if pretrain_cfg is not None else PretrainConfig()
    align_cfg = align_cfg if align_cfg is not None else AlignmentConfig()
    detector_cfg = detector_cfg if detector_cfg is not None else DetectorConfig()
    if labels.n_labeled == 0:
        raise ValidationError("ablation needs labeled prescribers")
    splits = [
        split_labels(labels, eval_fraction, nn.derive_seed(seed, "split"))
        if eval_fraction > 0.0 else (labels, labels)
        for seed in seeds
    ]
    if any(e.labels.all() or not e.labels.any() for _, e in splits):
        raise UndefinedMetricError("ranking metrics need a positive and a negative evaluated label")
    ks = evaluable_ks(ks, min((e.n_labeled for _, e in splits), default=labels.n_labeled))
    features = build_feature_matrix(claims, ruleset).values
    jobs: list[tuple] = []  # (rule subset, its features, name, seed, train labels, eval labels)
    notes: list[str] = []
    for seed, (train_labels, eval_labels) in zip(seeds, splits):
        for name in config_names:
            subset = ablation_subset(name, ruleset, features)
            if subset is None:
                note = f"{name} seed {seed}: skipped, no rules remain"
                notes.append(note)
                logger.warning(note)
                continue
            jobs.append((*subset, name, int(seed), train_labels, eval_labels))
    # spawn, not fork: a forked worker inherits the parent's BLAS thread pool
    workers = max(1, min(len(jobs), len(os.sched_getaffinity(0))))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [
            pool.submit(_run_configuration, *job, pretrain_cfg, align_cfg, detector_cfg, ks, threshold)
            for job in jobs
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:  # only the jobs that have not started are cancelled
            future.cancel()
        rows: list[MetricsRow] = []
        for (_, _, name, seed, *_), future in zip(jobs, futures):
            result, records = future.result()  # raises the first failing job's error
            for record in records:
                logging.getLogger(record.name).handle(record)
            rows.append(MetricsRow(config=name, seed=seed, result=result))
    return AblationReport(rows=rows, notes=notes, ks=ks)


def write_report_csv(path, rows: list[MetricsRow], ks: tuple[int, ...] = DEFAULT_KS) -> None:
    """Metrics report CSV; each row's drop against its seed's full row is a trailing comment."""
    lines = []
    for row in rows:
        r = row.result
        cells = [row.config, str(row.seed), fmt_float(r.pr_auc)]
        cells += [fmt_float(r.r_at_k[k]) for k in ks]
        cells += [fmt_float(r.precision), fmt_float(r.recall), fmt_float(r.f1)]
        lines.append(",".join(cells))
    full = {row.seed: row.result for row in rows if row.config == "full"}
    for row in (row for row in rows if row.config != "full" and row.seed in full):
        base, r = full[row.seed], row.result
        parts = [f"pr_auc={fmt_float(base.pr_auc - r.pr_auc)}"]
        parts += [f"r@{k}={fmt_float(base.r_at_k[k] - r.r_at_k[k])}" for k in ks]
        lines.append(f"# delta vs full: config={row.config} seed={row.seed} " + " ".join(parts))
    header = ["config", "seed", "pr_auc", *[f"r@{k}" for k in ks], "precision", "recall", "f1"]
    write_csv(path, header, lines, comments=[R_AT_K_NOTE])


def write_pr_curve_csv(path, curve: PrCurve) -> None:
    points = zip(curve.thresholds, curve.precisions, curve.recalls)
    write_csv(path, ["threshold", "precision", "recall"],
              (f"{fmt_float(t)},{fmt_float(p)},{fmt_float(r)}" for t, p, r in points))


SCORES_HEADER = ["npi", "score", "rank"]


def write_scores_csv(path, npis: list[str], scores: np.ndarray, ranks: np.ndarray) -> None:
    rows = zip(npis, scores, ranks)
    write_csv(path, SCORES_HEADER, (f"{npi},{fmt_float(float(s))},{int(rank)}" for npi, s, rank in rows))


def read_scores_csv(path) -> tuple[list[str], np.ndarray]:
    """Read npi,score rows (a trailing rank column is accepted and ignored).

    Returns the npis in file order with their scores.
    """
    npis: list[str] = []
    scores: list[float] = []
    seen: set[str] = set()
    for lineno, row in csv_records(path, [SCORES_HEADER, SCORES_HEADER[:2]]):
        npi = row[0]
        if npi in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate npi {npi!r}")
        seen.add(npi)
        try:
            value = float(row[1])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: score {row[1]!r} is not a number") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}: line {lineno}: score must be finite")
        npis.append(npi)
        scores.append(value)
    if not npis:
        raise ParseError(f"{path}: no score rows")
    return npis, np.array(scores, dtype=np.float64)
