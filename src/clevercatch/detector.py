"""Fraud detector trained on a hybrid supervised + alignment objective.

The detector is an MLP with a sigmoid head over rule-contrast features. Each
training batch contributes a supervised binary cross-entropy term averaged
over its labeled members plus lambda times a binary cross-entropy term against
transport-calibrated pseudo-labels averaged over the whole batch. Encoders are
frozen during detector training; pseudo-labels are recomputed per batch per
epoch so calibration keeps evolving. With lambda = 0, the alignment pathway is
skipped entirely and training reduces exactly to the supervised-only loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .alignment import (
    AlignmentConfig,
    CalibrationState,
    align_batch,
    pseudo_labels,
    rule_marginal,
    update_calibration,
)
from .encoders import EncoderModel, rule_encode, sample_encode
from .errors import (
    FingerprintMismatch,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .ingest import LabelTable
from .io_utils import atomic_write_text, dumps_canonical, fmt_float
from .rules import RuleSet

SCORE_CLAMP = 1e-7

DETECTOR_FORMAT_VERSION = 2


@dataclass
class DetectorConfig:
    hidden: tuple[int, ...] = (64, 32)
    lam: float = 0.5
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError("lambda must be non-negative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValidationError("epochs must be >= 0 and batch size positive")
        if self.learning_rate <= 0:
            raise ValidationError("learning rate must be positive")


def bce_with_grad(scores: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the scores.

    Scores are clamped to [1e-7, 1 - 1e-7]; clamped coordinates get zero
    gradient, matching the flat region of the clamp.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if scores.shape != targets.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} and targets {targets.shape} must be equal 1-D")
    if scores.size == 0:
        raise ValidationError("cross-entropy is undefined on an empty batch")
    clamped = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    loss = float(-(targets * np.log(clamped) + (1.0 - targets) * np.log1p(-clamped)).mean())
    grad = (-targets / clamped + (1.0 - targets) / (1.0 - clamped)) / scores.size
    grad[clamped != scores] = 0.0
    return loss, grad


def init_detector(input_dim: int, hidden: tuple[int, ...], rng: np.random.Generator) -> nn.Mlp:
    dims = [input_dim, *hidden, 1]
    activations = ["relu"] * len(hidden) + ["sigmoid"]
    return nn.init_mlp(dims, activations, rng)


@dataclass
class DetectorModel:
    mlp: nn.Mlp
    lam: float
    seed: int
    encoder_fingerprint: str = ""

    @property
    def input_dim(self) -> int:
        return self.mlp.input_dim


@dataclass
class TrainEpochStats:
    epoch: int
    supervised_loss: float
    alignment_loss: float


def _check_binding(features: np.ndarray, encoders: EncoderModel, ruleset: RuleSet) -> None:
    if encoders.feature_dim != features.shape[1]:
        raise ShapeError(
            f"feature width {features.shape[1]} does not match encoder width "
            f"{encoders.feature_dim}"
        )
    if ruleset.vocab != encoders.drugs:
        raise FingerprintMismatch("rule set is bound to a different drug list than the encoders")
    fp = ruleset.fingerprint()
    if fp != encoders.ruleset_fingerprint:
        raise FingerprintMismatch(
            f"rule set fingerprint {fp} does not match encoder fingerprint "
            f"{encoders.ruleset_fingerprint}"
        )


def hybrid_train(
    features: np.ndarray,
    labels: LabelTable,
    cfg: DetectorConfig,
    seed: int,
    encoders: EncoderModel | None = None,
    ruleset: RuleSet | None = None,
    align_cfg: AlignmentConfig | None = None,
) -> tuple[DetectorModel, list[TrainEpochStats]]:
    """Train the detector on labeled BCE plus lambda-weighted pseudo-label BCE.

    The alignment term runs over every batch row (labeled or not); the
    supervised term averages over a batch's labeled members only, so the two
    objective normalizations (1/|labeled| and 1/batch) are preserved. With
    lambda = 0 the encoders and alignment settings are ignored.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a non-empty 2-D array")
    if labels.n_labeled == 0:
        raise ValidationError("training needs at least one labeled prescriber")
    n = features.shape[0]
    y, mask = labels.to_dense(n)
    use_alignment = cfg.lam > 0.0
    encoder_fingerprint = ""
    if use_alignment:
        if encoders is None or ruleset is None:
            raise ValidationError("lambda > 0 needs encoders and the rule set they bind to")
        align_cfg = align_cfg if align_cfg is not None else AlignmentConfig()
        _check_binding(features, encoders, ruleset)
        rule_embeds = rule_encode(encoders.re, ruleset)
        col_marginal = rule_marginal(
            ruleset.weights, align_cfg.weighted_marginals, align_cfg.weight_floor
        )
        calibration = CalibrationState(momentum=align_cfg.momentum)
        encoder_fingerprint = encoders.file_sha256
    rng = nn.make_rng(seed)
    mlp = init_detector(features.shape[1], cfg.hidden, rng)
    opt = nn.adam(cfg.learning_rate)
    names = mlp.parameter_names()
    history: list[TrainEpochStats] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sup_sum = 0.0
        sup_count = 0
        align_sum = 0.0
        align_count = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = features[idx]
            out, cache = nn.mlp_forward(mlp, batch)
            scores = out[:, 0]
            d_scores = np.zeros_like(scores)
            labeled = mask[idx]
            if labeled.any():
                sup_loss, d_sup = bce_with_grad(scores[labeled], y[idx][labeled])
                d_scores[labeled] = d_sup
                sup_sum += sup_loss * int(labeled.sum())
                sup_count += int(labeled.sum())
            if use_alignment:
                embeds = sample_encode(encoders.se, batch)
                costs, _, _ = align_batch(embeds, rule_embeds, align_cfg, col_marginal)
                update_calibration(calibration, costs)
                targets = pseudo_labels(costs, calibration, align_cfg.tau, align_cfg.eps)
                align_loss_value, d_align = bce_with_grad(scores, targets)
                d_scores += cfg.lam * d_align
                align_sum += align_loss_value * idx.size
                align_count += idx.size
            grads, _ = nn.mlp_backward(mlp, cache, d_scores[:, None])
            nn.optimizer_step(opt, mlp.parameters(), grads, names)
        epoch_sup = sup_sum / sup_count if sup_count else float("nan")
        epoch_align = align_sum / align_count if align_count else 0.0
        if not (np.isfinite(epoch_sup) or sup_count == 0) or not np.isfinite(epoch_align):
            raise NumericError(f"detector training diverged at epoch {epoch}")
        history.append(TrainEpochStats(epoch, float(epoch_sup), float(epoch_align)))
    model = DetectorModel(
        mlp=mlp, lam=cfg.lam, seed=int(seed), encoder_fingerprint=encoder_fingerprint
    )
    return model, history


@dataclass
class ScoreReport:
    scores: np.ndarray  # (N,) in (0, 1)
    ranks: np.ndarray  # (N,) permutation of 1..N, rank 1 = highest score
    order: np.ndarray  # (N,) row indices sorted by descending score, ties by index


def score(model: DetectorModel, features: np.ndarray) -> ScoreReport:
    """Score every row and rank descending; ties break on ascending row index."""
    features = np.asarray(features, dtype=np.float64)
    out, _ = nn.mlp_forward(model.mlp, features)
    scores = out[:, 0]
    n = scores.size
    order = np.lexsort((np.arange(n), -scores))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return ScoreReport(scores=scores, ranks=ranks, order=order)


@dataclass
class PseudoLabelReport:
    costs: np.ndarray
    labels: np.ndarray  # calibrated pseudo-labels in (0, 1)
    predictions: np.ndarray  # labels > threshold, strict


def pseudo_label_classifier(
    features: np.ndarray,
    encoders: EncoderModel,
    ruleset: RuleSet,
    align_cfg: AlignmentConfig | None = None,
    threshold: float = 0.5,
) -> PseudoLabelReport:
    """Detector-free classifier from one alignment pass over the full dataset.

    Calibration uses the batch statistics of all samples at once and is not
    updated afterwards; predictions flag pseudo-labels strictly above the
    threshold.
    """
    align_cfg = align_cfg if align_cfg is not None else AlignmentConfig()
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a non-empty 2-D array")
    _check_binding(features, encoders, ruleset)
    rule_embeds = rule_encode(encoders.re, ruleset)
    col_marginal = rule_marginal(
        ruleset.weights, align_cfg.weighted_marginals, align_cfg.weight_floor
    )
    embeds = sample_encode(encoders.se, features)
    costs, _, _ = align_batch(embeds, rule_embeds, align_cfg, col_marginal)
    state = CalibrationState(momentum=align_cfg.momentum)
    update_calibration(state, costs)
    labels = pseudo_labels(costs, state, align_cfg.tau, align_cfg.eps)
    return PseudoLabelReport(costs=costs, labels=labels, predictions=labels > threshold)


PSEUDO_LABELS_HEADER = ["npi", "cost", "pseudo_label"]


def write_pseudo_labels_csv(path, npis, report: PseudoLabelReport) -> None:
    """One row per prescriber: calibrated transport cost and pseudo-label."""
    npis = tuple(npis)
    if len(npis) != report.labels.size:
        raise ShapeError(
            f"{len(npis)} prescriber ids for {report.labels.size} pseudo-labels"
        )
    lines = [",".join(PSEUDO_LABELS_HEADER)]
    for npi, cost, label in zip(npis, report.costs, report.labels):
        lines.append(f"{npi},{fmt_float(cost)},{fmt_float(label)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_detector(path, model: DetectorModel) -> None:
    """Write the detector as a single JSON document with fixed key order."""
    doc = {
        "format_version": DETECTOR_FORMAT_VERSION,
        "input_width": model.input_dim,
        "weights": nn.mlp_to_json(model.mlp),
        "lambda": model.lam,
        "seed": model.seed,
        "encoder_fingerprint": model.encoder_fingerprint,
    }
    atomic_write_text(path, dumps_canonical(doc) + "\n")


def load_detector(path) -> DetectorModel:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if doc.get("format_version") != DETECTOR_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {doc.get('format_version')!r}")
    expected = ["format_version", "input_width", "weights", "lambda", "seed", "encoder_fingerprint"]
    if list(doc.keys()) != expected:
        raise ParseError(f"{path}: expected detector model keys {expected}")
    mlp = nn.mlp_from_json(doc["weights"], str(path))
    if mlp.input_dim != int(doc["input_width"]):
        raise ParseError(f"{path}: stored input width does not match the weights")
    head = mlp.layers[-1]
    if mlp.output_dim != 1 or head.activation != "sigmoid":
        raise ParseError(
            f"{path}: the detector must end in one sigmoid unit, got {mlp.output_dim} "
            f"{head.activation} output(s)"
        )
    return DetectorModel(
        mlp=mlp,
        lam=float(doc["lambda"]),
        seed=int(doc["seed"]),
        encoder_fingerprint=str(doc["encoder_fingerprint"]),
    )
