"""Fraud detector trained on a hybrid supervised + alignment objective.

The detector is an MLP with a sigmoid head over rule-contrast features. Each
training batch contributes a supervised binary cross-entropy term averaged
over its labeled members plus lambda times a binary cross-entropy term against
transport-calibrated pseudo-labels averaged over the whole batch. Encoders are
frozen during detector training; alignment.Aligner recomputes pseudo-labels
per batch per epoch so calibration keeps evolving. With lambda = 0, alignment
is skipped entirely and training reduces exactly to the supervised-only loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .alignment import AlignmentConfig, Aligner
from .encoders import EncoderModel
from .errors import NumericError, ParseError, ShapeError, ValidationError
from .ingest import LabelTable
from .io_utils import atomic_write_text, dumps_canonical, fmt_float, json_number, read_json_document, write_csv

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
        if min(self.epochs, self.batch_size, *self.hidden) < 1:
            raise ValidationError("epochs, batch size and hidden widths must be positive")
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


def hybrid_train(
    features: np.ndarray,
    labels: LabelTable,
    cfg: DetectorConfig,
    seed: int,
    encoders: EncoderModel | None = None,
    align_cfg: AlignmentConfig | None = None,
) -> tuple[DetectorModel, list[TrainEpochStats]]:
    """Train the detector on labeled BCE plus lambda-weighted pseudo-label BCE.

    The alignment term runs over every batch row (labeled or not); the
    supervised term averages over a batch's labeled members only, so the two
    objective normalizations (1/|labeled| and 1/batch) are preserved. With
    lambda = 0 the encoders and alignment settings are ignored. The encoders
    are frozen and the permutation does not involve the detector, so every
    row is encoded once per run and each epoch aligns all its batches first,
    same-size ones in one stacked Sinkhorn solve: bitwise as if each were encoded
    and aligned before its step, where nn.mlp_forward's rows do not depend on the batch.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a non-empty 2-D array")
    if labels.n_labeled == 0:
        raise ValidationError("training needs at least one labeled prescriber")
    n = features.shape[0]
    y, mask = labels.to_dense(n)
    aligner = None
    if cfg.lam > 0.0:
        if encoders is None:
            raise ValidationError("lambda > 0 needs encoders")
        aligner = Aligner(encoders, align_cfg, features)
    rng = nn.make_rng(seed)
    mlp = init_detector(features.shape[1], cfg.hidden, rng)
    opt = nn.adam(cfg.learning_rate)
    names = mlp.parameter_names()
    history: list[TrainEpochStats] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batches = [order[start : start + cfg.batch_size] for start in range(0, n, cfg.batch_size)]
        aligned = aligner.label(batches) if aligner else [None] * len(batches)
        sup_sum = 0.0
        sup_count = 0
        align_sum = 0.0
        for idx, costs_and_targets in zip(batches, aligned):
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
            if costs_and_targets is not None:
                align_loss_value, d_align = bce_with_grad(scores, costs_and_targets[1])
                d_scores += cfg.lam * d_align
                align_sum += align_loss_value * idx.size
            grads, _ = nn.mlp_backward(mlp, cache, d_scores[:, None])
            nn.optimizer_step(opt, mlp.parameters(), grads, names)
        epoch_sup = sup_sum / sup_count if sup_count else float("nan")
        epoch_align = align_sum / n if aligner else 0.0  # every row is aligned once per epoch
        if not (np.isfinite(epoch_sup) or sup_count == 0) or not np.isfinite(epoch_align):
            raise NumericError(f"detector training diverged at epoch {epoch}")
        history.append(TrainEpochStats(epoch, float(epoch_sup), float(epoch_align)))
    fingerprint = ""
    if aligner is not None:
        aligner.warn_unconverged("hybrid_train")
        fingerprint = encoders.file_sha256
    return DetectorModel(mlp, cfg.lam, int(seed), fingerprint), history


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
    align_cfg: AlignmentConfig | None = None,
    threshold: float = 0.5,
) -> PseudoLabelReport:
    """Detector-free classifier from one alignment pass over the full dataset.

    All rows are labeled as one batch, so they are solved as one transport
    problem. Calibration uses the batch statistics of all samples at once and
    is not updated afterwards; predictions flag pseudo-labels strictly above
    the threshold.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a non-empty 2-D array")
    aligner = Aligner(encoders, align_cfg, features)
    [(costs, labels)] = aligner.label([np.arange(features.shape[0])])
    aligner.warn_unconverged("pseudo_label_classifier")
    return PseudoLabelReport(costs=costs, labels=labels, predictions=labels > threshold)


PSEUDO_LABELS_HEADER = ["npi", "cost", "pseudo_label"]


def write_pseudo_labels_csv(path, npis, report: PseudoLabelReport) -> None:
    """One row per prescriber: calibrated transport cost and pseudo-label."""
    npis = tuple(npis)
    if len(npis) != report.labels.size:
        raise ShapeError(
            f"{len(npis)} prescriber ids for {report.labels.size} pseudo-labels"
        )
    rows = zip(npis, report.costs, report.labels)
    write_csv(path, PSEUDO_LABELS_HEADER,
              (f"{npi},{fmt_float(cost)},{fmt_float(label)}" for npi, cost, label in rows))


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
    keys = ["format_version", "input_width", "weights", "lambda", "seed", "encoder_fingerprint"]
    doc = read_json_document(path, DETECTOR_FORMAT_VERSION, keys, "detector model")
    input_width, seed = json_number(path, doc, "input_width", True), json_number(path, doc, "seed", True)
    lam = float(json_number(path, doc, "lambda", False))
    mlp = nn.mlp_from_json(doc["weights"], str(path))
    if mlp.input_dim != input_width:
        raise ParseError(f"{path}: stored input width does not match the weights")
    head = mlp.layers[-1]
    if mlp.output_dim != 1 or head.activation != "sigmoid":
        raise ParseError(
            f"{path}: the detector must end in one sigmoid unit, got {mlp.output_dim} "
            f"{head.activation} output(s)"
        )
    return DetectorModel(mlp=mlp, lam=lam, seed=seed, encoder_fingerprint=str(doc["encoder_fingerprint"]))
