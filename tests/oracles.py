"""Reference implementations that the tests check the library against.

None of these run in the pipeline: finite-difference gradient checks, the
scalar triplet loss, per-prescriber-year rule contrasts, and the plain
supervised trainer that hybrid_train must reproduce bitwise at lambda = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from clevercatch import nn
from clevercatch.detector import (
    DetectorConfig,
    DetectorModel,
    TrainEpochStats,
    bce_with_grad,
    init_detector,
)
from clevercatch.errors import ShapeError, ValidationError
from clevercatch.features import ShareTable, _gather_shares
from clevercatch.ingest import CHANNELS, LabelTable
from clevercatch.nn import make_rng
from clevercatch.rules import Rule


@dataclass
class GradCheckReport:
    max_rel_err: float
    n_coords: int
    passed: bool


def grad_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta: np.ndarray,
    tolerance: float = 1e-5,
    step: float = 1e-6,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare an analytic gradient against central finite differences.

    loss_and_grad maps a flat float64 vector to (loss, gradient). Differences
    are normalized by the max-norm over both gradients so near-zero
    coordinates do not divide by noise. All coordinates are checked unless
    theta has more than 10,000 entries, in which case a random subset of at
    least 100 is sampled.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    _, analytic = loss_and_grad(theta)
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if analytic.shape != theta.shape:
        raise ShapeError(
            f"analytic gradient has {analytic.size} entries for {theta.size} parameters"
        )
    n = theta.size
    coords = np.arange(n)
    if n > 10_000:
        k = max(100, max_coords or 0)
        gen = rng if rng is not None else make_rng(0)
        coords = np.sort(gen.choice(n, size=min(k, n), replace=False))
    elif max_coords is not None and max_coords < n:
        gen = rng if rng is not None else make_rng(0)
        coords = np.sort(gen.choice(n, size=max(1, max_coords), replace=False))
    numeric = np.empty(coords.size)
    for j, idx in enumerate(coords):
        bumped = theta.copy()
        bumped[idx] = theta[idx] + step
        loss_plus, _ = loss_and_grad(bumped)
        bumped[idx] = theta[idx] - step
        loss_minus, _ = loss_and_grad(bumped)
        numeric[j] = (loss_plus - loss_minus) / (2.0 * step)
    scale = max(np.abs(analytic[coords]).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
    max_rel_err = float(np.abs(analytic[coords] - numeric).max(initial=0.0) / scale)
    return GradCheckReport(max_rel_err=max_rel_err, n_coords=int(coords.size), passed=max_rel_err < tolerance)


def flatten_arrays(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    shapes = [a.shape for a in arrays]
    if not arrays:
        return np.empty(0), []
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays]), shapes


def unflatten_arrays(vec: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    vec = np.asarray(vec, dtype=np.float64).ravel()
    sizes = [int(np.prod(shape)) if shape else 1 for shape in shapes]
    if sum(sizes) != vec.size:
        raise ShapeError(f"vector has {vec.size} entries but shapes need {sum(sizes)}")
    out = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(vec[offset : offset + size].reshape(shape))
        offset += size
    return out


def triplet_loss(
    e_rule: np.ndarray,
    e_pos: np.ndarray,
    e_neg: np.ndarray,
    weight: float,
    margin: float,
) -> float:
    """Weighted hinge on squared distances: w * max(0, d+^2 - d-^2 + margin)."""
    e_rule = np.asarray(e_rule, dtype=np.float64).ravel()
    e_pos = np.asarray(e_pos, dtype=np.float64).ravel()
    e_neg = np.asarray(e_neg, dtype=np.float64).ravel()
    if not (e_rule.shape == e_pos.shape == e_neg.shape):
        raise ShapeError("triplet embeddings must share one latent dimension")
    if not 0.0 <= weight <= 1.0:
        raise ValidationError(f"triplet weight must lie in [0, 1], got {weight}")
    if margin < 0:
        raise ValidationError("margin must be non-negative")
    d_pos = float(((e_pos - e_rule) ** 2).sum())
    d_neg = float(((e_neg - e_rule) ** 2).sum())
    return weight * max(0.0, d_pos - d_neg + margin)


def rule_contrast(shares: ShareTable, rule: Rule, prescriber: int, year: int) -> np.ndarray:
    """Five-channel contrast for one rule at one prescriber-year."""
    p = shares.drugs.index(rule.p)
    group = shares.groups.get((prescriber, year))
    if group is None:
        return np.zeros(len(CHANNELS))
    contrast = _gather_shares(group, np.array([p], dtype=np.int64))[0].copy()
    if rule.q is not None:
        q = shares.drugs.index(rule.q)
        contrast -= _gather_shares(group, np.array([q], dtype=np.int64))[0]
    return contrast


def supervised_train(
    features: np.ndarray, labels: LabelTable, cfg: DetectorConfig, seed: int
) -> tuple[DetectorModel, list[TrainEpochStats]]:
    """Plain supervised trainer: same batch schedule, no alignment term.

    Kept as an independent loop so the lambda = 0 reduction of hybrid_train
    can be checked bitwise against it.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ShapeError("features must be a non-empty 2-D array")
    if labels.n_labeled == 0:
        raise ValidationError("training needs at least one labeled prescriber")
    n = features.shape[0]
    y, mask = labels.to_dense(n)
    rng = nn.make_rng(seed)
    mlp = init_detector(features.shape[1], cfg.hidden, rng)
    opt = nn.adam(cfg.learning_rate)
    names = mlp.parameter_names()
    history: list[TrainEpochStats] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sup_sum = 0.0
        sup_count = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out, cache = nn.mlp_forward(mlp, features[idx])
            scores = out[:, 0]
            d_scores = np.zeros_like(scores)
            labeled = mask[idx]
            if labeled.any():
                sup_loss, d_sup = bce_with_grad(scores[labeled], y[idx][labeled])
                d_scores[labeled] = d_sup
                sup_sum += sup_loss * int(labeled.sum())
                sup_count += int(labeled.sum())
            grads, _ = nn.mlp_backward(mlp, cache, d_scores[:, None])
            nn.optimizer_step(opt, mlp.parameters(), grads, names)
        epoch_sup = sup_sum / sup_count if sup_count else float("nan")
        history.append(TrainEpochStats(epoch, float(epoch_sup), 0.0))
    return DetectorModel(mlp=mlp, lam=0.0, seed=int(seed)), history
