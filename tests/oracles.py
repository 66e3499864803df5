"""Reference implementations that the tests check the library against.

None of these run in the pipeline: finite-difference gradient checks, the
scalar triplet loss and the batch triplet loss with its gradients, the
separation rate of a triplet batch, the
per-prescriber-year share groups and the prescriber-by-prescriber feature
loop that the vectorized feature pass must match bitwise, the plain
supervised trainer that hybrid_train must reproduce bitwise at lambda = 0,
the per-batch transport regularizer and the Sinkhorn solver that reduces
each sweep's (K, B, R) arrays along their own axes, which the per-stack
regularizer and the outer-axis solver must match bitwise, the whole-matrix
alignment path (every row of a batch encoded at once, each batch solved
alone, with its own transport-cost and calibration reference), which
pseudo_label_classifier must match bitwise, the
batch-by-batch hybrid loop on that path, which hybrid_train's per-epoch
stacked transport solve must match bitwise,
the record-at-a-time claims parser that the columnar one must match, the
line-at-a-time features.csv reader that the numpy one must match, the
row-by-row claims generator whose files the block-streamed simulator must
match byte for byte, the
pretraining loop that runs every backward pass, which encoders.pretrain must
match bitwise, the scalar supervised and alignment losses, and the serial
ablation loop that the pooled one must match bitwise, and the MLP forward
and backward that keep each layer's pre-activation and take the derivative
from it, which nn's activation-based backward must match bitwise.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from clevercatch import nn
from clevercatch.alignment import AlignmentConfig, _check_marginal, cost_matrix
from clevercatch.detector import (
    DetectorConfig,
    DetectorModel,
    PseudoLabelReport,
    TrainEpochStats,
    bce_with_grad,
    init_detector,
)
from clevercatch.encoders import (
    EncoderModel,
    EpochStats,
    PretrainConfig,
    RuleEncoderParams,
    TripletBatch,
    _rule_encode_bwd,
    _rule_inputs,
    _separation,
    _triplet_grads,
    _triplet_hinges,
    gen_synthetic_triplets,
    init_encoders,
    rule_encode,
    sample_encode,
)
from clevercatch.errors import ContractError, NumericError, ParseError, ShapeError, ValidationError
from clevercatch.evaluation import (
    ABLATION_GROUPS,
    DEFAULT_KS,
    AblationReport,
    MetricsRow,
    _run_configuration,
    ablation_subset,
    configs_for_groups,
    split_labels,
)
from clevercatch.features import BLOCK, FeatureMatrix, build_feature_matrix, feature_columns
from clevercatch.ingest import CHANNELS, CLAIMS_HEADER, ClaimsTable, LabelTable
from clevercatch.io_utils import atomic_write_text, dumps_canonical, write_csv
from clevercatch.nn import make_rng
from clevercatch.rules import Rule, RuleSet, write_rules_csv
from clevercatch.simulator import (
    BENE_PER_CLAIM,
    COST_NOISE,
    DAYS_PER_FILL,
    FILLS_PER_CLAIM,
    GAP_FULL_WEIGHT,
    SPECIALTY,
    SimConfig,
    _drug_roles,
    _plant_cost,
    _plant_opioid,
    write_labels_csv,
)
from clevercatch.vocab import Vocabulary

_features_logger = logging.getLogger("clevercatch.features")
_evaluation_logger = logging.getLogger("clevercatch.evaluation")
_alignment_logger = logging.getLogger("clevercatch.alignment")


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


def triplet_batch_loss(
    e_rule: np.ndarray,
    e_pos: np.ndarray,
    e_neg: np.ndarray,
    weights: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean weighted hinge plus gradients w.r.t. the three embedding batches."""
    loss, _, _, coef = _triplet_hinges(e_rule, e_pos, e_neg, weights, margin)
    return (loss, *_triplet_grads(e_rule, e_pos, e_neg, coef))


def separation_rate(
    re: RuleEncoderParams, se: nn.Mlp, ruleset: RuleSet, batch: TripletBatch
) -> float:
    """Fraction of triplets whose satisfying side is strictly closer to its rule."""
    if len(batch) == 0:
        raise ValidationError("cannot measure separation on an empty batch")
    e_pos, e_neg = sample_encode(se, batch.pos), sample_encode(se, batch.neg)
    return _separation(rule_encode(re, ruleset)[batch.rule_idx], e_pos, e_neg)


def pretrain(
    ruleset: RuleSet, cfg: PretrainConfig, seed: int
) -> tuple[RuleEncoderParams, nn.Mlp, list[EpochStats]]:
    """Alternating triplet pretraining with a full backward pass on every batch.

    The loop encoders.pretrain ran before it skipped the backward passes of
    batches whose output gradient is exactly zero. A batch counts in
    zero_grad_batches here when every gradient its full backward pass yields
    for the updated encoder is +/-0.
    """
    rng = nn.make_rng(seed)
    re, se = init_encoders(ruleset.vocab.size, BLOCK * len(ruleset), cfg, rng)
    triplets = gen_synthetic_triplets(
        ruleset, cfg.triplet_count, cfg.noise_sigma, (cfg.band_lo, cfg.band_hi), rng,
        weight_floor=cfg.weight_floor,
    )
    perm = rng.permutation(len(triplets))
    n_hold = int(round(cfg.holdout_fraction * len(triplets)))
    holdout, train = (
        TripletBatch(triplets.rule_idx[idx], triplets.pos[idx], triplets.neg[idx])
        for idx in (perm[:n_hold], perm[n_hold:])
    )
    del triplets
    if len(train) == 0:
        raise ValidationError("holdout fraction leaves no training triplets")
    re_opt = nn.adam(cfg.learning_rate)
    se_opt = nn.adam(cfg.learning_rate)
    re_names = re.parameter_names()
    se_names = se.parameter_names()
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        phase = "se" if epoch % 2 == 0 else "re"
        order = rng.permutation(len(train))
        losses: list[float] = []
        n_zero = 0
        for start in range(0, len(train), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rule_ids = train.rule_idx[idx]
            rule_inputs = _rule_inputs(re, ruleset.p_idx[rule_ids], ruleset.q_idx[rule_ids])
            e_rule, re_cache = nn.mlp_forward(re.mlp, rule_inputs)
            e_pos, pos_cache = nn.mlp_forward(se, train.pos[idx])
            e_neg, neg_cache = nn.mlp_forward(se, train.neg[idx])
            loss, d_rule, d_pos, d_neg = triplet_batch_loss(
                e_rule, e_pos, e_neg, ruleset.weights[rule_ids], cfg.margin
            )
            if not np.isfinite(loss):
                raise NumericError(f"triplet loss diverged at epoch {epoch}")
            losses.append(loss)
            if phase == "se":
                grads_pos, _ = nn.mlp_backward(se, pos_cache, d_pos)
                grads_neg, _ = nn.mlp_backward(se, neg_cache, d_neg)
                grads = [gp + gn for gp, gn in zip(grads_pos, grads_neg)]
                n_zero += not any(g.any() for g in grads)
                nn.optimizer_step(se_opt, se.parameters(), grads, se_names)
            else:
                grads = _rule_encode_bwd(
                    re, ruleset.p_idx[rule_ids], ruleset.q_idx[rule_ids], re_cache, d_rule
                )
                n_zero += not any(g.any() for g in grads)
                nn.optimizer_step(re_opt, re.parameters(), grads, re_names)
        sep = separation_rate(re, se, ruleset, holdout) if len(holdout) else float("nan")
        history.append(EpochStats(epoch, phase, float(np.mean(losses)), sep, len(losses), n_zero))
    return re, se, history


@dataclass
class ShareTable:
    """Per (prescriber, year) drug shares for all five channels."""

    drugs: Vocabulary
    groups: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    years_by_prescriber: dict[int, tuple[int, ...]]
    n_prescribers: int


def merge_repeated_rows(claims: ClaimsTable) -> tuple[ClaimsTable, int]:
    """The table with one row per (prescriber, year, drug), at the cell's first row, and the
    count of rows summed away; a cell's rows sum left to right in file order."""
    position: dict[tuple[int, int, int], int] = {}
    keep: list[int] = []
    metrics: list[np.ndarray] = []
    for pos in range(claims.n_records):
        key = (int(claims.npi_idx[pos]), int(claims.year[pos]), int(claims.drug_idx[pos]))
        at = position.get(key)
        if at is None:
            position[key] = len(keep)
            keep.append(pos)
            metrics.append(claims.metrics[pos].copy())
        else:
            metrics[at] = metrics[at] + claims.metrics[pos]
    rows = np.asarray(keep, dtype=np.int64)
    merged = ClaimsTable(
        npi_idx=claims.npi_idx[rows],
        year=claims.year[rows],
        drug_idx=claims.drug_idx[rows],
        metrics=np.vstack(metrics) if metrics else np.empty((0, len(CHANNELS))),
        drugs=claims.drugs,
        prescribers=claims.prescribers,
    )
    return merged, claims.n_records - rows.size


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


def gather_shares(group: tuple[np.ndarray, np.ndarray], wanted: np.ndarray) -> np.ndarray:
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


def feature_matrix(claims: ClaimsTable, ruleset: RuleSet) -> FeatureMatrix:
    """Rule-contrast features built one prescriber and one year at a time, from the table
    with its repeated (prescriber, year, drug) rows summed."""
    claims, n_repeats = merge_repeated_rows(claims)
    if n_repeats:
        _features_logger.warning("summed %d duplicate (npi, year, drug) rows", n_repeats)
    shares = compute_shares(claims)
    n = claims.prescribers.size
    r = len(ruleset)
    unary = ruleset.q_idx < 0
    values = np.zeros((n, r * 3 * len(CHANNELS)))
    for i in range(n):
        observed = shares.years_by_prescriber.get(i)
        if observed is None:
            continue
        per_year = np.empty((len(observed), r, len(CHANNELS)))
        for row, year in enumerate(observed):
            group = shares.groups[(i, year)]
            contrast = gather_shares(group, ruleset.p_idx)
            q_shares = gather_shares(group, np.where(unary, 0, ruleset.q_idx))
            q_shares[unary] = 0.0
            per_year[row] = contrast - q_shares
        values[i] = aggregate_over_years(per_year).reshape(-1)
    return FeatureMatrix(values=values, columns=feature_columns(r), npis=claims.prescribers.names)


def rule_contrast(shares: ShareTable, rule: Rule, prescriber: int, year: int) -> np.ndarray:
    """Five-channel contrast for one rule at one prescriber-year."""
    p = shares.drugs.index(rule.p)
    group = shares.groups.get((prescriber, year))
    if group is None:
        return np.zeros(len(CHANNELS))
    contrast = gather_shares(group, np.array([p], dtype=np.int64))[0].copy()
    if rule.q is not None:
        q = shares.drugs.index(rule.q)
        contrast -= gather_shares(group, np.array([q], dtype=np.int64))[0]
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


def batch_epsilon(cost: np.ndarray, epsilon_scale: float) -> float:
    """One batch's regularizer, epsilon_scale * median(C) with zero guards, which
    alignment.stack_epsilons must give for each problem of a stack bitwise."""
    scale = float(np.median(cost))
    if scale <= 0:
        scale = float(cost.max())
    if scale <= 0:
        scale = 1.0
    return epsilon_scale * scale


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """scipy.special.logsumexp of finite real input along one axis, bitwise: the m
    entries equal to the maximum are left out of the shifted exp-sum, which is
    divided by m before log1p."""
    x_max = x.max(axis=axis, keepdims=True)
    is_max = x == x_max
    m = is_max.sum(axis=axis, keepdims=True, dtype=x.dtype)
    s = np.exp(np.where(is_max, -np.inf, x) - x_max).sum(axis=axis, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + x_max).squeeze(axis)


def sinkhorn_stack(
    costs: np.ndarray, epsilons: np.ndarray, a: np.ndarray | None = None,
    b: np.ndarray | None = None, max_iters: int = 500, tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-domain Sinkhorn on a (K, B, R) cost stack, reducing each sweep's
    (K, B, R) arrays along their own axes in numpy's order for that layout.

    alignment.sinkhorn_stack reduces over the outer axis of rule-first and
    row-first copies instead and must give these plans, iteration counts and
    converged flags bitwise.
    """
    costs = np.asarray(costs, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    n_problems, n_rows, n_cols = costs.shape
    a = _check_marginal(a, n_rows, "row")
    b = _check_marginal(b, n_cols, "column")
    log_kernel = -costs / epsilons[:, None, None]
    log_a, log_b = np.log(a), np.log(b)
    plans = np.empty_like(costs)
    iterations = np.empty(n_problems, dtype=np.int64)
    converged = np.zeros(n_problems, dtype=bool)
    live = np.arange(n_problems)
    g = np.zeros((n_problems, n_cols))
    for iteration in range(1, max_iters + 1):
        f = log_a - _logsumexp(log_kernel + g[:, None, :], axis=2)
        g = log_b - _logsumexp(log_kernel + f[:, :, None], axis=1)
        plan = np.exp(f[:, :, None] + g[:, None, :] + log_kernel)
        done = np.abs(plan.sum(axis=2) - a).max(axis=1) < tol
        converged[live[done]] = True
        done |= iteration == max_iters
        if done.any():
            plans[live[done]] = plan[done]
            iterations[live[done]] = iteration
            live, log_kernel, g = live[~done], log_kernel[~done], g[~done]
            if live.size == 0:
                break
    return plans, iterations, converged


class WholeMatrixAligner:
    """The whole-matrix alignment path: a batch is encoded in one sample_encode
    pass, and its cost matrix is solved alone as a K = 1 oracle sinkhorn_stack.

    Each (B, R) plan's rows give the plan-weighted mean costs, and the calibration
    reference folds them into a running mean and std: the first batch's, then an
    EMA, with scipy's expit for the sigmoid.

    alignment.Aligner encodes every row once in COST_BLOCK_ROWS blocks, solves
    same-size batches together and takes the (K, B, R) stack's mean costs at
    once; both must give these costs, pseudo-labels and unconverged-plan
    warnings bitwise.
    """

    def __init__(self, encoders: EncoderModel, cfg: AlignmentConfig):
        self.se, self.cfg = encoders.se, cfg
        self.rule_embeds = rule_encode(encoders.re, encoders.ruleset)
        self.col_marginal = None
        if cfg.weighted_marginals:
            floored = np.maximum(encoders.ruleset.weights, cfg.weight_floor)
            self.col_marginal = floored / floored.sum()
        self.mean = self.std = None
        self.plans = self.unconverged = 0

    def __call__(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cost = cost_matrix(sample_encode(self.se, batch), self.rule_embeds)
        epsilon = batch_epsilon(cost, self.cfg.epsilon_scale)
        plans, _, converged = sinkhorn_stack(cost[None], np.array([epsilon]), b=self.col_marginal,
                                             max_iters=self.cfg.max_iters, tol=self.cfg.tol)
        costs = (plans[0] * cost).sum(axis=1) / plans[0].sum(axis=1)
        self.plans += 1
        self.unconverged += not converged[0]
        if self.mean is None:
            self.mean, self.std = float(costs.mean()), float(costs.std())
        else:
            rho = self.cfg.momentum
            self.mean = rho * self.mean + (1.0 - rho) * float(costs.mean())
            self.std = rho * self.std + (1.0 - rho) * float(costs.std())
        return costs, expit((self.mean - costs) / (self.cfg.tau * self.std + self.cfg.eps))

    def warn_unconverged(self, where: str) -> None:
        if self.unconverged:
            _alignment_logger.warning(
                "%s: %d of %d transport plans stopped at max_iters=%d before converging",
                where, self.unconverged, self.plans, self.cfg.max_iters,
            )


def pseudo_label_classifier(
    features: np.ndarray,
    encoders: EncoderModel,
    align_cfg: AlignmentConfig | None = None,
    threshold: float = 0.5,
) -> PseudoLabelReport:
    """detector.pseudo_label_classifier through WholeMatrixAligner: every row
    encoded at once and aligned in one transport problem."""
    aligner = WholeMatrixAligner(encoders, align_cfg if align_cfg is not None else AlignmentConfig())
    costs, labels = aligner(np.asarray(features, dtype=np.float64))
    aligner.warn_unconverged("pseudo_label_classifier")
    return PseudoLabelReport(costs=costs, labels=labels, predictions=labels > threshold)


def hybrid_train(
    features: np.ndarray,
    labels: LabelTable,
    cfg: DetectorConfig,
    seed: int,
    encoders: EncoderModel | None = None,
    align_cfg: AlignmentConfig | None = None,
) -> tuple[DetectorModel, list[TrainEpochStats]]:
    """The batch-by-batch hybrid loop: each batch is aligned alone, with its
    own Sinkhorn solve, just before its SGD step.

    detector.hybrid_train solves an epoch's transport problems together and
    must match this loop bitwise.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    y, mask = labels.to_dense(n)
    aligner = None
    if cfg.lam > 0.0:
        aligner = WholeMatrixAligner(encoders, align_cfg if align_cfg is not None else AlignmentConfig())
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
            if aligner is not None:
                _, targets = aligner(batch)
                align_loss_value, d_align = bce_with_grad(scores, targets)
                d_scores += cfg.lam * d_align
                align_sum += align_loss_value * idx.size
                align_count += idx.size
            grads, _ = nn.mlp_backward(mlp, cache, d_scores[:, None])
            nn.optimizer_step(opt, mlp.parameters(), grads, names)
        epoch_sup = sup_sum / sup_count if sup_count else float("nan")
        epoch_align = align_sum / align_count if align_count else 0.0
        history.append(TrainEpochStats(epoch, float(epoch_sup), float(epoch_align)))
    fingerprint = ""
    if aligner is not None:
        aligner.warn_unconverged("hybrid_train")
        fingerprint = encoders.file_sha256
    return DetectorModel(mlp=mlp, lam=cfg.lam, seed=int(seed), encoder_fingerprint=fingerprint), history


class VocabularyBuilder:
    """Accumulates names in first-appearance order, then freezes."""

    __slots__ = ("_names", "_seen")

    def __init__(self):
        self._names: list[str] = []
        self._seen: dict[str, int] = {}

    def add(self, name: str) -> int:
        idx = self._seen.get(name)
        if idx is None:
            idx = len(self._names)
            self._seen[name] = idx
            self._names.append(name)
        return idx

    def build(self) -> Vocabulary:
        return Vocabulary(self._names)


def parse_claims_csv(path) -> ClaimsTable:
    """Parse a claims CSV record by record into its rows, in file order."""
    drugs = VocabularyBuilder()
    prescribers = VocabularyBuilder()
    npi_idx: list[int] = []
    years: list[int] = []
    drug_idx: list[int] = []
    metrics: list[np.ndarray] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CLAIMS_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(CLAIMS_HEADER)}")
        start = reader.line_num + 1  # records are numbered by the line they start on
        for row in reader:
            lineno, start = start, reader.line_num + 1
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
            npi_idx.append(prescribers.add(npi))
            years.append(year)
            drug_idx.append(drugs.add(drug))
            metrics.append(values)
    for npi in prescribers.build().names:
        if any(c in npi for c in ',"\r\n'):
            raise ParseError(f"{path}: npi {npi!r} holds a comma, a double quote or a line break")
    for drug in drugs.build().names:
        if "\r" in drug or "\n" in drug:
            raise ParseError(f"{path}: drug name {drug!r} holds a line break")
    return ClaimsTable(
        npi_idx=np.asarray(npi_idx, dtype=np.int64),
        year=np.asarray(years, dtype=np.int64),
        drug_idx=np.asarray(drug_idx, dtype=np.int64),
        metrics=np.vstack(metrics) if metrics else np.empty((0, 5)),
        drugs=drugs.build(),
        prescribers=prescribers.build(),
    )


def read_features_csv(path) -> FeatureMatrix:
    """Read features.csv line by line: split on commas, float() each value."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        fields = header.split(",")
        if not fields or fields[0] != "npi":
            raise ParseError(f"{path}: line 1: expected an npi,<feature...> header")
        columns = tuple(fields[1:])
        npis: list[str] = []
        seen: set[str] = set()
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
            if parts[0] in seen:
                raise ParseError(f"{path}: line {lineno}: duplicate npi {parts[0]!r}")
            seen.add(parts[0])
            npis.append(parts[0])
            try:
                row = np.array([float(v) for v in parts[1:]])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: malformed feature value") from None
            if not np.isfinite(row).all():
                raise ParseError(f"{path}: line {lineno}: feature values must be finite")
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no feature rows")
    return FeatureMatrix(values=np.vstack(rows), columns=columns, npis=tuple(npis))


def supervised_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean BCE over the labeled subset; labels must be binary."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValidationError("supervised loss is undefined without labeled samples")
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("supervised labels must be 0 or 1")
    loss, _ = bce_with_grad(np.asarray(scores, dtype=np.float64), labels.astype(np.float64))
    return loss


def alignment_loss(scores: np.ndarray, targets: np.ndarray) -> float:
    """Mean BCE against soft pseudo-label targets in [0, 1]."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.size and (targets.min() < 0.0 or targets.max() > 1.0):
        raise ValidationError("pseudo-label targets must lie in [0, 1]")
    loss, _ = bce_with_grad(np.asarray(scores, dtype=np.float64), targets)
    return loss


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
    """Retrain encoders and detector per rule subset and report metric drops.

    The serial configuration loop, one configuration after another in this
    process, that the pooled evaluation.ablation_run must match bitwise.

    Configurations: full rule set, one minus-configuration per selected group
    (cost-preference pairs, opioid single-drug rules), and lambda = 0
    (alignment off, full features). Every configuration reuses the same
    derived stage seeds per run seed, so differences come from the rules
    alone. The feature matrix is built once for the full rule set and each
    subset slices its rules' blocks from it. A subset that would leave no
    rules is skipped with a note. With eval_fraction > 0 the labeled set is
    split and metrics are computed on the held-out part only; otherwise on
    all labeled prescribers.
    """
    config_names = configs_for_groups(tuple(groups))
    pretrain_cfg = pretrain_cfg if pretrain_cfg is not None else PretrainConfig()
    align_cfg = align_cfg if align_cfg is not None else AlignmentConfig()
    detector_cfg = detector_cfg if detector_cfg is not None else DetectorConfig()
    if labels.n_labeled == 0:
        raise ValidationError("ablation needs labeled prescribers")
    features = build_feature_matrix(claims, ruleset).values
    rows: list[MetricsRow] = []
    notes: list[str] = []
    for seed in seeds:
        if eval_fraction > 0.0:
            train_labels, eval_labels = split_labels(
                labels, eval_fraction, nn.derive_seed(seed, "split")
            )
        else:
            train_labels, eval_labels = labels, labels
        for name in config_names:
            subset = ablation_subset(name, ruleset, features)
            if subset is None:
                note = f"{name} seed {seed}: skipped, no rules remain"
                notes.append(note)
                _evaluation_logger.warning(note)
                continue
            result, records = _run_configuration(
                *subset, name, int(seed), train_labels, eval_labels,
                pretrain_cfg, align_cfg, detector_cfg, ks, threshold,
            )
            for record in records:
                logging.getLogger(record.name).handle(record)
            rows.append(MetricsRow(config=name, seed=int(seed), result=result))
    return AblationReport(rows=rows, notes=notes, ks=ks)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "identity":
        return z
    return expit(z)


def _activation_grad(z: np.ndarray, activation: str) -> np.ndarray:
    # relu picks the zero subgradient exactly at the kink.
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(z)
    s = expit(z)
    return s * (1.0 - s)


@dataclass
class ForwardCache:
    mlp: nn.Mlp
    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    output: np.ndarray


def mlp_forward(mlp: nn.Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"forward input must be 2-D (batch, features), got shape {x.shape}")
    if x.shape[1] != mlp.input_dim:
        raise ShapeError(f"input width {x.shape[1]} does not match network width {mlp.input_dim}")
    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    h = x
    for layer in mlp.layers:
        inputs.append(h)
        z = h @ layer.weight + layer.bias
        preacts.append(z)
        h = _activate(z, layer.activation)
    return h, ForwardCache(mlp, inputs, preacts, h)


def mlp_backward(
    mlp: nn.Mlp, cache: ForwardCache, output_grad: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients; returns (param grads, input grad).

    Parameter gradients are aligned with mlp.parameters() order.
    """
    if cache.mlp is not mlp:
        raise ContractError("forward cache belongs to a different network")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != cache.output.shape:
        raise ContractError(
            f"output gradient shape {g.shape} does not match forward output {cache.output.shape}"
        )
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(mlp.layers))
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        dz = g * _activation_grad(cache.preacts[i], layer.activation)
        grads[2 * i] = cache.inputs[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        g = dz @ layer.weight.T
    return grads, g


def write_sim_data(cfg: SimConfig, out_dir) -> dict[str, Path]:
    """Generate a cohort one claim row at a time, holding every row, and write its four files.

    Same draws in the same order as the library: drug prices, the fraud
    assignment permutation, then per provider and year a Dirichlet share
    draw, the planting, a volume draw, a multinomial claims draw and a
    cost-noise vector. Coverage-guard rows come last.
    """
    rng = make_rng(cfg.seed)
    drugs = [f"D{i:03d}" for i in range(cfg.n_drugs)]
    npis = [str(1000000000 + i) for i in range(cfg.n_providers)]
    pairs, opioids = _drug_roles(cfg)

    prices = rng.lognormal(math.log(cfg.price_median), cfg.price_sigma, cfg.n_drugs)
    for p, q, gap in pairs:
        base = min(prices[p], prices[q])
        prices[q] = base
        prices[p] = base * (1.0 + gap)

    n_fraud = int(round(cfg.fraud_rate * cfg.n_providers))
    n_cost = int(round(cfg.scenario_mix * n_fraud))
    order = rng.permutation(cfg.n_providers)
    cost_ids = sorted(int(i) for i in order[:n_cost])
    opioid_ids = sorted(int(i) for i in order[n_cost:n_fraud])
    labels = np.zeros(cfg.n_providers, dtype=np.int64)
    labels[cost_ids] = 1
    labels[opioid_ids] = 1
    scenario_by_provider: dict[int, dict] = {}
    for rank, i in enumerate(cost_ids):
        p, q, _ = pairs[rank % len(pairs)]
        scenario_by_provider[i] = {"scenario": "cost_preference", "pair": [drugs[p], drugs[q]]}
    for i in opioid_ids:
        scenario_by_provider[i] = {"scenario": "opioid", "drugs": [drugs[d] for d in opioids]}

    pair_index = {drugs[p]: (p, q) for p, q, _ in pairs}
    rows: list[tuple] = []  # (npi, year, drug, claims, fills, days, cost, bene)
    seen_drugs = np.zeros(cfg.n_drugs, dtype=bool)
    alpha = np.full(cfg.n_drugs, cfg.dirichlet_alpha)
    for i in range(cfg.n_providers):
        scenario = scenario_by_provider.get(i)
        for t in range(cfg.n_years):
            shares = rng.dirichlet(alpha)
            if scenario is not None:
                if scenario["scenario"] == "cost_preference":
                    p, q = pair_index[scenario["pair"][0]]
                    shares = _plant_cost(shares, p, q, cfg.boost, cfg.pair_floor)
                else:
                    shares = _plant_opioid(shares, opioids, cfg.boost)
            volume = max(
                cfg.min_volume,
                int(np.rint(rng.lognormal(math.log(cfg.volume_median), cfg.volume_sigma))),
            )
            claims = rng.multinomial(volume, shares / shares.sum())
            noise = rng.uniform(1.0 - COST_NOISE, 1.0 + COST_NOISE, cfg.n_drugs)
            for d in np.flatnonzero(claims):
                c = int(claims[d])
                fills = int(np.rint(FILLS_PER_CLAIM * c))
                cost = round(c * float(prices[d]) * float(noise[d]), 2)
                bene = int(np.rint(BENE_PER_CLAIM * c))
                rows.append((npis[i], cfg.base_year + t, drugs[d], c, fills, DAYS_PER_FILL * fills, cost, bene))
                seen_drugs[d] = True

    rule_drugs = sorted({d for p, q, _ in pairs for d in (p, q)} | set(opioids))
    guard_targets = [d for d in rule_drugs if not seen_drugs[d]]
    honest = [i for i in range(cfg.n_providers) if labels[i] == 0] or list(range(cfg.n_providers))
    for j, d in enumerate(guard_targets):
        i = honest[j % len(honest)]
        rows.append((npis[i], cfg.base_year, drugs[d], 1, 1, DAYS_PER_FILL, round(float(prices[d]), 2), 1))

    rules = [
        Rule(kind="binary", p=drugs[p], q=drugs[q], weight=min(1.0, gap / GAP_FULL_WEIGHT))
        for p, q, gap in pairs
    ]
    rules += [Rule(kind="unary", p=drugs[d], q=None, weight=cfg.opioid_rule_weight) for d in opioids]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.{ext}" for name, ext in
             (("claims", "csv"), ("labels", "csv"), ("rules", "csv"), ("ground_truth", "json"))}
    write_csv(paths["claims"], CLAIMS_HEADER, (
        f"{npi},{year},{SPECIALTY},{drug},{c},{fills},{days},{cost:.2f},{bene}"
        for npi, year, drug, c, fills, days, cost, bene in rows
    ))
    write_labels_csv(paths["labels"], npis, labels)
    write_rules_csv(rules, paths["rules"])
    manifest = {
        "config": asdict(cfg),
        "planted_rules": [{"kind": r.kind, "p": r.p, "q": r.q, "weight": r.weight} for r in rules],
        "scenarios": {npis[i]: scenario_by_provider[i] for i in sorted(scenario_by_provider)},
        "opioid_drugs": [drugs[d] for d in opioids],
        "prices": {drugs[d]: float(prices[d]) for d in range(cfg.n_drugs)},
    }
    atomic_write_text(paths["ground_truth"], dumps_canonical(manifest) + "\n")
    return paths
