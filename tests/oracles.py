"""Reference implementations that the tests check the library against.

None of these run in the pipeline: finite-difference gradient checks, the
scalar triplet loss, the separation rate of a triplet batch, the
per-prescriber-year share groups and the prescriber-by-prescriber feature
loop that the vectorized feature pass must match bitwise, the plain
supervised trainer that hybrid_train must reproduce bitwise at lambda = 0,
the record-at-a-time claims parser that the columnar one must match, the
pretraining loop that runs every backward pass, which encoders.pretrain must
match bitwise, the scalar supervised and alignment losses, and the serial
ablation loop that the pooled one must match bitwise.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from clevercatch import nn
from clevercatch.alignment import AlignmentConfig
from clevercatch.detector import (
    DetectorConfig,
    DetectorModel,
    TrainEpochStats,
    bce_with_grad,
    init_detector,
)
from clevercatch.encoders import (
    EpochStats,
    PretrainConfig,
    RuleEncoderParams,
    SampleEncoderParams,
    TripletBatch,
    _rule_encode_bwd,
    _rule_encode_fwd,
    _separation,
    _triplet_batch_loss,
    gen_synthetic_triplets,
    init_encoders,
    rule_encode,
    sample_encode,
)
from clevercatch.errors import NumericError, ParseError, ShapeError, ValidationError
from clevercatch.evaluation import (
    ABLATION_GROUPS,
    DEFAULT_KS,
    AblationReport,
    DeltaRow,
    EvalResult,
    MetricsRow,
    _run_configuration,
    ablation_subset,
    configs_for_groups,
    split_labels,
)
from clevercatch.features import BLOCK, FeatureMatrix, build_feature_matrix, feature_columns
from clevercatch.ingest import CHANNELS, CLAIMS_HEADER, ClaimsTable, LabelTable
from clevercatch.nn import make_rng
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

logger = logging.getLogger("clevercatch.ingest")  # where the library parser warns, so tests compare both
_evaluation_logger = logging.getLogger("clevercatch.evaluation")


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


def separation_rate(
    re: RuleEncoderParams, se: SampleEncoderParams, ruleset: RuleSet, batch: TripletBatch
) -> float:
    """Fraction of triplets whose satisfying side is strictly closer to its rule."""
    if len(batch) == 0:
        raise ValidationError("cannot measure separation on an empty batch")
    e_pos, e_neg = sample_encode(se, batch.pos), sample_encode(se, batch.neg)
    return _separation(rule_encode(re, ruleset)[batch.rule_idx], e_pos, e_neg)


def pretrain(
    ruleset: RuleSet, cfg: PretrainConfig, seed: int
) -> tuple[RuleEncoderParams, SampleEncoderParams, list[EpochStats]]:
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
    holdout = triplets.take(perm[:n_hold])
    train = triplets.take(perm[n_hold:])
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
            e_rule, re_cache = _rule_encode_fwd(re, ruleset.p_idx[rule_ids], ruleset.q_idx[rule_ids])
            e_pos, pos_cache = nn.mlp_forward(se.mlp, train.pos[idx])
            e_neg, neg_cache = nn.mlp_forward(se.mlp, train.neg[idx])
            loss, d_rule, d_pos, d_neg = _triplet_batch_loss(
                e_rule, e_pos, e_neg, ruleset.weights[rule_ids], cfg.margin
            )
            if not np.isfinite(loss):
                raise NumericError(f"triplet loss diverged at epoch {epoch}")
            losses.append(loss)
            if phase == "se":
                grads_pos, _ = nn.mlp_backward(se.mlp, pos_cache, d_pos)
                grads_neg, _ = nn.mlp_backward(se.mlp, neg_cache, d_neg)
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
    """Rule-contrast features built one prescriber and one year at a time."""
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
    """Parse a claims CSV record by record; duplicate (npi, year, drug) rows are summed."""
    drugs = VocabularyBuilder()
    prescribers = VocabularyBuilder()
    position: dict[tuple[int, int, int], int] = {}
    npi_idx: list[int] = []
    years: list[int] = []
    drug_idx: list[int] = []
    metrics: list[np.ndarray] = []
    n_duplicates = 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CLAIMS_HEADER:
            raise ParseError(f"{path}: line 1: expected header {','.join(CLAIMS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
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
            i = prescribers.add(npi)
            d = drugs.add(drug)
            key = (i, year, d)
            at = position.get(key)
            if at is None:
                position[key] = len(npi_idx)
                npi_idx.append(i)
                years.append(year)
                drug_idx.append(d)
                metrics.append(values)
            else:
                metrics[at] = metrics[at] + values
                n_duplicates += 1
    for npi in prescribers.build().names:
        if any(c in npi for c in ',"\r\n'):
            raise ParseError(f"{path}: npi {npi!r} holds a comma, a double quote or a line break")
    for drug in drugs.build().names:
        if "\r" in drug or "\n" in drug:
            raise ParseError(f"{path}: drug name {drug!r} holds a line break")
    if n_duplicates:
        logger.warning("%s: summed %d duplicate (npi, year, drug) rows", path, n_duplicates)
    return ClaimsTable(
        npi_idx=np.asarray(npi_idx, dtype=np.int64),
        year=np.asarray(years, dtype=np.int64),
        drug_idx=np.asarray(drug_idx, dtype=np.int64),
        metrics=np.vstack(metrics) if metrics else np.empty((0, 5)),
        drugs=drugs.build(),
        prescribers=prescribers.build(),
    )


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
    deltas: list[DeltaRow] = []
    notes: list[str] = []
    for seed in seeds:
        if eval_fraction > 0.0:
            train_labels, eval_labels = split_labels(
                labels, eval_fraction, nn.derive_seed(seed, "split")
            )
        else:
            train_labels, eval_labels = labels, labels
        full_result: EvalResult | None = None
        for name in config_names:
            subset = ablation_subset(name, ruleset, features)
            if subset is None:
                note = f"{name} seed {seed}: skipped, no rules remain"
                notes.append(note)
                _evaluation_logger.warning(note)
                continue
            sub_rules, sub_features = subset
            result = _run_configuration(
                name,
                sub_features,
                sub_rules,
                train_labels,
                eval_labels,
                pretrain_cfg,
                align_cfg,
                detector_cfg,
                int(seed),
                ks,
                threshold,
            )
            rows.append(MetricsRow(config=name, seed=int(seed), result=result))
            if name == "full":
                full_result = result
            elif full_result is not None:
                deltas.append(
                    DeltaRow(
                        config=name,
                        seed=int(seed),
                        d_pr_auc=full_result.pr_auc - result.pr_auc,
                        d_r_at_k={
                            k: full_result.r_at_k[k] - result.r_at_k[k] for k in ks
                        },
                    )
                )
    return AblationReport(rows=rows, deltas=deltas, notes=notes, ks=ks)
