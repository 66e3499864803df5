"""Entropic optimal-transport alignment between sample and rule embeddings.

A batch of sample embeddings is coupled to the rule embeddings through a
Sinkhorn plan over squared Euclidean costs. Each sample's plan-weighted mean
cost is calibrated against running batch statistics and squashed through a
sigmoid, giving a pseudo-label in (0, 1): samples that sit close to the rule
embeddings (i.e. exhibit rule-satisfying contrast patterns) score high.
Aligner owns that step, from one feature matrix's rows to pseudo-labels.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .encoders import EncoderModel, rule_encode, sample_encode
from .errors import NumericError, ShapeError, ValidationError

logger = logging.getLogger(__name__)


@dataclass
class AlignmentConfig:
    epsilon_scale: float = 0.05  # eps = epsilon_scale * median(C) per batch
    max_iters: int = 500
    tol: float = 1e-9
    tau: float = 1.0
    eps: float = 1e-6
    momentum: float = 0.99
    weighted_marginals: bool = False
    weight_floor: float = 0.05

    def __post_init__(self):
        if self.epsilon_scale <= 0 or self.tol <= 0 or self.max_iters < 1:
            raise ValidationError("epsilon scale, tolerance, and max iterations must be positive")
        if self.tau <= 0 or self.eps <= 0:
            raise ValidationError("tau and eps must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")
        if self.weight_floor <= 0:  # a zero-weight rule would get an empty marginal column
            raise ValidationError("weight floor must be positive")


COST_BLOCK_ROWS = 1024  # sample rows per (rows, R, L) difference and per encoder pass (train, pseudolabel)


def cost_matrix(samples: np.ndarray, rules: np.ndarray) -> np.ndarray:
    """Exact pairwise squared Euclidean distances, shape (B, R), COST_BLOCK_ROWS rows at a time."""
    samples = np.asarray(samples, dtype=np.float64)
    rules = np.asarray(rules, dtype=np.float64)
    if samples.ndim != 2 or rules.ndim != 2:
        raise ShapeError("cost matrix inputs must be 2-D (batch, latent)")
    if samples.shape[1] != rules.shape[1]:
        raise ShapeError(
            f"latent widths differ: samples {samples.shape[1]}, rules {rules.shape[1]}"
        )
    cost = np.empty((samples.shape[0], rules.shape[0]))
    for start in range(0, samples.shape[0], COST_BLOCK_ROWS):
        diff = samples[start : start + COST_BLOCK_ROWS, None, :] - rules[None, :, :]
        cost[start : start + COST_BLOCK_ROWS] = (diff * diff).sum(axis=2)
    return cost


def _check_marginal(m: np.ndarray | None, size: int, name: str) -> np.ndarray:
    if m is None:
        return np.full(size, 1.0 / size)
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (size,):
        raise ShapeError(f"{name} marginal must have shape ({size},), got {m.shape}")
    if not np.all(np.isfinite(m)) or np.any(m <= 0):
        raise ValidationError(f"{name} marginal must be strictly positive and finite")
    if abs(m.sum() - 1.0) > 1e-6:
        raise ValidationError(f"{name} marginal must sum to 1, got {m.sum()!r}")
    return m


def _sum0(x: np.ndarray, pairwise: bool) -> np.ndarray:
    """x.sum(axis=0), in the order numpy sums an outer axis or, if pairwise, a contiguous one."""
    if pairwise and x.shape[0] >= 8:  # the orders differ from 8 terms on: sum a copy with axis 0 last
        return np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)
    return x.sum(axis=0)


def _logsumexp0(x: np.ndarray, pairwise: bool) -> np.ndarray:
    """scipy.special.logsumexp of finite real input over axis 0, bitwise, overwriting x:
    scipy 1.17's operations without its array-API dispatch (the m maxima are left out of
    the shifted exp-sum, which is divided by m before log1p), summed in _sum0's order."""
    x_max = x.max(axis=0)
    not_max = x != x_max
    m = x.shape[0] - not_max.sum(axis=0, dtype=x.dtype)
    np.subtract(x, x_max, out=x)
    np.exp(x, out=x)
    x *= not_max
    return np.log1p(_sum0(x, pairwise) / m) + np.log(m) + x_max


def sinkhorn_stack(
    costs: np.ndarray, epsilons: np.ndarray, a: np.ndarray | None = None,
    b: np.ndarray | None = None, max_iters: int = 500, tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropic transport plans of K problems, (K, B, R) costs, by log-domain
    Sinkhorn iterations on all of them at once; each plan is that of its problem alone.
    Returns the (K, B, R) plans, each problem's sweep count and whether it converged.

    The dual potentials f, g are updated with log-sum-exp reductions, so the
    kernel exp(-C / epsilon) is never formed and cannot underflow. Each sweep
    ends with the g update, which makes the column sums equal b up to
    rounding (about 1e-14), so only the row marginal is checked: a problem's
    plan is taken at the first sweep where its worst violation is below tol,
    or at sweep max_iters, and reports which. A problem leaves the working
    arrays in the sweep its plan is taken.

    Every reduction runs over axis 0, where numpy reduces fastest, of one of two copies
    of the log-kernel: (R, K, B) for sums over rules and (B, K, R) for sums over rows.
    The sums keep numpy's order for the (K, B, R) layout: pairwise over the contiguous
    rule axis, in sequence over the strided rows, but pairwise over rows at one rule.
    """
    costs = np.asarray(costs, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if costs.ndim != 3 or costs.size == 0:
        raise ShapeError("cost stack must be a non-empty 3-D array")
    if not np.all(np.isfinite(costs)):
        raise ValidationError("cost matrix must be finite")
    if epsilons.shape != costs.shape[:1] or not np.all(np.isfinite(epsilons) & (epsilons > 0)):
        raise ValidationError(f"epsilon must be positive, got {epsilons}")
    if max_iters < 1 or tol <= 0:
        raise ValidationError("max_iters must be >= 1 and tol positive")
    n_problems, n_rows, n_cols = costs.shape
    a = _check_marginal(a, n_rows, "row")
    b = _check_marginal(b, n_cols, "column")
    by_rule = -costs.transpose(2, 0, 1).copy() / epsilons[:, None]  # the log-kernel -C / epsilon,
    by_row = -costs.transpose(1, 0, 2).copy() / epsilons[:, None]  # rules first and rows first
    log_a, log_b = np.log(a), np.log(b)
    plans = np.empty_like(costs)
    iterations = np.empty(n_problems, dtype=np.int64)
    converged = np.zeros(n_problems, dtype=bool)
    live = np.arange(n_problems)  # the problems still in the working arrays
    g = np.zeros((n_problems, n_cols))
    for iteration in range(1, max_iters + 1):
        f = log_a - _logsumexp0(by_rule + g.T[:, :, None], True)
        g = log_b - _logsumexp0(by_row + f.T[:, :, None], n_cols == 1)
        plan = f + g.T[:, :, None] + by_rule  # (R, K, B)
        np.exp(plan, out=plan)
        done = np.abs(_sum0(plan, True) - a).max(axis=1) < tol
        converged[live[done]] = True
        done |= iteration == max_iters
        if done.any():
            plans[live[done]] = plan[:, done].transpose(1, 2, 0)
            iterations[live[done]] = iteration
            live, g, by_rule, by_row = live[~done], g[~done], by_rule[:, ~done], by_row[:, ~done]
            if live.size == 0:
                break
    return plans, iterations, converged


def stack_epsilons(costs: np.ndarray, epsilon_scale: float) -> np.ndarray:
    """Scale-adaptive regularizers of a (K, B, R) cost stack: epsilon_scale times
    each problem's median cost, or its largest where that is 0, or 1.0."""
    flat = costs.reshape(costs.shape[0], -1)
    scale = np.median(flat, axis=1)
    scale = np.where(scale > 0, scale, flat.max(axis=1))
    return epsilon_scale * np.where(scale > 0, scale, 1.0)


class Aligner:
    """Pseudo-labels for batches of one feature matrix's rows against the encoders' rules.

    Every row is encoded once, COST_BLOCK_ROWS rows at a time, and its costs against
    the rule embeddings are kept. A batch's transport cost is each row's plan-weighted
    mean cost c; its pseudo-label is sigmoid((mean - c) / (tau * std + eps)), where
    mean and std are the first batch's, then an EMA with the momentum of each later
    batch's, carried over in the order given from one call to the next. Plans and
    unconverged plans are counted.
    """

    def __init__(self, encoders: EncoderModel, cfg: AlignmentConfig | None, features: np.ndarray):
        if encoders.se.input_dim != features.shape[1]:
            raise ShapeError(
                f"feature width {features.shape[1]} does not match encoder width "
                f"{encoders.se.input_dim}"
            )
        ruleset = encoders.ruleset
        cfg = self.cfg = cfg if cfg is not None else AlignmentConfig()
        rule_embeds = rule_encode(encoders.re, ruleset)
        self.col_marginal = None  # uniform, or proportional to the floored rule weights
        if cfg.weighted_marginals:
            floored = np.maximum(ruleset.weights, cfg.weight_floor)
            self.col_marginal = floored / floored.sum()
        self.mean = self.std = 0.0  # the calibration, set by the first batch labeled
        self.plans = self.unconverged = 0
        self.cost = np.concatenate([
            cost_matrix(sample_encode(encoders.se, features[start : start + COST_BLOCK_ROWS]), rule_embeds)
            for start in range(0, features.shape[0], COST_BLOCK_ROWS)
        ])

    def label(self, batches: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Transport costs and pseudo-labels of each batch of row indices, with one Sinkhorn
        solve per batch size: bitwise as if each batch were encoded and solved alone."""
        for k, batch in enumerate(batches):
            if batch.size == 0:
                raise ValidationError(f"batch {k} of {len(batches)} is empty")
        solved = {}  # batch position -> (its transport costs, whether its plan converged)
        for size in {batch.size for batch in batches}:
            group = [k for k, batch in enumerate(batches) if batch.size == size]
            costs = self.cost[np.stack([batches[k] for k in group])]  # the only copy of the rows' costs
            plans, _, converged = sinkhorn_stack(
                costs, stack_epsilons(costs, self.cfg.epsilon_scale), b=self.col_marginal,
                max_iters=self.cfg.max_iters, tol=self.cfg.tol,
            )
            row_mass = plans.sum(axis=2)
            if np.any(row_mass <= 0) or not np.all(np.isfinite(row_mass)):
                raise NumericError("transport plan has a non-positive row mass")
            solved.update(zip(group, zip((plans * costs).sum(axis=2) / row_mass, converged)))
        labeled = []
        for k in range(len(batches)):  # calibrated in list order
            batch_costs, converged = solved[k]
            if not np.all(np.isfinite(batch_costs)):
                raise NumericError("non-finite transport costs in calibration update")
            batch_mean, batch_std = float(batch_costs.mean()), float(batch_costs.std())
            if self.plans == 0:
                self.mean, self.std = batch_mean, batch_std
            else:
                rho = self.cfg.momentum
                self.mean = rho * self.mean + (1.0 - rho) * batch_mean
                self.std = rho * self.std + (1.0 - rho) * batch_std
            self.plans += 1
            self.unconverged += not converged
            targets = nn.sigmoid((self.mean - batch_costs) / (self.cfg.tau * self.std + self.cfg.eps))
            labeled.append((batch_costs, targets))
        return labeled

    def warn_unconverged(self, where: str) -> None:
        if self.unconverged:
            logger.warning(
                "%s: %d of %d transport plans stopped at max_iters=%d before converging",
                where, self.unconverged, self.plans, self.cfg.max_iters,
            )
