"""Entropic optimal-transport alignment between sample and rule embeddings.

A batch of sample embeddings is coupled to the rule embeddings through a
Sinkhorn plan over squared Euclidean costs. Each sample's plan-weighted mean
cost is calibrated against running batch statistics and squashed through a
sigmoid, giving a pseudo-label in (0, 1): samples that sit close to the rule
embeddings (i.e. exhibit rule-satisfying contrast patterns) score high.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ContractError, NumericError, ShapeError, ValidationError


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


def cost_matrix(samples: np.ndarray, rules: np.ndarray) -> np.ndarray:
    """Exact pairwise squared Euclidean distances, shape (B, R)."""
    samples = np.asarray(samples, dtype=np.float64)
    rules = np.asarray(rules, dtype=np.float64)
    if samples.ndim != 2 or rules.ndim != 2:
        raise ShapeError("cost matrix inputs must be 2-D (batch, latent)")
    if samples.shape[1] != rules.shape[1]:
        raise ShapeError(
            f"latent widths differ: samples {samples.shape[1]}, rules {rules.shape[1]}"
        )
    diff = samples[:, None, :] - rules[None, :, :]
    return (diff * diff).sum(axis=2)


@dataclass
class TransportPlan:
    matrix: np.ndarray  # (B, R) strictly positive entries
    col_marginal: np.ndarray  # (R,)
    converged: bool
    iterations: int


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


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """scipy.special.logsumexp of finite real input along one axis, bitwise.

    The same operations in the same order as scipy 1.17, without its
    array-API dispatch, which dominates the cost on small batches: the m
    entries equal to the maximum are left out of the shifted exp-sum, which is
    divided by m before log1p.
    """
    x_max = x.max(axis=axis, keepdims=True)
    is_max = x == x_max
    m = is_max.sum(axis=axis, keepdims=True, dtype=x.dtype)
    s = np.exp(np.where(is_max, -np.inf, x) - x_max).sum(axis=axis, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + x_max).squeeze(axis)


def sinkhorn(
    cost: np.ndarray,
    epsilon: float,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    max_iters: int = 500,
    tol: float = 1e-9,
) -> TransportPlan:
    """Entropic transport plan by log-domain Sinkhorn iterations.

    The dual potentials f, g are updated with log-sum-exp reductions, so the
    kernel exp(-C / epsilon) is never formed and cannot underflow. Each sweep
    ends with the g update, which makes the column sums equal b up to
    rounding (about 1e-14), so only the row marginal is checked: the solver
    stops when its worst violation drops below tol or after max_iters sweeps,
    reporting convergence in the returned plan.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ShapeError("cost matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix must be finite")
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if max_iters < 1 or tol <= 0:
        raise ValidationError("max_iters must be >= 1 and tol positive")
    n_rows, n_cols = cost.shape
    a = _check_marginal(a, n_rows, "row")
    b = _check_marginal(b, n_cols, "column")
    log_kernel = -cost / epsilon
    log_a = np.log(a)
    log_b = np.log(b)
    f = np.zeros(n_rows)
    g = np.zeros(n_cols)
    plan = None
    for iteration in range(1, max_iters + 1):
        f = log_a - _logsumexp(log_kernel + g[None, :], axis=1)
        g = log_b - _logsumexp(log_kernel + f[:, None], axis=0)
        plan = np.exp(f[:, None] + g[None, :] + log_kernel)
        if np.abs(plan.sum(axis=1) - a).max() < tol:
            return TransportPlan(plan, b, True, iteration)
    return TransportPlan(plan, b, False, max_iters)


def transport_cost(plan: TransportPlan, cost: np.ndarray) -> np.ndarray:
    """Per-sample plan-weighted mean cost: sum_j T_ij C_ij / sum_j T_ij."""
    matrix = plan.matrix
    cost = np.asarray(cost, dtype=np.float64)
    if matrix.shape != cost.shape:
        raise ShapeError(f"plan shape {matrix.shape} does not match cost shape {cost.shape}")
    row_mass = matrix.sum(axis=1)
    if np.any(row_mass <= 0) or not np.all(np.isfinite(row_mass)):
        raise NumericError("transport plan has a non-positive row mass")
    return (matrix * cost).sum(axis=1) / row_mass


@dataclass
class CalibrationState:
    """Running location/scale of transport costs, EMA after the first batch."""

    momentum: float = 0.99
    mean: float = 0.0
    std: float = 0.0
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")


def update_calibration(state: CalibrationState, costs: np.ndarray) -> CalibrationState:
    """Fold one batch of costs into the state (in place); first batch initializes."""
    costs = np.asarray(costs, dtype=np.float64).ravel()
    if costs.size == 0:
        raise ValidationError("cannot calibrate on an empty batch")
    if not np.all(np.isfinite(costs)):
        raise NumericError("non-finite transport costs in calibration update")
    batch_mean = float(costs.mean())
    batch_std = float(costs.std())
    if not state.initialized:
        state.mean = batch_mean
        state.std = batch_std
        state.initialized = True
    else:
        rho = state.momentum
        state.mean = rho * state.mean + (1.0 - rho) * batch_mean
        state.std = rho * state.std + (1.0 - rho) * batch_std
    return state


def pseudo_labels(
    costs: np.ndarray, state: CalibrationState, tau: float = 1.0, eps: float = 1e-6
) -> np.ndarray:
    """Sigmoid-calibrated scores: low transport cost maps to a label near 1."""
    if not state.initialized:
        raise ContractError("calibration state is not initialized; update it with a batch first")
    if tau <= 0 or eps <= 0:
        raise ValidationError("tau and eps must be positive")
    costs = np.asarray(costs, dtype=np.float64)
    return expit((state.mean - costs) / (tau * state.std + eps))


def rule_marginal(weights: np.ndarray, weighted: bool, weight_floor: float) -> np.ndarray | None:
    """Column marginal over rules: uniform, or proportional to floored weights."""
    if not weighted:
        return None
    floored = np.maximum(np.asarray(weights, dtype=np.float64), weight_floor)
    total = floored.sum()
    if total <= 0:
        raise ValidationError("weighted marginals need a positive weight floor")
    return floored / total


def batch_epsilon(cost: np.ndarray, epsilon_scale: float) -> float:
    """Scale-adaptive regularizer: epsilon_scale * median(C) with zero guards."""
    scale = float(np.median(cost))
    if scale <= 0:
        scale = float(cost.max())
    if scale <= 0:
        scale = 1.0
    return epsilon_scale * scale


def align_batch(
    sample_embeds: np.ndarray,
    rule_embeds: np.ndarray,
    cfg: AlignmentConfig,
    col_marginal: np.ndarray | None = None,
) -> tuple[np.ndarray, TransportPlan, np.ndarray]:
    """Cost matrix, Sinkhorn plan, and per-sample transport cost for one batch."""
    cost = cost_matrix(sample_embeds, rule_embeds)
    epsilon = batch_epsilon(cost, cfg.epsilon_scale)
    plan = sinkhorn(cost, epsilon, b=col_marginal, max_iters=cfg.max_iters, tol=cfg.tol)
    return transport_cost(plan, cost), plan, cost
