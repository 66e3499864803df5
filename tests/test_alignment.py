"""Entropic transport: independent fixed-point oracle, calibration, labels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logsumexp

from clevercatch import nn
from clevercatch.alignment import (
    AlignmentConfig,
    _logsumexp,
    CalibrationState,
    TransportPlan,
    align_batch,
    batch_epsilon,
    cost_matrix,
    pseudo_labels,
    rule_marginal,
    sinkhorn,
    transport_cost,
    update_calibration,
)
from clevercatch.errors import ContractError, ShapeError, ValidationError


def oracle_sinkhorn(cost, epsilon, a, b, tol=1e-12, max_iters=200_000):
    """Plain scaling iterations in log space, run to a tight fixed point."""
    log_k = -np.asarray(cost, dtype=np.float64) / epsilon
    f = np.zeros(cost.shape[0])
    g = np.zeros(cost.shape[1])
    log_a = np.log(a)
    log_b = np.log(b)
    for _ in range(max_iters):
        f_new = log_a - _logsumexp_rows(log_k + g[None, :])
        g_new = log_b - _logsumexp_rows((log_k + f_new[:, None]).T)
        delta = max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
        f, g = f_new, g_new
        if delta < tol:
            break
    return np.exp(f[:, None] + g[None, :] + log_k)


def _logsumexp_rows(m):
    peak = m.max(axis=1, keepdims=True)
    return (peak + np.log(np.exp(m - peak).sum(axis=1, keepdims=True))).ravel()


def random_marginal(rng, size):
    m = rng.uniform(0.2, 1.0, size)
    return m / m.sum()


def test_cost_matrix_hand_value():
    samples = np.array([[0.0, 0.0]])
    rules = np.array([[3.0, 4.0]])
    assert cost_matrix(samples, rules)[0, 0] == 25.0
    with pytest.raises(ShapeError):
        cost_matrix(samples, np.zeros((1, 3)))


def test_sinkhorn_diagonal_dominance():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = sinkhorn(cost, epsilon=0.1)
    assert plan.converged
    matrix = plan.matrix
    assert matrix[0, 0] > matrix[0, 1]
    assert matrix[1, 1] > matrix[1, 0]
    oracle = oracle_sinkhorn(cost, 0.1, np.full(2, 0.5), np.full(2, 0.5))
    assert np.max(np.abs(matrix - oracle)) < 1e-6


def test_sinkhorn_matches_oracle_on_random_problems():
    rng = nn.make_rng(17)
    for trial in range(50):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 33))
        cost = rng.uniform(0.0, 5.0, (n, m))
        a = random_marginal(rng, n)
        b = random_marginal(rng, m)
        epsilon = float(rng.uniform(0.05, 1.0))
        plan = sinkhorn(cost, epsilon, a=a, b=b, max_iters=20_000, tol=1e-9)
        assert plan.converged, f"trial {trial} did not converge"
        assert np.abs(plan.matrix.sum(axis=1) - a).max() < 1e-6
        assert np.abs(plan.matrix.sum(axis=0) - b).max() < 1e-6
        oracle = oracle_sinkhorn(cost, epsilon, a, b)
        assert np.max(np.abs(plan.matrix - oracle)) < 1e-6, f"trial {trial}"


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(1, 2_000),
    n_cols=st.integers(1, 11),
    weighted=st.booleans(),
    scale=st.sampled_from([0.01, 0.05, 0.2, 1.0]),
)
def test_sinkhorn_plans_keep_column_marginal(seed, n_rows, n_cols, weighted, scale):
    # only the row marginal is checked; every sweep ends with the g update,
    # which leaves the column sums on b up to rounding
    rng = nn.make_rng(seed)
    cost = cost_matrix(rng.normal(size=(n_rows, 4)), rng.normal(size=(n_cols, 4)))
    b = random_marginal(rng, n_cols) if weighted else None
    plan = sinkhorn(cost, batch_epsilon(cost, scale), b=b)
    assert np.abs(plan.matrix.sum(axis=0) - plan.col_marginal).max() <= 1e-12


def test_sinkhorn_constant_shift_invariance():
    rng = nn.make_rng(3)
    cost = rng.uniform(0.0, 4.0, (12, 7))
    a = random_marginal(rng, 12)
    b = random_marginal(rng, 7)
    base = sinkhorn(cost, 0.3, a=a, b=b, max_iters=20_000, tol=1e-11)
    shifted = sinkhorn(cost + 2.5, 0.3, a=a, b=b, max_iters=20_000, tol=1e-11)
    assert np.max(np.abs(base.matrix - shifted.matrix)) < 2e-6


def test_sinkhorn_small_epsilon_uses_log_domain():
    # at this scale the dense kernel exp(-C/eps) underflows to zero rows
    cost = np.array([[800.0, 900.0], [900.0, 800.0]])
    plan = sinkhorn(cost, epsilon=1.0)
    assert plan.converged
    assert np.all(np.isfinite(plan.matrix))
    assert np.abs(plan.matrix.sum(axis=1) - 0.5).max() < 1e-6


def test_sinkhorn_validation():
    cost = np.ones((2, 2))
    with pytest.raises(ValidationError):
        sinkhorn(cost, epsilon=0.0)
    with pytest.raises(ValidationError):
        sinkhorn(np.array([[np.inf, 1.0], [1.0, 1.0]]), epsilon=0.1)
    with pytest.raises(ValidationError):
        sinkhorn(cost, 0.1, a=np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        sinkhorn(cost, 0.1, b=np.array([1.0, -0.0000001]))
    with pytest.raises(ShapeError):
        sinkhorn(np.ones(3), epsilon=0.1)


def test_transport_cost_weighted_mean():
    plan = TransportPlan(np.array([[0.25, 0.25]]), np.array([0.5, 0.5]), converged=True, iterations=1)
    cost = np.array([[1.0, 3.0]])
    assert transport_cost(plan, cost)[0] == pytest.approx(2.0)


def test_calibration_first_batch_then_ema():
    state = CalibrationState(momentum=0.9)
    update_calibration(state, np.array([1.0, 1.0]))
    assert state.initialized
    assert state.mean == 1.0
    assert state.std == 0.0
    update_calibration(state, np.array([2.0, 2.0]))
    assert state.mean == pytest.approx(1.1)
    assert state.std == pytest.approx(0.0)
    with pytest.raises(ValidationError):
        update_calibration(state, np.array([]))


def test_pseudo_labels_hand_value():
    state = CalibrationState()
    state.mean, state.std, state.initialized = 1.0, 0.5, True
    labels = pseudo_labels(np.array([0.5]), state, tau=1.0, eps=1e-6)
    assert labels[0] == pytest.approx(expit((1.0 - 0.5) / (0.5 + 1e-6)), abs=1e-12)
    assert labels[0] == pytest.approx(0.731059, abs=1e-5)
    with pytest.raises(ContractError):
        pseudo_labels(np.array([0.5]), CalibrationState(), tau=1.0)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 300),
    n_cols=st.integers(1, 8),
    scale=st.sampled_from([1e-3, 1.0, 50.0, 1e4]),
    decimals=st.sampled_from([None, 0, 1]),
)
def test_logsumexp_is_bitwise_scipy(seed, n_rows, n_cols, scale, decimals):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, scale, (n_rows, n_cols))
    if decimals is not None:  # rounding makes ties, including ties at the maximum
        x = np.round(x, decimals)
    for axis in (0, 1):
        ours, scipys = _logsumexp(x, axis), logsumexp(x, axis=axis)
        assert ours.shape == scipys.shape
        assert ours.tobytes() == scipys.tobytes()


def test_logsumexp_counts_tied_maxima():
    x = np.array([[2.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
    assert _logsumexp(x, 1).tobytes() == logsumexp(x, axis=1).tobytes()
    assert _logsumexp(x, 0).tobytes() == logsumexp(x, axis=0).tobytes()
    assert _logsumexp(x, 1)[1] == np.log(3.0)


@settings(deadline=None)
@given(
    costs=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=20),
    mean=st.floats(-2.0, 2.0),
    std=st.floats(0.01, 3.0),
)
def test_pseudo_labels_monotone_decreasing_in_cost(costs, mean, std):
    state = CalibrationState()
    state.mean, state.std, state.initialized = mean, std, True
    c = np.sort(np.array(costs, dtype=np.float64))
    y = pseudo_labels(c, state)
    assert np.all(np.diff(y) <= 1e-15)
    # mathematically open (0, 1); the sigmoid saturates to the closed ends in float64
    assert np.all((y >= 0.0) & (y <= 1.0))


def test_rule_marginal_modes():
    weights = np.array([0.8, 0.0, 0.2])
    assert rule_marginal(weights, weighted=False, weight_floor=0.05) is None
    m = rule_marginal(weights, weighted=True, weight_floor=0.05)
    floored = np.array([0.8, 0.05, 0.2])
    assert np.allclose(m, floored / floored.sum())
    assert m.sum() == pytest.approx(1.0)


def test_batch_epsilon_guards():
    assert batch_epsilon(np.array([[1.0, 3.0]]), 0.05) == pytest.approx(0.1)
    # zero median falls back to the max, zero max to 1.0
    assert batch_epsilon(np.array([[0.0, 0.0, 4.0]]), 0.1) == pytest.approx(0.4)
    assert batch_epsilon(np.zeros((2, 2)), 0.1) == pytest.approx(0.1)


def test_align_batch_end_to_end():
    rng = nn.make_rng(0)
    samples = rng.normal(size=(10, 4))
    rules = rng.normal(size=(3, 4))
    cfg = AlignmentConfig()
    costs, plan, cost = align_batch(samples, rules, cfg)
    assert costs.shape == (10,)
    assert plan.matrix.shape == (10, 3)
    assert cost.shape == (10, 3)
    assert plan.converged
    # per-sample transport cost is a convex combination of that sample's costs
    assert np.all(costs >= cost.min(axis=1) - 1e-12)
    assert np.all(costs <= cost.max(axis=1) + 1e-12)


def test_alignment_config_validation():
    with pytest.raises(ValidationError):
        AlignmentConfig(epsilon_scale=0.0)
    with pytest.raises(ValidationError):
        AlignmentConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        AlignmentConfig(tau=0.0)
