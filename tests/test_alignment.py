"""Entropic transport: independent fixed-point oracle, calibration, labels."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit, logsumexp

from clevercatch import alignment, nn
from clevercatch.alignment import (
    AlignmentConfig,
    Aligner,
    _logsumexp0,
    cost_matrix,
    sinkhorn_stack,
    stack_epsilons,
)
from clevercatch.encoders import BLOCK, EncoderModel, PretrainConfig, init_encoders
from clevercatch.errors import NumericError, ShapeError, ValidationError
from clevercatch.rules import Rule, RuleSet
from clevercatch.vocab import Vocabulary

import oracles
from conftest import traced_peak


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


def test_cost_matrix_blocks_give_the_one_pass_entries(monkeypatch):
    rng = nn.make_rng(1)
    samples, rules = rng.normal(size=(23, 5)), rng.normal(size=(4, 5))
    diff = samples[:, None, :] - rules[None, :, :]
    monkeypatch.setattr(alignment, "COST_BLOCK_ROWS", 3)  # 23 rows: the last block holds 2
    assert cost_matrix(samples, rules).tobytes() == (diff * diff).sum(axis=2).tobytes()


def test_cost_matrix_peak_memory_does_not_grow_with_rows():
    rng = nn.make_rng(2)
    rules = rng.normal(size=(7, 16))
    extra = []  # tracemalloc peak above the (rows, R) result
    for rows in (2 * alignment.COST_BLOCK_ROWS, 16 * alignment.COST_BLOCK_ROWS):
        samples = rng.normal(size=(rows, 16))
        extra.append(traced_peak(cost_matrix, samples, rules) - rows * rules.shape[0] * 8)
    block = alignment.COST_BLOCK_ROWS * rules.size * 8  # one (block, R, L) difference
    assert extra[1] <= extra[0] + 4096 and extra[1] < 3 * block


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32),
    n_problems=st.integers(1, 6),
    n_rows=st.integers(1, 20),
    n_cols=st.integers(1, 9),
    weighted=st.booleans(),
    max_iters=st.sampled_from([1, 2, 3, 500]),
)
def test_sinkhorn_stack_solves_each_problem_as_if_alone(
    seed, n_problems, n_rows, n_cols, weighted, max_iters
):
    rng = nn.make_rng(seed)
    costs = rng.uniform(0.0, 5.0, size=(n_problems, n_rows, n_cols))
    epsilons = rng.uniform(0.05, 2.0, size=n_problems)
    b = random_marginal(rng, n_cols) if weighted else None
    plans, iterations, converged = sinkhorn_stack(costs, epsilons, b=b, max_iters=max_iters)
    assert plans.shape == costs.shape and iterations.shape == converged.shape == (n_problems,)
    assert iterations.dtype == np.int64 and converged.dtype == bool
    for k, (cost, epsilon) in enumerate(zip(costs, epsilons, strict=True)):
        alone = sinkhorn_stack(cost[None], np.array([epsilon]), b=b, max_iters=max_iters)
        assert plans[k].tobytes() == alone[0][0].tobytes()
        assert (iterations[k], converged[k]) == (alone[1][0], alone[2][0])


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    n_problems=st.integers(1, 6),
    n_rows=st.integers(1, 300),
    n_cols=st.integers(1, 12),
    decimals=st.sampled_from([None, 0, 1]),
    weighted_rows=st.booleans(),
    weighted_cols=st.booleans(),
    max_iters=st.sampled_from([1, 2, 3, 500]),
)
# one rule: the row sums, pairwise past 8 and 128 terms, are where the orders part
@example(seed=0, n_problems=2, n_rows=300, n_cols=1, decimals=None, weighted_rows=True,
         weighted_cols=False, max_iters=500)
@example(seed=0, n_problems=6, n_rows=300, n_cols=12, decimals=1, weighted_rows=True,
         weighted_cols=True, max_iters=500)
def test_sinkhorn_stack_is_bitwise_the_oracle(
    seed, n_problems, n_rows, n_cols, decimals, weighted_rows, weighted_cols, max_iters
):
    # n_rows crosses numpy's 8- and 128-term pairwise blocks, n_cols the 8-term one,
    # and rounded costs tie at the maximum of a log-sum-exp
    rng = nn.make_rng(seed)
    costs = rng.uniform(0.0, 5.0, size=(n_problems, n_rows, n_cols))
    if decimals is not None:
        costs = np.round(costs, decimals)
    epsilons = rng.uniform(0.05, 2.0, size=n_problems)
    a = random_marginal(rng, n_rows) if weighted_rows else None
    b = random_marginal(rng, n_cols) if weighted_cols else None
    ours = sinkhorn_stack(costs, epsilons, a=a, b=b, max_iters=max_iters)
    expected = oracles.sinkhorn_stack(costs, epsilons, a=a, b=b, max_iters=max_iters)
    for array, oracle in zip(ours, expected, strict=True):  # plans, iterations, converged
        assert array.dtype == oracle.dtype and array.tobytes() == oracle.tobytes()


def test_sinkhorn_stack_growth_per_row():
    # the solver keeps the rule-first and row-first log-kernels, the plans and one
    # sweep's temporaries; a third (K, B, R) log-kernel would pass 384 B a row
    rng = nn.make_rng(4)
    rules = rng.normal(size=(7, 8))
    peaks = []
    for rows in (20_000, 60_000):
        costs = cost_matrix(rng.normal(size=(rows, 8)), rules)[None]
        peaks.append(traced_peak(sinkhorn_stack, costs, stack_epsilons(costs, 0.05)))
    assert (peaks[1] - peaks[0]) / 40_000 <= 384


def test_sinkhorn_diagonal_dominance():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    [matrix], _, [converged] = sinkhorn_stack(cost[None], np.array([0.1]))
    assert converged
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
        [plan], _, [converged] = sinkhorn_stack(
            cost[None], np.array([epsilon]), a=a, b=b, max_iters=20_000, tol=1e-9
        )
        assert converged, f"trial {trial} did not converge"
        assert np.abs(plan.sum(axis=1) - a).max() < 1e-6
        assert np.abs(plan.sum(axis=0) - b).max() < 1e-6
        oracle = oracle_sinkhorn(cost, epsilon, a, b)
        assert np.max(np.abs(plan - oracle)) < 1e-6, f"trial {trial}"


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
    [plan], _, _ = sinkhorn_stack(cost[None], stack_epsilons(cost[None], scale), b=b)
    col_marginal = b if weighted else np.full(n_cols, 1.0 / n_cols)
    assert np.abs(plan.sum(axis=0) - col_marginal).max() <= 1e-12


def test_sinkhorn_constant_shift_invariance():
    rng = nn.make_rng(3)
    cost = rng.uniform(0.0, 4.0, (12, 7))
    a = random_marginal(rng, 12)
    b = random_marginal(rng, 7)
    [base], _, _ = sinkhorn_stack(cost[None], np.array([0.3]), a=a, b=b, max_iters=20_000, tol=1e-11)
    [shifted], _, _ = sinkhorn_stack(cost[None] + 2.5, np.array([0.3]), a=a, b=b, max_iters=20_000, tol=1e-11)
    assert np.max(np.abs(base - shifted)) < 2e-6


def test_sinkhorn_small_epsilon_uses_log_domain():
    # at this scale the dense kernel exp(-C/eps) underflows to zero rows
    cost = np.array([[800.0, 900.0], [900.0, 800.0]])
    [plan], _, [converged] = sinkhorn_stack(cost[None], np.array([1.0]))
    assert converged
    assert np.all(np.isfinite(plan))
    assert np.abs(plan.sum(axis=1) - 0.5).max() < 1e-6


def test_sinkhorn_validation():
    cost = np.ones((2, 2))
    with pytest.raises(ValidationError):
        sinkhorn_stack(cost[None], np.array([0.0]))
    with pytest.raises(ValidationError):
        sinkhorn_stack(np.array([[[np.inf, 1.0], [1.0, 1.0]]]), np.array([0.1]))
    with pytest.raises(ValidationError):
        sinkhorn_stack(cost[None], np.array([0.1]), a=np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        sinkhorn_stack(cost[None], np.array([0.1]), b=np.array([1.0, -0.0000001]))
    with pytest.raises(ShapeError):
        sinkhorn_stack(np.ones(3)[None], np.array([0.1]))


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
        ours, scipys = solver_logsumexp(x, axis), logsumexp(x, axis=axis)
        assert ours.shape == scipys.shape
        assert ours.tobytes() == scipys.tobytes()


def solver_logsumexp(x, axis):
    """_logsumexp0 as sinkhorn_stack calls it: on a copy with the reduced axis first,
    summed pairwise where that axis is contiguous in x, or the only one longer than 1."""
    pairwise = axis == x.ndim - 1 or x.shape[-1] == 1
    return _logsumexp0(np.moveaxis(x, axis, 0).copy(), pairwise)


def test_logsumexp_counts_tied_maxima():
    x = np.array([[2.0, 2.0, 1.0], [0.0, 0.0, 0.0]])
    assert solver_logsumexp(x, 1).tobytes() == logsumexp(x, axis=1).tobytes()
    assert solver_logsumexp(x, 0).tobytes() == logsumexp(x, axis=0).tobytes()
    assert solver_logsumexp(x, 1)[1] == np.log(3.0)


def test_stack_epsilons_guards():
    assert stack_epsilons(np.array([[[1.0, 3.0]]]), 0.05) == pytest.approx([0.1])
    # zero median falls back to the max, zero max to 1.0
    assert stack_epsilons(np.array([[[0.0, 0.0, 4.0]]]), 0.1) == pytest.approx([0.4])
    assert stack_epsilons(np.zeros((1, 2, 2)), 0.1) == pytest.approx([0.1])
    # each problem of a stack takes its own guard
    stack = np.array([[[1.0, 3.0], [2.0, 2.0]], [[0.0, 0.0], [0.0, 4.0]], np.zeros((2, 2))])
    assert stack_epsilons(stack, 0.1) == pytest.approx([0.2, 0.4, 0.1])


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32),
    n_problems=st.integers(1, 6),
    n_rows=st.integers(1, 300),
    n_cols=st.integers(1, 12),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    decimals=st.sampled_from([None, 0]),
    scale=st.sampled_from([0.01, 0.05, 1.0]),
)
def test_stack_epsilons_are_bitwise_each_batch_alone(
    seed, n_problems, n_rows, n_cols, zeros, decimals, scale
):
    rng = nn.make_rng(seed)
    costs = rng.uniform(0.0, 5.0, size=(n_problems, n_rows, n_cols))
    if decimals is not None:
        costs = np.round(costs, decimals)
    costs[rng.uniform(size=n_problems) < zeros, : n_rows // 2 + 1] = 0.0  # median 0, or all 0
    expected = np.array([oracles.batch_epsilon(cost, scale) for cost in costs])
    assert stack_epsilons(costs, scale).tobytes() == expected.tobytes()


def three_rule_aligner(rows, cfg=None, weights=(0.9, 0.5, 0.2)):
    """An Aligner of untrained encoders over `rows` random feature rows of three rules."""
    vocab = Vocabulary(["A", "B", "C"])
    rules = [Rule("binary", "A", "B", weights[0]), Rule("unary", "C", None, weights[1]),
             Rule("binary", "B", "C", weights[2])]
    encoders = EncoderModel(
        *init_encoders(vocab.size, BLOCK * 3, PretrainConfig(), nn.make_rng(0)), RuleSet(rules, vocab)
    )
    return Aligner(encoders, cfg, nn.make_rng(1).normal(0.0, 0.1, (rows, BLOCK * 3)))


def aligner_on_costs(cost_rows, cfg=None):
    """A three-rule Aligner whose rows' costs against the rules are cost_rows."""
    aligner = three_rule_aligner(len(cost_rows), cfg)
    aligner.cost = np.array(cost_rows, dtype=np.float64)
    return aligner


def test_aligner_labels_a_batch_end_to_end():
    aligner = three_rule_aligner(10)
    [(costs, labels)] = aligner.label([np.arange(10)])
    assert costs.shape == labels.shape == (10,)
    assert aligner.cost.shape == (10, 3)
    assert (aligner.plans, aligner.unconverged) == (1, 0)
    assert np.all((labels > 0.0) & (labels < 1.0))
    # per-sample transport cost is a convex combination of that sample's costs
    assert np.all(costs >= aligner.cost.min(axis=1) - 1e-12)
    assert np.all(costs <= aligner.cost.max(axis=1) + 1e-12)


def test_aligner_calibration_carries_over_between_calls():
    batches = [np.array([3, 0, 7]), np.array([5]), np.array([1, 2, 4]), np.array([9, 6])]
    together = three_rule_aligner(10).label(batches)
    aligner = three_rule_aligner(10)
    one_by_one = [labeled for batch in batches for labeled in aligner.label([batch])]
    assert aligner.plans == len(batches)
    for (costs, labels), (expected_costs, expected_labels) in zip(one_by_one, together, strict=True):
        assert costs.tobytes() == expected_costs.tobytes()
        assert labels.tobytes() == expected_labels.tobytes()


def test_aligner_transport_cost_is_the_plan_weighted_mean():
    # a one-row plan is the column marginal, uniform over the three rules
    [(costs, _)] = aligner_on_costs([[1.0, 3.0, 2.0]]).label([np.array([0])])
    assert costs[0] == pytest.approx(2.0)


def test_aligner_rejects_a_plan_without_row_mass():
    # the median cost is the smallest normal float: -C / epsilon overflows and the plan is lost
    aligner = aligner_on_costs([[0.0] * 3, [1.0] * 3, [np.finfo(float).tiny] * 3])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-positive row mass"):
        aligner.label([np.arange(3)])


def test_aligner_rejects_an_empty_batch():
    # numpy once raised "zero-size array to reduction operation maximum" from stack_epsilons
    aligner = three_rule_aligner(4)
    with pytest.raises(ValidationError, match="^batch 1 of 3 is empty$"):
        aligner.label([np.array([0, 1]), np.array([], dtype=np.int64), np.array([2])])
    assert aligner.plans == 0


def test_aligner_calibration_first_batch_then_ema():
    aligner = aligner_on_costs([[1.0] * 3, [1.0] * 3, [2.0] * 3, [2.0] * 3], AlignmentConfig(momentum=0.9))
    [(costs, _)] = aligner.label([np.array([0, 1])])
    assert costs.tolist() == [1.0, 1.0]
    assert (aligner.mean, aligner.std) == (1.0, 0.0)
    [(costs, _)] = aligner.label([np.array([2, 3])])
    assert costs.tolist() == [2.0, 2.0]
    assert aligner.mean == pytest.approx(1.1)
    assert aligner.std == pytest.approx(0.0)


def test_aligner_pseudo_label_hand_value():
    # the batch's costs are 0.5 and 1.5: it calibrates to mean 1.0 and std 0.5
    aligner = aligner_on_costs([[0.5] * 3, [1.5] * 3])
    [(_, labels)] = aligner.label([np.array([0, 1])])
    assert aligner.mean == pytest.approx(1.0) and aligner.std == pytest.approx(0.5)
    assert labels[0] == pytest.approx(expit((1.0 - 0.5) / (0.5 + 1e-6)), abs=1e-12)
    assert labels[0] == pytest.approx(0.731059, abs=1e-5)


COSTS = st.integers(0, 500).map(lambda i: i / 100)  # squared distances, kept clear of subnormals


@settings(deadline=None)
@given(
    prior=st.lists(COSTS, min_size=1, max_size=20),
    costs=st.lists(COSTS, min_size=2, max_size=20),
)
def test_aligner_pseudo_labels_monotone_decreasing_in_cost(prior, costs):
    # the prior batch sets the calibration that the second batch's labels carry on from
    aligner = aligner_on_costs([[c] * 3 for c in prior + costs])
    indices = np.arange(len(prior) + len(costs))
    _, (c, y) = aligner.label([indices[: len(prior)], indices[len(prior) :]])
    order = np.argsort(c, kind="stable")
    assert np.all(np.diff(y[order]) <= 1e-15)
    # mathematically open (0, 1); the sigmoid saturates to the closed ends in float64
    assert np.all((y >= 0.0) & (y <= 1.0))


def test_aligner_column_marginal_modes():
    weights = (0.8, 0.0, 0.2)
    assert three_rule_aligner(4, weights=weights).col_marginal is None  # uniform
    weighted = three_rule_aligner(4, AlignmentConfig(weighted_marginals=True, weight_floor=0.05), weights)
    floored = np.array([0.8, 0.05, 0.2])
    assert np.allclose(weighted.col_marginal, floored / floored.sum())
    assert weighted.col_marginal.sum() == pytest.approx(1.0)
    [(uniform_costs, _)] = three_rule_aligner(4, weights=weights).label([np.arange(4)])
    [(weighted_costs, _)] = weighted.label([np.arange(4)])
    assert not np.allclose(uniform_costs, weighted_costs)


def test_alignment_config_validation():
    with pytest.raises(ValidationError):
        AlignmentConfig(epsilon_scale=0.0)
    with pytest.raises(ValidationError):
        AlignmentConfig(momentum=1.0)
    with pytest.raises(ValidationError):
        AlignmentConfig(tau=0.0)
