"""Numeric kernel: forward/backward exactness, optimizers, seed derivation."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

from clevercatch import nn
from clevercatch.errors import (
    ContractError,
    NumericError,
    ShapeError,
    ValidationError,
)

import oracles


def test_make_rng_deterministic():
    a = nn.make_rng(42).normal(size=8)
    b = nn.make_rng(42).normal(size=8)
    assert np.array_equal(a, b)


def test_make_rng_rejects_bad_seeds():
    with pytest.raises(ValidationError):
        nn.make_rng(-1)
    with pytest.raises(ValidationError):
        nn.make_rng(2**64)


def test_derive_seed_stable_and_label_sensitive():
    s1 = nn.derive_seed(0, "simulate")
    assert s1 == nn.derive_seed(0, "simulate")
    assert s1 != nn.derive_seed(0, "pretrain")
    assert s1 != nn.derive_seed(1, "simulate")
    assert 0 <= s1 < 2**64


def test_relu_layer_hand_computed():
    mlp = nn.Mlp([nn.Layer(np.array([[1.0], [-1.0]]), np.array([0.0]), "relu")])
    out, _ = nn.mlp_forward(mlp, np.array([[2.0, 3.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0  # pre-activation 2 - 3 = -1, clipped by relu


def test_identity_and_sigmoid_activations():
    w = np.array([[2.0]])
    b = np.array([0.5])
    ident = nn.Mlp([nn.Layer(w, b, "identity")])
    sig = nn.Mlp([nn.Layer(w, b, "sigmoid")])
    x = np.array([[3.0]])
    out_i, _ = nn.mlp_forward(ident, x)
    out_s, _ = nn.mlp_forward(sig, x)
    assert out_i[0, 0] == 6.5
    assert out_s[0, 0] == pytest.approx(expit(6.5), abs=1e-15)


@pytest.mark.parametrize("shape", [(4096,), (2048, 1), (0,), (0, 1)])
def test_sigmoid_is_bitwise_scipy_expit(shape):
    rng = nn.make_rng(11)
    x = np.concatenate([
        [np.nan, np.inf, -np.inf, -0.0, 0.0, -760.0, 760.0, -746.0, -745.1, -710.0, 710.0],
        rng.uniform(-746.0, -700.0, 1024),  # where exp(-x) overflows or nearly does
        rng.normal(0.0, 4.0, 2048),
        rng.uniform(-800.0, 800.0, 1024),
    ])[: int(np.prod(shape))].reshape(shape)
    ours = nn.sigmoid(x)
    assert ours.shape == shape and ours.dtype == np.float64
    assert ours.tobytes() == expit(x).tobytes()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scale", [1.0, 40.0])  # 40 saturates the sigmoid head to 0 and 1
def test_backward_is_bitwise_the_preactivation_oracle(seed, scale):
    rng = nn.make_rng(seed)
    mlp = nn.init_mlp([5, 8, 6, 3], ["relu", "identity", "sigmoid"], rng)
    for p in mlp.parameters():
        p *= scale
    x = rng.normal(size=(17, 5))
    x[0] = 0.0  # every relu unit sits on its kink when its bias is zero
    out, cache = nn.mlp_forward(mlp, x)
    ref_out, ref_cache = oracles.mlp_forward(mlp, x)
    assert out.tobytes() == ref_out.tobytes()
    output_grad = rng.normal(size=out.shape)
    grads, dx = nn.mlp_backward(mlp, cache, output_grad)
    ref_grads, ref_dx = oracles.mlp_backward(mlp, ref_cache, output_grad)
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
    assert dx.tobytes() == ref_dx.tobytes()


# Layer widths of the shapes this holds for on the OpenBLAS build measured
# (0.3.31, Sapphire Rapids kernels): every default encoder width and every
# width the tests give the encoders. Outside it, gathered rows can differ in
# the last bit: output widths of 1, 2 or 3 mod 8 (a matrix-vector product at
# width 1), width 4 from about 1 000 rows, input widths from about 600.
GATHER_WIDTHS = [4, 5, 6, 7, 8, 16, 24, 32, 64, 128]


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    rows=st.integers(1, 300),
    in_width=st.integers(1, 256),
    widths=st.lists(st.sampled_from(GATHER_WIDTHS), min_size=1, max_size=3),
    activations=st.lists(st.sampled_from(nn.ACTIVATIONS), min_size=3, max_size=3),
    subset_rows=st.integers(1, 300),
)
@example(seed=7, rows=6000, in_width=105, widths=[128, 64, 32],
         activations=["relu", "relu", "identity"], subset_rows=256)  # the sample encoder on a cohort
@example(seed=7, rows=6000, in_width=105, widths=[128, 64, 32],
         activations=["relu", "relu", "identity"], subset_rows=1)  # ... and on a one-row batch
@example(seed=7, rows=7, in_width=32, widths=[64, 32],
         activations=["relu", "identity", "identity"], subset_rows=256)  # the rule encoder on 7 rules
def test_forward_of_a_row_subset_is_the_gathered_full_forward(
    seed, rows, in_width, widths, activations, subset_rows
):
    """The premise of encoding once and gathering rows (detector training, pretraining),
    one-row inputs included: nn.mlp_forward keeps them off BLAS's matrix-vector path."""
    rng = nn.make_rng(seed)
    mlp = nn.init_mlp([in_width, *widths], activations[: len(widths)], rng)
    x = rng.normal(size=(rows, in_width))
    full, cache = nn.mlp_forward(mlp, x)
    idx = rng.integers(0, rows, size=subset_rows)  # with repeats, as triplets gather rules
    out, sub_cache = nn.mlp_forward(mlp, x[idx])
    assert out.tobytes() == full[idx].tobytes()
    for gathered, alone in zip(cache.activations, sub_cache.activations, strict=True):
        assert gathered[idx].tobytes() == alone.tobytes()


def test_forward_shape_validation():
    mlp = nn.Mlp([nn.Layer(np.eye(3), np.zeros(3), "relu")])
    with pytest.raises(ShapeError):
        nn.mlp_forward(mlp, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        nn.mlp_forward(mlp, np.zeros(3))


def test_layer_width_chaining_validated():
    good = nn.Layer(np.zeros((3, 2)), np.zeros(2), "relu")
    bad = nn.Layer(np.zeros((5, 1)), np.zeros(1), "identity")
    with pytest.raises(ShapeError):
        nn.Mlp([good, bad])


def test_backward_matches_finite_differences():
    rng = nn.make_rng(0)
    mlp = nn.init_mlp([4, 6, 3, 1], ["relu", "relu", "sigmoid"], rng)
    x = rng.normal(size=(5, 4))
    target = rng.uniform(0.1, 0.9, size=(5, 1))

    shapes = [p.shape for p in mlp.parameters()]

    def loss_and_grad(theta):
        values = oracles.unflatten_arrays(theta, shapes)
        for p, v in zip(mlp.parameters(), values):
            p[...] = v
        out, cache = nn.mlp_forward(mlp, x)
        loss = float(((out - target) ** 2).mean())
        grads, _ = nn.mlp_backward(mlp, cache, 2.0 * (out - target) / out.size)
        flat, _ = oracles.flatten_arrays(grads)
        return loss, flat

    theta0, _ = oracles.flatten_arrays(mlp.parameters())
    report = oracles.grad_check(loss_and_grad, theta0)
    assert report.passed, f"max relative error {report.max_rel_err}"


def test_backward_input_gradient():
    rng = nn.make_rng(3)
    mlp = nn.init_mlp([3, 5, 1], ["relu", "identity"], rng)
    x0 = rng.normal(size=(2, 3))

    def loss_and_grad(theta):
        x = theta.reshape(2, 3)
        out, cache = nn.mlp_forward(mlp, x)
        loss = float((out**2).sum())
        _, dx = nn.mlp_backward(mlp, cache, 2.0 * out)
        return loss, dx.ravel()

    report = oracles.grad_check(loss_and_grad, x0.ravel())
    assert report.passed, f"max relative error {report.max_rel_err}"


def test_backward_rejects_foreign_cache():
    rng = nn.make_rng(0)
    a = nn.init_mlp([2, 1], ["identity"], rng)
    b = nn.init_mlp([2, 1], ["identity"], rng)
    out, cache = nn.mlp_forward(a, np.zeros((1, 2)))
    with pytest.raises(ContractError):
        nn.mlp_backward(b, cache, out)


def test_adam_first_step_is_signed_learning_rate():
    # With constant gradient, the first bias-corrected step is
    # -lr * g / (|g| + eps'), i.e. close to -lr * sign(g).
    p = np.array([1.0, -2.0])
    g = np.array([0.3, -0.7])
    state = nn.adam(learning_rate=1e-3)
    nn.optimizer_step(state, [p], [g])
    step = p - np.array([1.0, -2.0])
    assert np.allclose(step, -1e-3 * np.sign(g), rtol=1e-3)


@pytest.mark.parametrize("warm_steps", [0, 3])
def test_adam_takes_the_same_bits_from_positive_zeros_as_from_a_zero_backward(warm_steps):
    # pretraining hands Adam None, a zero gradient, in place of the backward
    # of a zero output gradient, whose entries are zeros of either sign
    rng = nn.make_rng(11)
    mlp = nn.init_mlp([5, 8, 3], ["relu", "identity"], rng)
    _, cache = nn.mlp_forward(mlp, rng.normal(size=(9, 5)))
    backward, _ = nn.mlp_backward(mlp, cache, np.full((9, 3), -0.0))
    assert not any(g.any() for g in backward)
    negative = [np.full_like(g, -0.0) for g in backward]
    warm = [
        nn.mlp_backward(mlp, cache, rng.normal(size=(9, 3)))[0] for _ in range(warm_steps)
    ]
    runs = []
    for zeros in (backward, negative, [np.zeros_like(g) for g in backward], None):
        params = [p.copy() for p in mlp.parameters()]
        state = nn.adam(learning_rate=1e-2)
        for grads in warm:
            nn.optimizer_step(state, params, grads)
        for _ in range(3):
            nn.optimizer_step(state, params, zeros)
        runs.append([a.tobytes() for a in params + state.moments1 + state.moments2])
    assert runs[0] == runs[1] == runs[2] == runs[3]


def adam_state(case):
    """An Adam state and its parameters: fresh, mid-run after negative moments,
    or at +/-0.0 parameters with subnormal moments of both signs."""
    if case == "fresh":
        return nn.adam(1e-2), [np.array([1.5, -2.0, 0.0, -0.0]), np.zeros((2, 3))]
    if case == "mid-run":
        state, params = nn.adam(1e-2), [np.array([0.3, -0.7, 1.0]), np.array([[2.0, -1.0]])]
        for grads in ([np.array([1.0, 2.0, -3.0]), np.array([[0.5, 0.5]])],
                      [np.array([-4.0, -9.0, 1.0]), np.array([[-2.0, -0.25]])]):
            nn.optimizer_step(state, params, grads)
        assert all((m < 0).any() for m in state.moments1)
        return state, params
    tiny = np.array([5e-324, -5e-324, 2.2e-308, -1e-310, 0.0, 3.0])
    state = dataclasses.replace(nn.adam(1e-3), step_count=5, moments1=[tiny.copy()],
                                moments2=[np.abs(tiny)])
    return state, [np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])]


@pytest.mark.parametrize("case", ["fresh", "mid-run", "signed zeros"])
def test_a_none_gradient_steps_as_zero_arrays_do(case):
    state, params = adam_state(case)
    runs = []
    for explicit in (True, False):
        run, ps = copy.deepcopy(state), [p.copy() for p in params]
        for _ in range(4):
            nn.optimizer_step(run, ps, [np.zeros_like(p) for p in ps] if explicit else None)
        runs.append([a.tobytes() for a in ps + run.moments1 + run.moments2] + [run.step_count])
    assert runs[0] == runs[1]


def test_adam_rejects_non_finite_gradient():
    p = np.array([1.0])
    state = nn.adam()
    with pytest.raises(NumericError):
        nn.optimizer_step(state, [p], [np.array([np.nan])])


def test_optimizer_shape_mismatch():
    state = nn.adam(0.1)
    with pytest.raises(ShapeError):
        nn.optimizer_step(state, [np.zeros(2)], [np.zeros(3)])


def test_init_mlp_determinism_and_validation():
    a = nn.init_mlp([3, 4, 1], ["relu", "sigmoid"], nn.make_rng(7))
    b = nn.init_mlp([3, 4, 1], ["relu", "sigmoid"], nn.make_rng(7))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    with pytest.raises(ValidationError):
        nn.init_mlp([3], [], nn.make_rng(0))
    with pytest.raises(ValidationError):
        nn.init_mlp([3, 1], ["relu", "relu"], nn.make_rng(0))


def test_flatten_unflatten_round_trip():
    arrays = [np.arange(6.0).reshape(2, 3), np.array([7.0]), np.zeros((1, 1))]
    flat, shapes = oracles.flatten_arrays(arrays)
    back = oracles.unflatten_arrays(flat, shapes)
    for a, b in zip(arrays, back):
        assert np.array_equal(a, b)
    with pytest.raises(ShapeError):
        oracles.unflatten_arrays(flat[:-1], shapes)


def test_grad_check_catches_wrong_gradient():
    def wrong(theta):
        return float((theta**2).sum()), 3.0 * theta  # true gradient is 2 * theta

    report = oracles.grad_check(wrong, np.array([1.0, 2.0]))
    assert not report.passed


def test_zero_gradient_adam_updates_shrink_at_every_step():
    # encoders.pretrain stops early on this bound: with a zero gradient, step t + 1
    # moves a parameter by at most this ratio times step t's move (eps only lowers it)
    state = nn.adam()
    b1, b2 = state.beta1, state.beta2
    t = np.arange(1, 10**6 + 1, dtype=np.float64)
    ratio = b1 * (1 - b1**t) / (1 - b1 ** (t + 1)) * np.sqrt((1 - b2 ** (t + 1)) / (b2 * (1 - b2**t)))
    assert ratio.max() < 0.912
    assert t[ratio.argmax()] == 28 and round(float(ratio.max()), 4) == 0.9111
