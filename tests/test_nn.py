"""Numeric kernel: forward/backward exactness, optimizers, seed derivation."""

import numpy as np
import pytest
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
