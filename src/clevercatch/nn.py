"""Dense numeric kernel shared by every learning stage.

Small MLPs over float64 numpy arrays with hand-derived backward passes; no
autodiff graph anywhere. Shapes are validated eagerly and nothing broadcasts
silently. All randomness flows through seeded PCG64 generators so identical
seeds give bitwise-identical runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, NumericError, ParseError, ShapeError, ValidationError

ACTIVATIONS = ("relu", "identity", "sigmoid")

_MAX_SEED = 2**64


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: identical seed, identical stream."""
    if not 0 <= int(seed) < _MAX_SEED:
        raise ValidationError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return np.random.default_rng(int(seed))


def derive_seed(root_seed: int, label: str) -> int:
    """Fan a root seed out to a per-stage seed keyed by a fixed label."""
    if not 0 <= int(root_seed) < _MAX_SEED:
        raise ValidationError(f"seed must be a 64-bit non-negative integer, got {root_seed}")
    payload = int(root_seed).to_bytes(8, "little") + label.encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Uniform init in +/- sqrt(6 / fan_in)."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"layer weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match fan-out {self.weight.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")


@dataclass
class Mlp:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("an MLP needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ShapeError(
                    f"layer widths do not chain: {prev.weight.shape} then {nxt.weight.shape}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def parameter_names(self) -> list[str]:
        out: list[str] = []
        for i in range(len(self.layers)):
            out.append(f"layer{i}.weight")
            out.append(f"layer{i}.bias")
        return out


def mlp_to_json(mlp: Mlp) -> list[dict]:
    """One {weight, bias, activation} entry per layer, for dumps_canonical."""
    return [
        {"weight": layer.weight, "bias": layer.bias, "activation": layer.activation}
        for layer in mlp.layers
    ]


def mlp_from_json(obj, where: str) -> Mlp:
    """Rebuild an MLP from mlp_to_json entries; anything malformed is a ParseError."""
    try:
        layers = [
            Layer(
                np.asarray(entry["weight"], dtype=np.float64),
                np.asarray(entry["bias"], dtype=np.float64),
                entry["activation"],
            )
            for entry in obj
        ]
        mlp = Mlp(layers)
    except (KeyError, TypeError, ValueError, ValidationError, ShapeError) as exc:
        raise ParseError(f"{where}: malformed network weights: {exc}") from None
    for arr in mlp.parameters():
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{where}: non-finite network weights")
    return mlp


def init_mlp(dims: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> Mlp:
    """Build an MLP with uniform +/- sqrt(6/fan_in) weights and zero biases.

    dims has one more entry than activations: dims[i] -> dims[i+1] per layer.
    """
    if len(dims) < 2 or len(activations) != len(dims) - 1:
        raise ValidationError(
            f"need len(dims) == len(activations) + 1 >= 2, got {len(dims)} and {len(activations)}"
        )
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        weight = he_uniform(rng, fan_in, (fan_in, fan_out))
        layers.append(Layer(weight, np.zeros(fan_out), act))
    return Mlp(layers)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) per element, 0.0 where exp(-x) overflows; bitwise scipy expit.

    It maps libm's exp (math.exp) over the elements, as numpy's exp differs in
    the last bit; 1 / (1 + e) is then the same IEEE arithmetic in numpy. Only
    an input where exp(-x) overflows takes the loop that reads it as inf.
    """
    x = np.asarray(x, dtype=np.float64)
    neg = (-x).ravel().tolist()
    try:
        e = list(map(math.exp, neg))
    except OverflowError:
        e = [_exp_or_inf(v) for v in neg]
    return (1.0 / (1.0 + np.array(e, dtype=np.float64))).reshape(x.shape)


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "identity":
        return z
    return sigmoid(z)


def _activation_grad(a: np.ndarray, activation: str) -> np.ndarray:
    # From the output a. relu picks the zero subgradient at the kink: a > 0 iff z > 0.
    if activation == "relu":
        return (a > 0.0).astype(np.float64)
    if activation == "identity":
        return np.ones_like(a)
    return a * (1.0 - a)


@dataclass
class ForwardCache:
    mlp: Mlp
    activations: list[np.ndarray]  # the input, then each layer's output


def mlp_forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Each row's output, bitwise alike alone or among other rows at the widths tests/test_nn.py
    pins (not at a one-unit output like the detector's): a layer multiplies two copies of a
    one-row input and keeps the first, as a one-row product takes BLAS's matrix-vector path."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"forward input must be 2-D (batch, features), got shape {x.shape}")
    if x.shape[1] != mlp.input_dim:
        raise ShapeError(f"input width {x.shape[1]} does not match network width {mlp.input_dim}")
    activations = [x]
    for layer in mlp.layers:
        a = activations[-1]
        z = a @ layer.weight if a.shape[0] != 1 else (np.repeat(a, 2, axis=0) @ layer.weight)[:1]
        activations.append(_activate(z + layer.bias, layer.activation))
    return activations[-1], ForwardCache(mlp, activations)


def mlp_backward(
    mlp: Mlp, cache: ForwardCache, output_grad: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients; returns (param grads, input grad).

    Parameter gradients are aligned with mlp.parameters() order.
    """
    if cache.mlp is not mlp:
        raise ContractError("forward cache belongs to a different network")
    g = np.asarray(output_grad, dtype=np.float64)
    out = cache.activations[-1]
    if g.shape != out.shape:
        raise ContractError(
            f"output gradient shape {g.shape} does not match forward output {out.shape}"
        )
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(mlp.layers))
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        dz = g * _activation_grad(cache.activations[i + 1], layer.activation)
        grads[2 * i] = cache.activations[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        g = dz @ layer.weight.T
    return grads, g


@dataclass
class OptimizerState:
    """Adam hyperparameters plus the moments owned by optimizer_step."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    moments1: list[np.ndarray] | None = field(default=None, repr=False)
    moments2: list[np.ndarray] | None = field(default=None, repr=False)


def adam(learning_rate: float = 1e-3) -> OptimizerState:
    if learning_rate <= 0:
        raise ValidationError("learning rate must be positive")
    return OptimizerState(learning_rate=learning_rate)


def optimizer_step(
    state: OptimizerState,
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray] | None,
    names: Sequence[str] | None = None,
) -> None:
    """Update parameters in place; state moments are owned by this function.

    grads None is an exactly zero gradient: the moments only decay, bitwise as
    with zero arrays, since a moment is never -0.0 (it starts at +0, beta1 or beta2
    times a non-zero value is not zero, a cancellation gives +0), so adding +0 is a no-op.
    """
    if grads is not None and len(params) != len(grads):
        raise ShapeError(f"{len(params)} parameters but {len(grads)} gradients")
    for i, (p, g) in enumerate(zip(params, grads or ())):
        label = names[i] if names is not None else f"parameter {i}"
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match {label} shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {label}")
    state.step_count += 1
    if state.moments1 is None:
        state.moments1 = [np.zeros_like(p) for p in params]
        state.moments2 = [np.zeros_like(p) for p in params]
    if len(state.moments1) != len(params):
        raise ContractError("optimizer state was initialized for a different parameter list")
    t = state.step_count
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for i, (p, m, v) in enumerate(zip(params, state.moments1, state.moments2)):
        m *= state.beta1
        v *= state.beta2
        if grads is not None:
            m += (1.0 - state.beta1) * grads[i]
            v += (1.0 - state.beta2) * (grads[i] * grads[i])
        p -= state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
