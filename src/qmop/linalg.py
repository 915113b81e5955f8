"""Dense float64 tensor primitives: shape-checked coercion, last-axis softmax,
activations, a central-difference gradient checker, and deterministic seeded
gaussian initialization.

Everything downstream operates on plain numpy arrays (2D "matrices", 1D
"vectors") in float64. Shapes are validated eagerly so errors surface at the
call site with both shapes named.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """A scalar argument is outside its valid domain."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def as_vector(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"expected a 1D vector, got shape {a.shape}")
    return a


def stack_rows(arrays: list[np.ndarray]) -> np.ndarray:
    """Row-stack one array per sample; a batch of one comes back uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def softmax_rows(x: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of x / temperature over the last axis of an array of any
    rank, max-subtracted for stability."""
    if temperature <= 0:
        raise DomainError(f"softmax temperature must be > 0, got {temperature}")
    z = np.asarray(x, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "gelu": (gelu, gelu_grad),
    "relu": (relu, relu_grad),
}


FD_STEP = 1e-5   # central-difference step of `grad_check`


def grad_check(
    f: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic_grad: np.ndarray,
) -> float:
    """Max relative error between analytic_grad and central differences of f
    with step `FD_STEP`.

    Relative error per coordinate is |analytic - fd| / max(1, |fd|); the
    maximum over coordinates is returned.
    """
    point = as_vector(point)
    analytic_grad = as_vector(analytic_grad)
    if point.shape != analytic_grad.shape:
        raise ShapeError(
            f"point/gradient length mismatch: {point.shape} vs {analytic_grad.shape}"
        )
    worst = 0.0
    x = point.copy()
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + FD_STEP
        fp = f(x)
        x[i] = orig - FD_STEP
        fm = f(x)
        x[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite function value near coordinate {i}")
        fd = (fp - fm) / (2.0 * FD_STEP)
        err = abs(analytic_grad[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; bit-stable across platforms."""
    return np.random.Generator(np.random.Philox(key=seed))


def seeded_fill(seed: int, rows: int, cols: int,
                sigma: float = 1.0) -> np.ndarray:
    """Deterministic (seed, shape)-keyed gaussian matrix with std `sigma`.

    Uses the Philox 4x64 counter-based generator so streams are reproducible
    bit-for-bit on any platform for a fixed numpy major line.
    """
    if sigma <= 0:
        raise DomainError(f"gaussian sigma must be > 0, got {sigma}")
    return rng_for(seed).standard_normal((rows, cols)) * sigma
