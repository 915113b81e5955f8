"""Dense float64 tensor primitives: batch row-stacking, last-axis softmax,
activations, a central-difference gradient checker that perturbs a tensor in
place, and deterministic seeded gaussian initialization, drawn in row
chunks into float64 or float32.

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


def grad_check(loss: Callable[[], float], arr: np.ndarray,
               analytic: np.ndarray) -> float:
    """Max relative error between `analytic`, the gradient of `loss` with
    respect to `arr`, and central differences with step `FD_STEP`.

    Each element `arr.flat[i]` in turn is moved by +-FD_STEP in place, for
    one call of the zero-argument `loss` each, and restored before the next,
    whatever `loss` does. `arr.flat` walks C order in any memory layout.
    Relative error per element is |analytic - fd| / max(1, |fd|), and inf
    where `analytic` or `fd` (which can overflow) is not finite; the maximum
    over elements is returned, so the result is never NaN.
    """
    if arr.shape != analytic.shape:
        raise ShapeError(
            f"tensor/gradient shape mismatch: {arr.shape} vs {analytic.shape}"
        )
    worst = 0.0
    for i in range(arr.size):
        orig = arr.flat[i]
        try:
            arr.flat[i] = orig + FD_STEP
            fp = loss()
            arr.flat[i] = orig - FD_STEP
            fm = loss()
        finally:
            arr.flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite function value near coordinate {i}")
        fd = (fp - fm) / (2.0 * FD_STEP)
        a = analytic.flat[i]
        # a NaN residual would compare false and drop out of the max
        err = (abs(a - fd) / max(1.0, abs(fd))
               if math.isfinite(a) and math.isfinite(fd) else math.inf)
        worst = max(worst, err)
    return worst


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; bit-stable across platforms."""
    return np.random.Generator(np.random.Philox(key=seed))


FILL_CHUNK = 1 << 16   # elements `seeded_fill` draws at a time


def seeded_fill(seed: int, rows: int, cols: int, sigma: float = 1.0,
                dtype: type = np.float64) -> np.ndarray:
    """Deterministic (seed, shape)-keyed gaussian matrix with std `sigma`.

    Uses the Philox 4x64 counter-based generator so streams are reproducible
    bit-for-bit on any platform for a fixed numpy major line. The float64
    draw runs in chunks of whole rows, about `FILL_CHUNK` elements each (one
    row if a row is wider), each scaled by `sigma`: in place in a float64
    result, or in a float64 chunk cast on assignment into a `dtype` one. The
    stream does not depend on the chunking, so the float64 result is
    `rng_for(seed).standard_normal((rows, cols)) * sigma` bit for bit, a
    float32 result is that cast to float32, and no float64 copy of a
    float32 result is ever held.
    """
    if sigma <= 0:
        raise DomainError(f"gaussian sigma must be > 0, got {sigma}")
    rng = rng_for(seed)
    out = np.empty((rows, cols), dtype=dtype)
    step = max(1, FILL_CHUNK // max(cols, 1))
    for start in range(0, rows, step):
        dst = out[start:start + step]
        part = dst if dst.dtype == np.float64 else np.empty(dst.shape)
        rng.standard_normal(out=part)
        part *= sigma
        if part is not dst:
            dst[...] = part
    return out
