"""Dense float64 tensor primitives: batch row-stacking, last-axis softmax,
activations and the error function GELU reads, a central-difference gradient
checker that perturbs a tensor in place, deterministic seeded gaussian
initialization, drawn in row chunks into float64 or float32, and the float32
image that digests and files hold.

`erf` is the Cephes rational approximation (Moshier 1989), the one
`scipy.special.erf` evaluates, in numpy with Cephes' coefficients and Horner
order: bit for bit scipy's where |x| <= 1, and within 1 ULP beyond, where
`np.exp` stands in for libm's `exp`. numpy is the only numeric dependency.

Everything downstream operates on plain numpy arrays (2D "matrices", 1D
"vectors") in float64. Shapes are validated eagerly so errors surface at the
call site with both shapes named.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """A scalar argument is outside its valid domain."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def stack_rows(arrays: list[np.ndarray]) -> np.ndarray:
    """Row-stack one array per sample; a batch of one comes back uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def float32_image(arr: np.ndarray) -> np.ndarray:
    """`arr` as C-order little-endian float32, values beyond range as +-inf:
    every digest's and bundle payload's format. `<f4` C order is not copied."""
    with np.errstate(over="ignore"):
        return np.ascontiguousarray(arr, dtype="<f4")


def softmax_rows(x: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of x / temperature over the last axis of an array of any
    rank, max-subtracted for stability."""
    if temperature <= 0:
        raise DomainError(f"softmax temperature must be > 0, got {temperature}")
    z = np.asarray(x, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erf(x) = 1 - exp(-x^2) P(|x|) / Q(|x|) beyond. Coefficients run from the
# highest power down; U and Q lead with their implied 1. Cephes' third fit,
# R/S for |x| >= 8, is not needed: there exp(-x^2) P/Q < 2e-29, far below
# half an ULP of 1, so both give exactly 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """coefs[0] x^n + ... + coefs[n] in Cephes' Horner order:
    ((coefs[0] x + coefs[1]) x + coefs[2]) ... + coefs[n]."""
    acc = x * coefs[0]
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, elementwise; keeps the sign of +-0, and erf(nan)
    is nan. The |x| <= 1 fit runs on x clipped to [-1, 1], so no element
    overflows it, and the tail only on the elements beyond."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    inner = np.minimum(flat, 1.0)
    np.maximum(inner, -1.0, out=inner)
    z = inner * inner
    out = inner * _polevl(z, _ERF_T)
    out /= _polevl(z, _ERF_U)
    tail = (np.abs(flat) > 1.0).nonzero()[0]
    if tail.size:
        xt = flat[tail]
        t = np.minimum(np.abs(xt), 8.0)
        y = np.exp(-t * t) * _polevl(t, _ERFC_P)
        y /= _polevl(t, _ERFC_Q)
        out[tail] = np.copysign(1.0 - y, xt)
    return out.reshape(x.shape)


ACT_CHUNK = 1 << 14   # elements `gelu` and `gelu_grad` take at a time


def _by_chunk(fn: Callable, x: np.ndarray) -> np.ndarray:
    """The elementwise `fn` over x, `ACT_CHUNK` elements at a time, so that
    its ufunc passes over each chunk stay in cache."""
    if x.size <= ACT_CHUNK:
        return fn(x)
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, ACT_CHUNK):
        out[start:start + ACT_CHUNK] = fn(flat[start:start + ACT_CHUNK])
    return out.reshape(x.shape)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def gelu(x: np.ndarray) -> np.ndarray:
    return _by_chunk(_gelu, x)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return _by_chunk(_gelu_grad, x)


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
