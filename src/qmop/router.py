"""Query-guided gating: a two-layer MLP over each sample's joint image-text
context vector produces softmax weights over the branches, with temperature
and optional Gumbel noise, plus top-k / threshold branch selection. The gate
runs once over a batch: one `GateWeights` holds one row per sample, and row
i draws its noise at the batch's seed plus i.

`BRANCHES` is the one place that names the branches and fixes their order:
gate weights, fusion, the stage-1 concat and the cost model all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import FeatureBundle
from .linalg import ACTIVATIONS, DomainError, ShapeError, rng_for, softmax_rows

BRANCHES = ("pool", "resample", "prune")


@dataclass
class RouterParams:
    w1: np.ndarray  # d x (C1+C2)
    b1: np.ndarray  # d
    w2: np.ndarray  # len(BRANCHES) x d
    b2: np.ndarray  # len(BRANCHES)
    activation: str


@dataclass
class GateWeights:
    alpha: np.ndarray    # B x branches in BRANCHES order, rows sum to 1
    tau_used: float
    gumbel_applied: bool
    # read by the router backward: context, hidden pre-activation, activation
    f: np.ndarray
    h1: np.ndarray
    a1: np.ndarray


@dataclass
class ActiveSet:
    members: tuple[str, ...]
    renorm_weights: np.ndarray  # over members, sums to 1


def hidden_width(context: int, router_hidden: int | None) -> int:
    """`router_hidden`, or by default half the context length rounded up."""
    return router_hidden if router_hidden is not None else -(-context // 2)


def build_context(bundles: list[FeatureBundle]) -> np.ndarray:
    """B x (C+C2): each bundle's class token, then its text EOS token."""
    if not bundles[0].cls_token.size or not bundles[0].eos_token.size:
        raise ShapeError("context halves must be nonempty")
    return np.stack([np.concatenate([b.cls_token, b.eos_token])
                     for b in bundles])


def sample_gumbel(rng: np.random.Generator, n: int) -> np.ndarray:
    """-log(-log(u)) with u strictly inside (0, 1)."""
    u = rng.random(n)
    while np.any(u <= 0.0):  # rng.random() excludes 1.0 already
        u[u <= 0.0] = rng.random(int(np.sum(u <= 0.0)))
    return -np.log(-np.log(u))


def gate_forward(f: np.ndarray, params: RouterParams, tau: float,
                 gumbel_scale: float, seed: int) -> GateWeights:
    """MLP logits over branches, optional Gumbel noise drawn at `seed + i`,
    tempered softmax, for each row i of the B x (C+C2) context `f`."""
    if tau <= 0:
        raise DomainError(f"tau must be > 0, got {tau}")
    if gumbel_scale < 0:
        raise DomainError(f"gumbel_scale must be >= 0, got {gumbel_scale}")
    act, _ = ACTIVATIONS[params.activation]
    # row by row: a B-row GEMM may round differently from one row's product
    h1 = (f[:, None] @ params.w1.T)[:, 0] + params.b1
    a1 = act(h1)
    logits = (a1[:, None] @ params.w2.T)[:, 0] + params.b2
    if gumbel_scale > 0:
        noise = np.stack([sample_gumbel(rng_for(seed + i), len(BRANCHES))
                          for i in range(len(f))])
        logits = logits + gumbel_scale * noise
    alpha = softmax_rows(logits, temperature=tau)
    return GateWeights(alpha, tau, gumbel_scale > 0, f, h1, a1)


def _renorm(alpha: np.ndarray, idx: np.ndarray) -> ActiveSet:
    members = tuple(BRANCHES[i] for i in idx)
    w = alpha[idx]
    return ActiveSet(members, w / w.sum())


def select_topk(alpha: np.ndarray, k: int) -> ActiveSet:
    """The k heaviest branches of one sample's gate weights `alpha`."""
    if not 1 <= k <= len(BRANCHES):
        raise DomainError(f"k must be in [1,{len(BRANCHES)}], got {k}")
    order = np.argsort(-alpha, kind="stable")  # ties: branch order
    return _renorm(alpha, np.sort(order[:k]))


def select_threshold(alpha: np.ndarray, theta: float) -> ActiveSet:
    """One sample's branches with `alpha` above theta, else its heaviest."""
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"theta must be in [0,1), got {theta}")
    idx = np.flatnonzero(alpha > theta)
    if idx.size == 0:
        idx = np.array([int(np.argmax(alpha))])
    return _renorm(alpha, idx)


def gate_entropy(alpha: np.ndarray) -> float:
    a = np.clip(alpha, 1e-300, None)
    return float(-(a * np.log(a)).sum())
