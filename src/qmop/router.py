"""Query-guided gating: a two-layer MLP over the joint image-text context
vector produces softmax weights over the branches, with temperature and
optional Gumbel noise, plus top-k / threshold branch selection.

`BRANCHES` is the one place that names the branches and fixes their order:
gate weights, fusion, the stage-1 concat and the cost model all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ACTIVATIONS, DomainError, ShapeError, rng_for, softmax_rows

BRANCHES = ("pool", "resample", "prune")


@dataclass
class RouterParams:
    w1: np.ndarray  # d x (C1+C2)
    b1: np.ndarray  # d
    w2: np.ndarray  # len(BRANCHES) x d
    b2: np.ndarray  # len(BRANCHES)
    activation: str = "gelu"


@dataclass
class GateWeights:
    alpha: np.ndarray    # one per branch in BRANCHES order, sums to 1
    tau_used: float
    gumbel_applied: bool
    # read by the router backward: context, hidden pre-activation, activation
    f: np.ndarray | None = None
    h1: np.ndarray | None = None
    a1: np.ndarray | None = None


@dataclass
class ActiveSet:
    members: tuple[str, ...]
    renorm_weights: np.ndarray  # over members, sums to 1


def hidden_width(context: int, router_hidden: int | None = None) -> int:
    """`router_hidden`, or by default half the context length rounded up."""
    return router_hidden if router_hidden is not None else -(-context // 2)


def build_context(v_cls: np.ndarray, t_eos: np.ndarray) -> np.ndarray:
    if v_cls.size == 0 or t_eos.size == 0:
        raise ShapeError("context halves must be nonempty")
    return np.concatenate([v_cls, t_eos])


def sample_gumbel(rng: np.random.Generator, n: int) -> np.ndarray:
    """-log(-log(u)) with u strictly inside (0, 1)."""
    u = rng.random(n)
    while np.any(u <= 0.0):  # rng.random() excludes 1.0 already
        u[u <= 0.0] = rng.random(int(np.sum(u <= 0.0)))
    return -np.log(-np.log(u))


def gate_forward(f: np.ndarray, params: RouterParams, tau: float = 1.0,
                 gumbel_scale: float = 0.0, seed: int = 0) -> GateWeights:
    """MLP logits over branches, optional Gumbel noise, tempered softmax."""
    if tau <= 0:
        raise DomainError(f"tau must be > 0, got {tau}")
    if gumbel_scale < 0:
        raise DomainError(f"gumbel_scale must be >= 0, got {gumbel_scale}")
    act, _ = ACTIVATIONS[params.activation]
    h1 = params.w1 @ f + params.b1
    a1 = act(h1)
    base = params.w2 @ a1 + params.b2
    logits = base
    if gumbel_scale > 0:
        noise = sample_gumbel(rng_for(seed), len(BRANCHES))
        logits = base + gumbel_scale * noise
    alpha = softmax_rows(logits[None, :], temperature=tau)[0]
    return GateWeights(alpha, tau, gumbel_scale > 0, f, h1, a1)


def _renorm(alpha: np.ndarray, idx: np.ndarray) -> ActiveSet:
    members = tuple(BRANCHES[i] for i in idx)
    w = alpha[idx]
    return ActiveSet(members, w / w.sum())


def select_topk(weights: GateWeights, k: int) -> ActiveSet:
    if not 1 <= k <= len(BRANCHES):
        raise DomainError(f"k must be in [1,{len(BRANCHES)}], got {k}")
    order = np.argsort(-weights.alpha, kind="stable")  # ties: branch order
    return _renorm(weights.alpha, np.sort(order[:k]))


def select_threshold(weights: GateWeights, theta: float) -> ActiveSet:
    if not 0.0 <= theta < 1.0:
        raise DomainError(f"theta must be in [0,1), got {theta}")
    idx = np.flatnonzero(weights.alpha > theta)
    if idx.size == 0:
        idx = np.array([int(np.argmax(weights.alpha))])
    return _renorm(weights.alpha, idx)


def gate_entropy(alpha: np.ndarray) -> float:
    a = np.clip(alpha, 1e-300, None)
    return float(-(a * np.log(a)).sum())
