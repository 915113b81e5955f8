"""The three compression operators. Each maps N visual tokens to exactly M.

- prune: score tokens by a blend of class-attention importance and text
  relevance, keep the top M in raster order.
- resample: M learnable queries cross-attend over all N tokens.
- pool: a 2D query map where each query attends only to its own s x s window.

Resample and pool are one operator, `_attend`, at two key scopes.

Each takes a list of B samples (bundles, or token matrices for resample) and
returns their outputs stacked sample by sample into B*M rows, so every
product whose left side is per-row runs as one GEMM over the batch. Pool and
resample take their params-only product, the queries folded through the key
projection, from the caller (`pipeline.query_products`), which computes it at
most once per batch. A batch of one is a one-item list, and
`pipeline.run_branches` checks every batch before any branch runs.
Pool and resample also return what their backward reads: their keys,
attention and attended rows. Prune has no parameters to train, so it
returns its tokens alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import FeatureBundle
from .linalg import DomainError, ShapeError, softmax_rows, stack_rows


# the relevance metrics prune can score tokens with
METRICS = ("cosine", "neg_euclidean")


@dataclass
class PruneConfig:
    lam: float      # importance/relevance mix
    m_out: int
    metric: str     # one of METRICS

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must be in [0,1], got {self.lam}")
        if self.metric not in METRICS:
            raise DomainError(f"unknown relevance metric {self.metric!r}")


@dataclass
class RelevanceMap:
    g: np.ndarray  # C2 x C, visual -> text space


@dataclass
class ResamplerParams:
    queries: np.ndarray  # M x C
    w_k: np.ndarray      # C x C
    w_v: np.ndarray      # C x C


@dataclass
class PoolParams:
    q2d: np.ndarray      # (h*w) x C, raster-ordered query map
    phi_k: np.ndarray    # C x C
    phi_v: np.ndarray    # C x C
    stride: int
    grid_h: int          # h (query rows); grid shape the map was built for
    grid_w: int          # w
    shared_phi: bool     # ablation: one projection for both K and V


@dataclass
class CompressedTokens:
    tokens: np.ndarray  # B*M x C, sample by sample
    # `_attend`'s record: each sample's G x W x C keys (pool: M windows of
    # s^2 cells; resample: one group of all N tokens), its G x R x W
    # attention, and the B*M x C attended rows before the value projection
    keys: list[np.ndarray] | None = None
    attn: list[np.ndarray] | None = None
    pooled: np.ndarray | None = None


def _minmax(v: np.ndarray) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-300:
        return np.full_like(v, 0.5)
    return (v - lo) / (hi - lo)


def _blend(bundle: FeatureBundle, projected: np.ndarray, lam: float,
           metric: str) -> np.ndarray:
    """Prune's token scores in [0,1]: `lam` times the min-max-normalized
    importance plus 1 - `lam` times the min-max-normalized text relevance of
    `projected`, the bundle's patches projected to text space (N x C2)."""
    importance = _minmax(bundle.cls_attention)
    eos = bundle.eos_token
    if metric == "cosine":
        pn = np.linalg.norm(projected, axis=1)
        en = np.linalg.norm(eos)
        raw = np.zeros(bundle.n_tokens)
        ok = (pn > 0) & (en > 0)
        raw[ok] = (projected @ eos)[ok] / (pn[ok] * en)
    elif metric == "neg_euclidean":
        raw = -np.linalg.norm(projected - eos, axis=1)
    else:
        raise DomainError(f"unknown relevance metric {metric!r}")
    relevance = _minmax(raw)
    return lam * importance + (1.0 - lam) * relevance


def prune_select(scores: np.ndarray, m_out: int) -> np.ndarray:
    """Indices of the m_out highest scores, ties to the lower index, in
    ascending order."""
    n = len(scores)
    if not 1 <= m_out <= n:
        raise DomainError(f"m_out must be in [1, {n}], got {m_out}")
    order = np.argsort(-scores, kind="stable")  # stable: lower index wins ties
    return np.sort(order[:m_out])


def prune(bundles: list[FeatureBundle], rel: RelevanceMap,
          cfg: PruneConfig) -> CompressedTokens:
    """Each bundle's patches at the `prune_select` indices of its `_blend`
    scores, with the relevance projection of the whole batch run as one
    (B*N) x C GEMM."""
    n = bundles[0].n_tokens
    projected = stack_rows([b.patches for b in bundles]) @ rel.g.T
    kept = [prune_select(_blend(b, projected[i * n:(i + 1) * n], cfg.lam,
                                cfg.metric), cfg.m_out)
            for i, b in enumerate(bundles)]
    return CompressedTokens(stack_rows([b.patches[k]
                                        for b, k in zip(bundles, kept)]))


def _attend(keys: list[np.ndarray], qk: np.ndarray,
            w_v: np.ndarray) -> CompressedTokens:
    """Cross-attention of group g's R folded queries `qk` (G x R x C) over
    that group's W raw keys, in each sample's G x W x C block of `keys`.

    Both projections fold onto the queries instead of the keys:
    q.(w_k x) = (q w_k).x = qk.x and sum_w a_w (w_v x_w) = w_v (sum_w a_w x_w),
    so a batch is batched matmuls over the raw keys and one GEMM with w_v.
    """
    c = qk.shape[-1]
    for k in keys:
        if k.shape[-1] != c:
            raise ShapeError(f"token width {k.shape[-1]} != query width {c}")
    attn = [softmax_rows(qk @ k.swapaxes(1, 2) / math.sqrt(c)) for k in keys]
    pooled = stack_rows([(a @ k).reshape(-1, c) for a, k in zip(attn, keys)])
    return CompressedTokens(pooled @ w_v.T, keys=keys, pooled=pooled,
                            attn=attn)


def resample(xs: list[np.ndarray], params: ResamplerParams,
             qk: np.ndarray) -> CompressedTokens:
    """M learnable queries cross-attend over each sample's N x C tokens in
    `xs`: `_attend` with one group of M queries over all N tokens. `qk` is
    `params.queries @ params.w_k`, M x C."""
    return _attend([x[None] for x in xs], qk[None], params.w_v)


def _pool_windows(bundle: FeatureBundle, params: PoolParams) -> np.ndarray:
    """The bundle's s x s windows as M x s^2 x C, cells in raster order."""
    s = params.stride
    h, w = params.grid_h, params.grid_w
    if bundle.grid_h != s * h or bundle.grid_w != s * w:
        raise ShapeError(
            f"grid {bundle.grid_h}x{bundle.grid_w} not {s}*({h}x{w}) "
            f"for stride {s}"
        )
    return (bundle.patches.reshape(h, s, w, s, -1).swapaxes(1, 2)
            .reshape(h * w, s * s, -1))


def pool_local(bundles: list[FeatureBundle], params: PoolParams,
               qk: np.ndarray) -> CompressedTokens:
    """Each query cell attends only to its own s x s spatial window:
    `_attend` with M groups of one query over its window's s^2 cells. `qk`
    is `params.q2d @ params.phi_k`, M x C."""
    phi_v = params.phi_k if params.shared_phi else params.phi_v
    return _attend([_pool_windows(b, params) for b in bundles], qk[:, None],
                   phi_v)
