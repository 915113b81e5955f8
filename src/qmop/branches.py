"""The three compression operators. Each maps N visual tokens to exactly M.

- prune: score tokens by a blend of class-attention importance and text
  relevance, keep the top M in raster order.
- resample: M learnable queries cross-attend over all N tokens.
- pool: a 2D query map where each query attends only to its own s x s window.

Each takes a list of B samples (bundles, or token matrices for resample) and
returns their outputs stacked sample by sample into B*M rows, so every
product whose left side is per-row runs as one GEMM over the batch and every
params-only product runs once per batch. A batch of one is a one-item list.
Pool and resample also return what their backward reads: their inputs,
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
    lam: float = 0.5          # importance/relevance mix
    m_out: int = 1
    metric: str = "cosine"    # one of METRICS

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
    stride: int = 2
    grid_h: int = 0      # h (query rows); grid shape the map was built for
    grid_w: int = 0      # w
    shared_phi: bool = False  # ablation: one projection for both K and V


@dataclass
class CompressedTokens:
    tokens: np.ndarray  # B*M x C, sample by sample
    # pool: B x M x s^2 x C windows; resample: each sample's N x C tokens
    inputs: np.ndarray | list[np.ndarray] | None = None
    pooled: np.ndarray | None = None  # B*M x C, before the value projection
    attn: np.ndarray | None = None    # pool: B x M x s^2; resample: B*M x N


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
        raw[ok] = projected[ok] @ eos / (pn[ok] * en)
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


def resample(xs: list[np.ndarray],
             params: ResamplerParams) -> CompressedTokens:
    """Cross-attention of M learnable queries over projected keys/values.

    `xs` holds each sample's N x C tokens. As in pool, both projections
    fold onto the M query rows instead of the N tokens:
    q.(w_k x) = (q w_k).x and sum_n a_n (w_v x_n) = w_v (sum_n a_n x_n).
    A batch is then one M x C x C GEMM for the keys, two M x N x C ones per
    sample, and one (B*M) x C x C GEMM for the values.
    """
    c = params.queries.shape[1]
    for x in xs:
        if x.shape[1] != c:
            raise ShapeError(f"token width {x.shape[1]} != query width {c}")
    qk = params.queries @ params.w_k                   # M x C
    attn = stack_rows([softmax_rows(qk @ x.T / math.sqrt(c))
                       for x in xs])                   # B*M x N
    pooled = stack_rows([a @ x for a, x in zip(np.split(attn, len(xs)), xs)])
    return CompressedTokens(pooled @ params.w_v.T, inputs=xs, pooled=pooled,
                            attn=attn)


def _pool_windows(bundles: list[FeatureBundle],
                  params: PoolParams) -> np.ndarray:
    """Every bundle's s x s windows as B x M x s^2 x C, cells in raster
    order, written straight into one array."""
    s = params.stride
    h, w = params.grid_h, params.grid_w
    c = bundles[0].c_vis
    win = np.empty((len(bundles), h, w, s, s, c))
    for out, bundle in zip(win, bundles):
        if bundle.grid_h != s * h or bundle.grid_w != s * w:
            raise ShapeError(
                f"grid {bundle.grid_h}x{bundle.grid_w} not {s}*({h}x{w}) "
                f"for stride {s}"
            )
        out[...] = bundle.patches.reshape(h, s, w, s, c).transpose(0, 2, 1, 3, 4)
    return win.reshape(len(bundles), h * w, s * s, c)


def pool_local(bundles: list[FeatureBundle],
               params: PoolParams) -> CompressedTokens:
    """Each query cell attends only to its own s x s spatial window.

    Keys and values are linear maps of the window cells, so both projections
    fold onto the M rows instead of the N cells: q.(phi_k x) = (q phi_k).x
    and sum_w a_w (phi_v x_w) = phi_v (sum_w a_w x_w). A batch is then one
    M x C x C GEMM for the keys, one (B*M) x C x C GEMM for the values and
    O(B*N*C) window work.
    """
    win = _pool_windows(bundles, params)              # B x M x s^2 x C
    b, m, _, c = win.shape
    phi_v = params.phi_k if params.shared_phi else params.phi_v
    qk = params.q2d @ params.phi_k                     # M x C
    scores = np.einsum("bmwc,mc->bmw", win, qk) / math.sqrt(c)
    attn = softmax_rows(scores.reshape(b * m, -1)).reshape(scores.shape)
    pooled = np.einsum("bmw,bmwc->bmc", attn, win).reshape(b * m, c)
    return CompressedTokens(pooled @ phi_v.T, inputs=win, pooled=pooled,
                            attn=attn)
