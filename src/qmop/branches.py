"""The three compression operators. Each maps N visual tokens to exactly M.

- prune: score tokens by a blend of class-attention importance and text
  relevance, keep the top M in raster order.
- resample: M learnable queries cross-attend over all N tokens.
- pool: a 2D query map where each query attends only to its own s x s window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import FeatureBundle
from .linalg import DomainError, ShapeError, softmax_rows


@dataclass
class PruneConfig:
    lam: float = 0.5          # importance/relevance mix
    m_out: int = 1
    metric: str = "cosine"    # or "neg_euclidean"

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"lambda must be in [0,1], got {self.lam}")
        if self.metric not in ("cosine", "neg_euclidean"):
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
    tokens: np.ndarray  # M x C
    origin: str         # pool | resample | prune
    kept_indices: np.ndarray | None = None  # prune only, ascending


def _minmax(v: np.ndarray) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-300:
        return np.full_like(v, 0.5)
    return (v - lo) / (hi - lo)


def prune_scores(bundle: FeatureBundle, rel: RelevanceMap, lam: float,
                 metric: str = "cosine") -> np.ndarray:
    """Blend of min-max-normalized importance and text relevance, in [0,1]."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must be in [0,1], got {lam}")
    importance = _minmax(bundle.cls_attention)

    projected = bundle.patches @ rel.g.T  # N x C2
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


def prune_select(tokens: np.ndarray, scores: np.ndarray,
                 m_out: int) -> CompressedTokens:
    """Keep the m_out highest-scoring rows, ties to the lower index,
    output in ascending original index order."""
    n = tokens.shape[0]
    if scores.shape != (n,):
        raise ShapeError(f"scores length {scores.shape} != token rows {n}")
    if not 1 <= m_out <= n:
        raise DomainError(f"m_out must be in [1, {n}], got {m_out}")
    order = np.argsort(-scores, kind="stable")  # stable: lower index wins ties
    kept = np.sort(order[:m_out])
    return CompressedTokens(tokens[kept], "prune", kept)


def resample(tokens: np.ndarray, params: ResamplerParams,
             cache: dict | None = None) -> CompressedTokens:
    """Cross-attention of M learnable queries over projected keys/values.

    As in pool, both projections fold onto the M query rows instead of the N
    tokens: q.(w_k x) = (q w_k).x and sum_n a_n (w_v x_n) = w_v (sum_n a_n x_n).
    The branch is then two M x C x C GEMMs plus two M x N x C ones.
    """
    c = params.queries.shape[1]
    if tokens.shape[1] != c:
        raise ShapeError(f"token width {tokens.shape[1]} != query width {c}")
    qk = params.queries @ params.w_k                   # M x C
    attn = softmax_rows(qk @ tokens.T / math.sqrt(c))  # M x N
    pooled = attn @ tokens                             # M x C
    out = pooled @ params.w_v.T
    if cache is not None:
        cache.update(x=tokens, qk=qk, pooled=pooled, attn=attn)
    return CompressedTokens(out, "resample")


def _pool_windows(bundle: FeatureBundle, params: PoolParams) -> np.ndarray:
    s = params.stride
    h, w = params.grid_h, params.grid_w
    if bundle.grid_h != s * h or bundle.grid_w != s * w:
        raise ShapeError(
            f"grid {bundle.grid_h}x{bundle.grid_w} not {s}*({h}x{w}) "
            f"for stride {s}"
        )
    c = bundle.c_vis
    x2d = bundle.patches.reshape(bundle.grid_h, bundle.grid_w, c)
    # (h, w, s, s, C) -> (h*w, s*s, C), window cells in raster order
    win = x2d.reshape(h, s, w, s, c).transpose(0, 2, 1, 3, 4)
    return win.reshape(h * w, s * s, c)


def pool_local(bundle: FeatureBundle, params: PoolParams,
               cache: dict | None = None) -> CompressedTokens:
    """Each query cell attends only to its own s x s spatial window.

    Keys and values are linear maps of the window cells, so both projections
    fold onto the M rows instead of the N cells: q.(phi_k x) = (q phi_k).x
    and sum_w a_w (phi_v x_w) = phi_v (sum_w a_w x_w). The branch is then
    two M x C x C GEMMs plus O(N*C) window work.
    """
    win = _pool_windows(bundle, params)               # M x s^2 x C
    c = bundle.c_vis
    phi_v = params.phi_k if params.shared_phi else params.phi_v
    qk = params.q2d @ params.phi_k                     # M x C
    scores = np.einsum("mwc,mc->mw", win, qk) / math.sqrt(c)
    attn = softmax_rows(scores)                        # M x s^2
    pooled = np.einsum("mw,mwc->mc", attn, win)        # M x C
    out = pooled @ phi_v.T
    if cache is not None:
        cache.update(windows=win, qk=qk, pooled=pooled, attn=attn)
    return CompressedTokens(out, "pool")
