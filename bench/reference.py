"""Plain-numpy reference of qmop's inference path, written from the model's
definition rather than from the program's code.

Every step is spelled out the slow, obvious way: the gate MLP on the
CLS/EOS context, top-k with renormalised weights, pool as a loop over the
s x s windows, resample as a loop over queries, prune as an explicit sort
for the top M, the weighted fuse and the output MLP. The benchmark compares
a fixed subset of `infer_forward` outputs against it after each timed window.
It reads parameters from a `ProjectorParams` and arrays from the bundle the
benchmark generated, never through qmop's functions.
"""

from __future__ import annotations

import math

import numpy as np

BRANCHES = ("pool", "resample", "prune")

_erf = np.vectorize(math.erf, otypes=[float])

# Float64 reassociation (blocked GEMMs, batched versus looped windows) moves
# results by ~1e-13 on these O(1) values; 1e-8 sits far above that and far
# below any real defect.
RTOL = 1e-8
ATOL = 1e-8


def activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "gelu":
        return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))
    if name == "relu":
        return np.where(x > 0.0, x, 0.0)
    raise ValueError(f"unknown activation {name!r}")


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def gate(router, cls_token: np.ndarray, eos_token: np.ndarray) -> np.ndarray:
    """Noise-free gate weights over (pool, resample, prune) at tau = 1."""
    f = np.concatenate([cls_token, eos_token])
    hidden = activation(router.activation, router.w1 @ f + router.b1)
    return softmax(router.w2 @ hidden + router.b2)


def topk(alpha: np.ndarray, k: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The k heaviest branches (ties to branch order), in branch order,
    with weights renormalised to sum to 1."""
    best = sorted(range(len(BRANCHES)), key=lambda i: (-alpha[i], i))[:k]
    idx = sorted(best)
    w = alpha[idx]
    return tuple(BRANCHES[i] for i in idx), w / w.sum()


def pool(patches: np.ndarray, grid_h: int, grid_w: int, p) -> np.ndarray:
    s, c = p.stride, patches.shape[1]
    x2d = patches.reshape(grid_h, grid_w, c)
    phi_v = p.phi_k if p.shared_phi else p.phi_v
    out = np.empty((p.grid_h * p.grid_w, c))
    for i in range(p.grid_h):
        for j in range(p.grid_w):
            m = i * p.grid_w + j
            cells = x2d[i * s:(i + 1) * s, j * s:(j + 1) * s].reshape(s * s, c)
            attn = softmax((cells @ p.phi_k.T) @ p.q2d[m] / math.sqrt(c))
            out[m] = attn @ (cells @ phi_v.T)
    return out


def resample(patches: np.ndarray, r) -> np.ndarray:
    c = patches.shape[1]
    k = patches @ r.w_k.T
    v = patches @ r.w_v.T
    out = np.empty((r.queries.shape[0], c))
    for m, q in enumerate(r.queries):
        out[m] = softmax(k @ q / math.sqrt(c)) @ v
    return out


def _minmax(v: np.ndarray) -> np.ndarray:
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-300:
        return np.full_like(v, 0.5)
    return (v - lo) / (hi - lo)


def prune(patches: np.ndarray, cls_attention: np.ndarray,
          eos_token: np.ndarray, g: np.ndarray, cfg) -> np.ndarray:
    projected = patches @ g.T
    if cfg.metric == "cosine":
        en = np.linalg.norm(eos_token)
        raw = np.zeros(len(patches))
        for i, row in enumerate(projected):
            pn = np.linalg.norm(row)
            if pn > 0 and en > 0:
                raw[i] = row @ eos_token / (pn * en)
    else:
        raw = -np.linalg.norm(projected - eos_token, axis=1)
    score = cfg.lam * _minmax(cls_attention) + (1.0 - cfg.lam) * _minmax(raw)
    ranked = sorted(range(len(score)), key=lambda i: (-score[i], i))
    return patches[sorted(ranked[:cfg.m_out])]


def mlp(m, x: np.ndarray) -> np.ndarray:
    return activation(m.activation, x @ m.w_in.T + m.b_in) @ m.w_out.T + m.b_out


def infer(params, grid_h: int, grid_w: int, patches: np.ndarray,
          cls_token: np.ndarray, eos_token: np.ndarray,
          cls_attention: np.ndarray, k: int
          ) -> tuple[np.ndarray, tuple[str, ...]]:
    """Output tokens (M x D_llm) and the active branch set for top-k."""
    members, weights = topk(gate(params.router, cls_token, eos_token), k)
    run = {
        "pool": lambda: pool(patches, grid_h, grid_w, params.pool),
        "resample": lambda: resample(patches, params.resampler),
        "prune": lambda: prune(patches, cls_attention, eos_token,
                               params.relevance.g, params.prune_cfg),
    }
    fused = sum(w * run[name]() for name, w in zip(members, weights))
    return mlp(params.out_mlp, fused), members


def agrees(tokens: np.ndarray, expected: np.ndarray) -> bool:
    return (tokens.shape == expected.shape
            and bool(np.isfinite(tokens).all())
            and bool(np.allclose(tokens, expected, rtol=RTOL, atol=ATOL)))
