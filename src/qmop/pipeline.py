"""End-to-end projector forward passes.

Three modes share the branch operators, taken in `router.BRANCHES` order:
- stage1: channel-concat every branch's output, project with one MLP
  (router off).
- train: router-weighted sum over all branches, then the shared output MLP.
- infer: run the gate noise-free, select active branches (top-k or
  threshold), execute only those, fuse with renormalized weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import branches as br
from . import router as rt
from .bundle import FeatureBundle
from .linalg import ACTIVATIONS, NumericError, ShapeError, seeded_fill


@dataclass
class Mlp:
    w_in: np.ndarray   # hidden x in
    b_in: np.ndarray   # hidden
    w_out: np.ndarray  # out x hidden
    b_out: np.ndarray  # out
    activation: str = "gelu"


@dataclass
class ProjectorParams:
    prune_cfg: br.PruneConfig
    relevance: br.RelevanceMap
    resampler: br.ResamplerParams
    pool: br.PoolParams
    router: rt.RouterParams
    stage1_mlp: Mlp            # BC -> BC -> D_llm, B branches
    out_mlp: Mlp               # C -> C -> D_llm
    m_tokens: int

    def named_tensors(self):
        yield "relevance.g", self.relevance.g
        yield "resampler.queries", self.resampler.queries
        yield "resampler.w_k", self.resampler.w_k
        yield "resampler.w_v", self.resampler.w_v
        yield "pool.q2d", self.pool.q2d
        yield "pool.phi_k", self.pool.phi_k
        yield "pool.phi_v", self.pool.phi_v
        yield "router.w1", self.router.w1
        yield "router.b1", self.router.b1
        yield "router.w2", self.router.w2
        yield "router.b2", self.router.b2
        for tag, mlp in (("stage1_mlp", self.stage1_mlp), ("out_mlp", self.out_mlp)):
            yield f"{tag}.w_in", mlp.w_in
            yield f"{tag}.b_in", mlp.b_in
            yield f"{tag}.w_out", mlp.w_out
            yield f"{tag}.b_out", mlp.b_out


@dataclass
class ProjectedTokens:
    tokens: np.ndarray  # M x D_llm
    mode: str           # stage1 | train | infer
    gate: rt.GateWeights | None = None
    active: rt.ActiveSet | None = None


def init_projector_params(
    grid_h: int, grid_w: int, c_vis: int, c_txt: int, d_llm: int,
    m_tokens: int, stride: int, seed: int = 0,
    router_hidden: int | None = None, lam: float = 0.5,
    metric: str = "cosine", activation: str = "gelu",
    shared_pool_phi: bool = False,
) -> ProjectorParams:
    """Gaussian init with 1/sqrt(fan_in) scale, one subseed per tensor."""
    h, w = grid_h // stride, grid_w // stride
    if h * stride != grid_h or w * stride != grid_w:
        raise ShapeError(f"grid {grid_h}x{grid_w} not divisible by stride {stride}")
    if h * w != m_tokens:
        raise ShapeError(
            f"m_tokens {m_tokens} != pooled grid {h}x{w} at stride {stride}"
        )
    c, c2, nb = c_vis, c_txt, len(rt.BRANCHES)
    d = router_hidden if router_hidden else math.ceil((c + c2) / 2)
    s = [seed * 64 + i for i in range(32)]  # distinct subseed per tensor

    def g(i, rows, cols, fan):
        return seeded_fill(s[i], rows, cols, sigma=1.0 / math.sqrt(fan))

    return ProjectorParams(
        prune_cfg=br.PruneConfig(lam=lam, m_out=m_tokens, metric=metric),
        relevance=br.RelevanceMap(g=g(0, c2, c, c)),
        resampler=br.ResamplerParams(
            queries=g(1, m_tokens, c, c), w_k=g(2, c, c, c), w_v=g(3, c, c, c)
        ),
        pool=br.PoolParams(
            q2d=g(4, m_tokens, c, c), phi_k=g(5, c, c, c), phi_v=g(6, c, c, c),
            stride=stride, grid_h=h, grid_w=w, shared_phi=shared_pool_phi,
        ),
        router=rt.RouterParams(
            w1=g(7, d, c + c2, c + c2), b1=np.zeros(d),
            w2=g(8, nb, d, d), b2=np.zeros(nb), activation=activation,
        ),
        stage1_mlp=Mlp(
            w_in=g(9, nb * c, nb * c, nb * c), b_in=np.zeros(nb * c),
            w_out=g(10, d_llm, nb * c, nb * c), b_out=np.zeros(d_llm),
            activation=activation,
        ),
        out_mlp=Mlp(
            w_in=g(11, c, c, c), b_in=np.zeros(c),
            w_out=g(12, d_llm, c, c), b_out=np.zeros(d_llm),
            activation=activation,
        ),
        m_tokens=m_tokens,
    )


def _run_branch(name: str, bundle: FeatureBundle, params: ProjectorParams,
                cache: dict | None = None) -> br.CompressedTokens:
    if name == "pool":
        return br.pool_local(bundle, params.pool, cache=cache)
    if name == "resample":
        return br.resample(bundle.patches, params.resampler, cache=cache)
    if name == "prune":
        scores = br.prune_scores(bundle, params.relevance,
                                 params.prune_cfg.lam, params.prune_cfg.metric)
        return br.prune_select(bundle.patches, scores, params.prune_cfg.m_out)
    raise ValueError(f"unknown branch {name!r}")


def run_branches(bundle: FeatureBundle, params: ProjectorParams,
                 cache: dict | None = None) -> dict[str, br.CompressedTokens]:
    """Every branch in `router.BRANCHES` order; with `cache`, each branch
    records what its backward needs under `cache[name]`."""
    return {name: _run_branch(
                name, bundle, params,
                None if cache is None else cache.setdefault(name, {}))
            for name in rt.BRANCHES}


def fuse(outputs: dict[str, br.CompressedTokens | None],
         weights: np.ndarray) -> np.ndarray:
    """Weighted sum of branch token matrices, row-aligned by position.

    Zero-weight branches are skipped entirely, so one-hot weights return the
    selected branch bit-exactly; absent branches must carry weight 0.
    """
    weights = np.asarray(weights, dtype=np.float64)
    acc = None
    shape = None
    for name, wgt in zip(rt.BRANCHES, weights):
        out = outputs.get(name)
        if out is not None:
            if shape is not None and out.tokens.shape != shape:
                raise ShapeError(
                    f"branch output shapes differ: {out.tokens.shape} vs {shape}"
                )
            shape = out.tokens.shape
        if wgt == 0.0:
            continue
        if out is None:
            raise ShapeError(f"branch {name!r} has weight {wgt} but no output")
        term = out.tokens if wgt == 1.0 else wgt * out.tokens
        acc = term if acc is None else acc + term
    if acc is None:  # all weights zero
        acc = np.zeros(shape)
    return acc


def _mlp_forward(mlp: Mlp, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    act, _ = ACTIVATIONS[mlp.activation]
    h = x @ mlp.w_in.T + mlp.b_in
    a = act(h)
    y = a @ mlp.w_out.T + mlp.b_out
    if cache is not None:
        cache.update(x=x, h=h, a=a)
    return y


def stage1_forward(bundle: FeatureBundle, params: ProjectorParams,
                   cache: dict | None = None) -> ProjectedTokens:
    outs = run_branches(bundle, params, cache)
    concat = np.concatenate([outs[n].tokens for n in rt.BRANCHES], axis=1)
    mlp_cache = {} if cache is not None else None
    tokens = _mlp_forward(params.stage1_mlp, concat, mlp_cache)
    if cache is not None:
        cache["mlp"] = mlp_cache
    return ProjectedTokens(tokens, "stage1")


def _gate(bundle: FeatureBundle, params: ProjectorParams, tau: float,
          gumbel_scale: float, seed: int,
          cache: dict | None = None) -> rt.GateWeights:
    f = rt.build_context(bundle.cls_token, bundle.eos_token)
    return rt.gate_forward(f, params.router, tau, gumbel_scale, seed, cache)


def train_forward(bundle: FeatureBundle, params: ProjectorParams,
                  tau: float = 1.0, gumbel_scale: float = 0.0, seed: int = 0,
                  cache: dict | None = None) -> ProjectedTokens:
    gate_cache = {} if cache is not None else None
    gate = _gate(bundle, params, tau, gumbel_scale, seed, gate_cache)
    outs = run_branches(bundle, params, cache)
    fused = fuse(outs, gate.alpha)
    mlp_cache = {} if cache is not None else None
    tokens = _mlp_forward(params.out_mlp, fused, mlp_cache)
    if cache is not None:
        cache.update(gate_cache=gate_cache, mlp=mlp_cache,
                     outputs=outs, gate=gate, fused=fused)
    return ProjectedTokens(tokens, "train", gate=gate)


def infer_forward(bundle: FeatureBundle, params: ProjectorParams,
                  mode: tuple[str, float]) -> ProjectedTokens:
    kind, arg = mode
    gate = _gate(bundle, params, tau=1.0, gumbel_scale=0.0, seed=0)
    if kind == "topk":
        active = rt.select_topk(gate, int(arg))
    elif kind == "threshold":
        active = rt.select_threshold(gate, float(arg))
    else:
        raise ValueError(f"unknown inference mode {kind!r}")
    # only active branches are executed
    outs: dict[str, br.CompressedTokens | None] = {}
    weights = np.zeros(len(rt.BRANCHES))
    for name, wgt in zip(active.members, active.renorm_weights):
        outs[name] = _run_branch(name, bundle, params)
        weights[rt.BRANCHES.index(name)] = wgt
    fused = fuse(outs, weights)
    tokens = _mlp_forward(params.out_mlp, fused)
    if not np.isfinite(tokens).all():
        raise NumericError("inference produced non-finite tokens")
    return ProjectedTokens(tokens, "infer", gate=gate, active=active)


def params_to_vector(params: ProjectorParams):
    """Flatten all learnable tensors; returns (vector, {name: (slice, shape)})."""
    chunks, layout, pos = [], {}, 0
    for name, arr in params.named_tensors():
        flat = arr.ravel()
        layout[name] = (slice(pos, pos + flat.size), arr.shape)
        chunks.append(flat)
        pos += flat.size
    return np.concatenate(chunks), layout
