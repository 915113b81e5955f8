"""End-to-end projector forward passes.

A forward mode is one tuple, and `forward` alone dispatches on it. The modes
share the branch operators, taken in `router.BRANCHES` order:
- ("stage1",): channel-concat every branch's output, project with one MLP
  (router off).
- ("train", tau, gumbel_scale, seed): `fuse` all branches with the gate
  weights, then the shared output MLP. Bundle i of the batch draws its gate
  noise at `seed + i`.
- ("topk", k) | ("threshold", theta), infer: run the gate noise-free,
  select active branches, execute only those, fuse with renormalized weights.

stage1 and train run over a batch, a list of bundles with one set of dims:
each branch and the gate run once over the B samples, and the MLP sees their
B*M rows stacked sample by sample. infer runs one bundle, a batch of one.
stage1 and train also return what `trainer.backward` reads: every branch's
output, the MLP's activations and (train) the gate, one row per sample.

Pool and resample attend with queries folded through their key projection,
`query_products`. stage1 and train compute those two M x C products on
every call, since training changes the params. Inference computes them once
per params object (`ProjectorParams.query_fold`) and keeps them while their
four source tensors, the (query, key) pairs that `query_key_pairs` names,
are still the params' fields and still read-only: building the fold makes
them read-only, so writing one in place raises. No code here
writes a params tensor in place. `trainer.train_toy` updates every tensor it
trains in place, so a caller holding any params array sees it change; it
first replaces a read-only tensor, a fold source after inference among
them, by a writeable copy, once, which the next inference folds afresh. A
library caller changes a fold source by assigning a new array too.

`init_projector_params` builds every record from one layout table,
`_weight_shapes`: `_drawn` draws the weights of every record but the stage-1
head in one concurrent batch, or the head's two in another, and
`_two_layer` builds each two-layer record (`out_mlp`, the router and the
stage-1 head) from its two drawn weights and two zero biases.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import branches as br
from . import router as rt
from .bundle import FeatureBundle
from .linalg import ACTIVATIONS, NumericError, ShapeError, seeded_fills


@dataclass
class Mlp:
    w_in: np.ndarray   # hidden x in
    b_in: np.ndarray   # hidden
    w_out: np.ndarray  # out x hidden
    b_out: np.ndarray  # out
    activation: str


@dataclass
class ProjectorParams:
    """Every learnable tensor of the projector. `stage1_mlp` is drawn in
    float64 by `draw_stage1_mlp`, `_draw_head` bound to the params' seed
    by `functools.partial` (so a copy or pickle carries it), the first time
    something reads it
    (`stage1_forward`, the stage-1 `backward`, `named_tensors`), and later
    reads return that same `Mlp`. Inference and stage-2 training never read
    it, so they never hold the head, which is most of the params at paper
    dims. Until it is drawn, `digest_head` stands in for it with a float32
    image drawn at the same subseeds, half the bytes; drawing the head
    drops the image. Inference's `query_products` are kept in `_fold` (see
    `query_fold`), whose sources are read-only: change one by assigning a
    new array to its field, never in place. Training updates every tensor
    in place, so a caller holding any params array sees it change; a
    read-only one, such as a fold source, is first replaced by a writeable
    copy. A copy or pickle leaves out `_fold` and `_head_image`, which are
    rebuilt on demand; a drawn `stage1_mlp` is trained state and is
    kept."""
    prune_cfg: br.PruneConfig
    relevance: br.RelevanceMap
    resampler: br.ResamplerParams
    pool: br.PoolParams
    router: rt.RouterParams
    draw_stage1_mlp: Callable[[type], Mlp]   # takes the dtype
    out_mlp: Mlp               # C -> C -> D_llm
    # (the four tensors `query_products` read, its result); see `query_fold`
    _fold: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    # the undrawn head's float32 image; see `digest_head`
    _head_image: Mlp | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items()
                if name not in ("_fold", "_head_image")}

    @functools.cached_property
    def stage1_mlp(self) -> Mlp:   # BC -> BC -> D_llm, B branches
        self._head_image = None
        return self.draw_stage1_mlp(np.float64)

    def digest_head(self) -> Mlp:
        """The head as `trainer.params_digest` hashes it: `stage1_mlp` once
        drawn; until then, its float32 image, drawn at the head's subseeds
        on the first call and kept until the head is drawn. The image holds
        the head's elements cast to float32, so the digest is the same
        either way, and no float64 head is drawn for it. It depends only on
        seeds, so it cannot go stale."""
        if "stage1_mlp" in vars(self):
            return self.stage1_mlp
        if self._head_image is None:
            self._head_image = self.draw_stage1_mlp(np.float32)
        return self._head_image

    def query_fold(self) -> dict[str, np.ndarray]:
        """`query_products(self)`, computed on the first call and returned
        again while it is valid: while each of its four source tensors is
        still this record's field and still read-only. Building it makes
        them read-only, so a write in place raises instead of leaving it
        stale. A replaced field or a writeable copy of one (as
        `copy.deepcopy` makes) rebuilds it on the next call.

        The fold holds its sources: one replaced after inference, as
        `trainer.train_toy` replaces a read-only tensor by a writeable copy
        before updating it, stays alive until the next call (up to ~18 MB
        at paper dims). Holding them is what makes the `is` check
        sound."""
        sources = sum(query_key_pairs(self).values(), ())
        if self._fold is None or not all(
                held is now and not now.flags.writeable
                for held, now in zip(self._fold[0], sources)):
            for arr in sources:
                arr.setflags(write=False)
            self._fold = (sources, query_products(self))
        return self._fold[1]

    def named_tensors(self, head: Mlp | None = None):
        """("record.field", array) for each array field of each learnable
        record, in field order. A `head` given stands in for `stage1_mlp`,
        which is then not read."""
        for tag in ("relevance", "resampler", "pool", "router", "stage1_mlp",
                    "out_mlp"):
            record = (head if tag == "stage1_mlp" and head is not None
                      else getattr(self, tag))
            for f in fields(record):
                value = getattr(record, f.name)
                if isinstance(value, np.ndarray):
                    yield f"{tag}.{f.name}", value


@dataclass
class ProjectedTokens:
    tokens: np.ndarray  # B*M x D_llm, sample by sample
    gate: rt.GateWeights | None = None  # one row per sample
    active: rt.ActiveSet | None = None
    # stage1 and train: the branch outputs and the MLP's (x, h, activation)
    outputs: dict[str, br.CompressedTokens] | None = None
    mlp: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def pooled_grid(grid_h: int, grid_w: int, stride: int,
                m_tokens: int) -> tuple[int, int]:
    """The h x w query grid pool builds at `stride`: the stride must divide
    the patch grid, and the M output tokens must be its h*w cells."""
    h, w = grid_h // stride, grid_w // stride
    if h * stride != grid_h or w * stride != grid_w:
        raise ShapeError(f"grid {grid_h}x{grid_w} not divisible by stride {stride}")
    if h * w != m_tokens:
        raise ShapeError(
            f"m_tokens {m_tokens} != pooled grid {h}x{w} at stride {stride}"
        )
    return h, w


def _weight_shapes(c: int, c2: int, d_llm: int, m_tokens: int,
                   router_hidden: int | None) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each gaussian weight `init_projector_params` draws,
    keyed by its `named_tensors` name, in subseed order. Every other tensor
    is a zero bias."""
    nb = len(rt.BRANCHES)
    bc, d = nb * c, rt.hidden_width(c + c2, router_hidden)
    return {
        "relevance.g": (c2, c),
        "resampler.queries": (m_tokens, c), "resampler.w_k": (c, c),
        "resampler.w_v": (c, c),
        "pool.q2d": (m_tokens, c), "pool.phi_k": (c, c), "pool.phi_v": (c, c),
        "router.w1": (d, c + c2), "router.w2": (nb, d),
        "stage1_mlp.w_in": (bc, bc), "stage1_mlp.w_out": (d_llm, bc),
        "out_mlp.w_in": (c, c), "out_mlp.w_out": (d_llm, c),
    }


def _drawn(seed: int, shapes: dict[str, tuple[int, int]], dtype: type,
           head: bool) -> dict[str, dict[str, np.ndarray]]:
    """{record: {field: weight}} of the stage-1 head's weights if `head`,
    else of every other record's: each `shapes` entry `record.field`, drawn
    in `dtype` as a gaussian at std 1/sqrt(cols), its fan-in, at subseed
    `seed * 64 + i`, i its index in `shapes`, all in one `seeded_fills`
    batch."""
    picked = [(i, name, rows, cols)
              for i, (name, (rows, cols)) in enumerate(shapes.items())
              if name.startswith("stage1_mlp.") == head]
    weights = seeded_fills([(seed * 64 + i, rows, cols,
                             1.0 / math.sqrt(cols))
                            for i, _, rows, cols in picked], dtype)
    records: dict[str, dict[str, np.ndarray]] = {}
    for (_, name, _, _), w in zip(picked, weights):
        tag, fld = name.split(".")
        records.setdefault(tag, {})[fld] = w
    return records


def _two_layer(cls: type, weights: dict[str, np.ndarray], activation: str,
               dtype: type) -> Mlp | rt.RouterParams:
    """Two-layer record as `cls`, `Mlp` or `router.RouterParams`, whose
    fields are weight, bias, weight, bias, activation: each of its two
    `_drawn` weights followed by a zero bias sized by its rows."""
    return cls(*(t for w in weights.values()
                 for t in (w, np.zeros(len(w), dtype=dtype))), activation)


def _draw_head(seed: int, shapes: dict[str, tuple[int, int]],
               activation: str, dtype: type) -> Mlp:
    """The stage-1 head in `dtype`, its two weights drawn in one batch."""
    return _two_layer(Mlp, _drawn(seed, shapes, dtype, True)["stage1_mlp"],
                      activation, dtype)


def init_projector_params(
    grid_h: int, grid_w: int, c_vis: int, c_txt: int, d_llm: int,
    m_tokens: int, stride: int, seed: int = 0,
    router_hidden: int | None = None, lam: float = 0.5,
    metric: str = "cosine", activation: str = "gelu",
    shared_pool_phi: bool = False,
) -> ProjectorParams:
    """Gaussian init with 1/sqrt(fan_in) scale: each weight that
    `_weight_shapes` lists is drawn by `_drawn` at its shape and its own
    subseed, and goes to the record field it names; every bias is zeros.
    The eleven weights outside the stage-1 head are drawn here, in one
    concurrent batch. `stage1_mlp` gets `_draw_head` bound to its seed,
    taking the dtype, which runs on its first read, bit-identical to
    drawing it here."""
    h, w = pooled_grid(grid_h, grid_w, stride, m_tokens)
    shapes = _weight_shapes(c_vis, c_txt, d_llm, m_tokens, router_hidden)
    f64 = np.float64
    drawn = _drawn(seed, shapes, f64, False)
    return ProjectorParams(
        prune_cfg=br.PruneConfig(lam=lam, m_out=m_tokens, metric=metric),
        relevance=br.RelevanceMap(**drawn["relevance"]),
        resampler=br.ResamplerParams(**drawn["resampler"]),
        pool=br.PoolParams(**drawn["pool"], stride=stride, grid_h=h,
                           grid_w=w, shared_phi=shared_pool_phi),
        router=_two_layer(rt.RouterParams, drawn["router"], activation, f64),
        draw_stage1_mlp=functools.partial(_draw_head, seed, shapes,
                                          activation),
        out_mlp=_two_layer(Mlp, drawn["out_mlp"], activation, f64),
    )


def params_nbytes(c_vis: int, c_txt: int, d_llm: int, m_tokens: int,
                  router_hidden: int | None, head_itemsize: int) -> int:
    """Bytes of the weights `init_projector_params` draws at these dims:
    each in float64 but the stage-1 head's two, at `head_itemsize` bytes an
    element (8 once drawn, 4 as `digest_head`'s image, 0 while nothing reads
    it). The zero biases are left out, since a large zeroed array takes no
    memory until it is written, so the count is a lower bound on what the
    params take."""
    return sum(
        (head_itemsize if name.startswith("stage1_mlp.") else 8) * rows * cols
        for name, (rows, cols) in _weight_shapes(
            c_vis, c_txt, d_llm, m_tokens, router_hidden).items())


def query_key_pairs(params: ProjectorParams) -> dict[str, tuple]:
    """Each attention branch's learned (query, key) pair, by branch name:
    pool's `q2d` and `phi_k`, resample's `queries` and `w_k`. Their
    products are `query_products`, and these four arrays are the sources of
    `ProjectorParams.query_fold`."""
    return {"pool": (params.pool.q2d, params.pool.phi_k),
            "resample": (params.resampler.queries, params.resampler.w_k)}


def query_products(params: ProjectorParams) -> dict[str, np.ndarray]:
    """The params-only M x C products `branches._attend` takes as its
    queries: each `query_key_pairs` pair's query times its key."""
    return {name: q @ k for name, (q, k) in query_key_pairs(params).items()}


def _run_branch(name: str, bundles: list[FeatureBundle],
                params: ProjectorParams,
                qk: dict[str, np.ndarray]) -> br.CompressedTokens:
    """Branch `name` once over the batch; `qk` holds
    `query_products(params)`."""
    if name == "pool":
        return br.pool_local(bundles, params.pool, qk["pool"])
    if name == "resample":
        return br.resample([b.patches for b in bundles], params.resampler,
                           qk["resample"])
    if name == "prune":
        return br.prune(bundles, params.relevance, params.prune_cfg)
    raise ValueError(f"unknown branch {name!r}")


def run_branches(bundles: list[FeatureBundle],
                 params: ProjectorParams) -> dict[str, br.CompressedTokens]:
    """Every branch in `router.BRANCHES` order, each once over the batch,
    with `query_products` computed afresh; a batch's rows must stack."""
    if not bundles:
        raise ShapeError("a batch needs at least one bundle")
    dims = {(b.grid_h, b.grid_w, b.c_vis, b.c_txt) for b in bundles}
    if len(dims) > 1:
        raise ShapeError(f"bundles in one batch differ in dims: {sorted(dims)}")
    qk = query_products(params)
    return {name: _run_branch(name, bundles, params, qk)
            for name in rt.BRANCHES}


def scale_samples(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each sample's block of rows of `x` times that sample's weight."""
    return (x.reshape(len(weights), -1) * weights[:, None]).reshape(x.shape)


def fuse(tokens: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted sum of equally shaped token matrices, row-aligned by
    position and summed in list order.

    `weights` holds one column per matrix and one row per sample (B x k).
    x * 1.0 is exact, so a one-hot weight returns the selected matrix bit
    for bit.
    """
    if len(tokens) != weights.shape[1]:
        raise ShapeError(f"{len(tokens)} token matrices for "
                         f"{weights.shape[1]} weight columns")
    if len({x.shape for x in tokens}) > 1:
        raise ShapeError(f"branch output shapes differ: "
                         f"{[x.shape for x in tokens]}")
    acc = scale_samples(weights[:, 0], tokens[0])
    for x, wgt in zip(tokens[1:], weights.T[1:]):
        acc += scale_samples(wgt, x)
    return acc


def _mlp_forward(mlp: Mlp, x: np.ndarray):
    """(output, pre-activation, activation) of the MLP on the rows of x."""
    act, _ = ACTIVATIONS[mlp.activation]
    h = x @ mlp.w_in.T
    h += mlp.b_in
    a = act(h)
    out = a @ mlp.w_out.T
    out += mlp.b_out
    return out, h, a


def stage1_forward(bundles: list[FeatureBundle],
                   params: ProjectorParams) -> ProjectedTokens:
    outs = run_branches(bundles, params)
    concat = np.concatenate([outs[n].tokens for n in rt.BRANCHES], axis=1)
    for out, part in zip(outs.values(), np.split(concat, len(outs), axis=1)):
        out.tokens = part   # a view: the record holds these rows once
    tokens, h, a = _mlp_forward(params.stage1_mlp, concat)
    return ProjectedTokens(tokens, outputs=outs, mlp=(concat, h, a))


def train_forward(bundles: list[FeatureBundle], params: ProjectorParams,
                  tau: float, gumbel_scale: float,
                  seed: int) -> ProjectedTokens:
    """Bundle i draws its gate noise at `seed + i`. The branches run first,
    so `run_branches` checks the batch before the gate stacks it."""
    outs = run_branches(bundles, params)
    gate = rt.gate_forward(rt.build_context(bundles), params.router, tau,
                           gumbel_scale, seed)
    fused = fuse([outs[name].tokens for name in rt.BRANCHES], gate.alpha)
    tokens, h, a = _mlp_forward(params.out_mlp, fused)
    return ProjectedTokens(tokens, gate=gate, outputs=outs, mlp=(fused, h, a))


def infer_forward(bundle: FeatureBundle, params: ProjectorParams,
                  mode: tuple) -> ProjectedTokens:
    """("topk", k) or ("threshold", theta) on one bundle."""
    kind, arg = mode
    if kind not in ("topk", "threshold"):
        raise ValueError(f"unknown inference mode {kind!r}")
    gate = rt.gate_forward(rt.build_context([bundle]), params.router, 1.0,
                           0.0, 0)
    select = rt.select_topk if kind == "topk" else rt.select_threshold
    active = select(gate.alpha[0], arg)
    # only active branches are executed, and only their tokens are kept:
    # infer has no backward to read the rest
    qk = params.query_fold()
    fused = fuse([_run_branch(name, [bundle], params, qk).tokens
                  for name in active.members], active.renorm_weights[None])
    tokens = _mlp_forward(params.out_mlp, fused)[0]
    if not np.isfinite(tokens).all():
        raise NumericError("inference produced non-finite tokens")
    return ProjectedTokens(tokens, gate=gate, active=active)


def forward(bundles: list[FeatureBundle], params: ProjectorParams,
            mode: tuple) -> ProjectedTokens:
    """The forward pass of `mode` over a batch: ("stage1",), ("train", tau,
    gumbel_scale, seed), or an infer mode over a batch of one."""
    kind = mode[0]
    if kind == "stage1":
        return stage1_forward(bundles, params)
    if kind == "train":
        return train_forward(bundles, params, *mode[1:])
    if kind in ("topk", "threshold"):
        if len(bundles) != 1:
            raise ShapeError(f"an infer mode runs a batch of one, got "
                             f"{len(bundles)} bundles")
        return infer_forward(bundles[0], params, mode)
    raise ValueError(f"unknown forward mode {kind!r}")
