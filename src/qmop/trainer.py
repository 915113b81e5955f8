"""Two-stage toy training loop with hand-derived analytic gradients.

Stage 1 trains the branch operators plus the concat MLP (router off).
Stage 2 trains the router-gated weighted-sum path with temperature and
Gumbel-noise annealing. The downstream language model is replaced by an MSE
regression target, which still exercises every gradient path through the
projector. A step is one forward and one backward over the whole batch:
every weight gradient is one GEMM over the batch's stacked rows, and the
loss is the batch mean of the per-sample losses. `_step_mode` gives each
step's mode, which `backward` runs through `pipeline.forward`, and the
backward reads only the `ProjectedTokens` that forward returns (branch
outputs, MLP activations, the gate with one row per sample), turns the
output tokens into the loss's gradient in their own buffer, releases each
activation once its gradients are computed, and hands the caller's sink a
gradient only for the tensors its mode reaches, each once its last read of
that tensor is done: stage 1 never reaches the router or `out_mlp`, stage
2 never reaches `stage1_mlp`, and neither reaches the relevance map.
Each gradient is assigned at `grads[name, rows]`, indexed as `tensor[rows]`
indexes its tensor: a whole tensor at `slice(None)`, and the two MLP
weights, the projector's largest tensors, in blocks of rows (`GRAD_BLOCK`).
`train_toy`'s sink applies each gradient in place as it arrives, into those
rows, so no step holds its whole gradient set or keeps an array it
allocates. After the head's MLP backward, one loop over the branches hands
pool and resample their output gradient, in stage 1 their block of
d(concat) and in stage 2 d(fused) scaled by their gate column; prune gets
none (see below).
Pool and resample share one backward, as they share one forward:
`_attend_backward` gives d(qk), and `_attend_params_backward` maps it and
the attended rows onto the query, key and value tensors that
`_pool_backward` and `_resample_backward` name.

The discrete top-M prune selection is treated as fixed indices: gradients
flow through the selected token values only, never through the scores, so
the relevance map receives zero gradient by construction.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import pipeline as pl
from .branches import CompressedTokens
from .bundle import FeatureBundle
from .linalg import ACTIVATIONS, ShapeError, float32_image, grad_check
from .router import BRANCHES, gate_entropy


# the bound on `grad_check`'s residual that every tensor must meet
GRADCHECK_TOL = 1e-4


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


class GradCheckError(RuntimeError):
    """The final gradient check found tensors above `GRADCHECK_TOL`."""

    def __init__(self, errors: dict[str, float]):
        self.names = over_bound(errors)
        super().__init__(
            f"final gradient check failed for: {', '.join(self.names)} "
            f"(max rel err {max(errors.values()):.3g} > {GRADCHECK_TOL:g})")


def over_bound(errors: dict[str, float]) -> list[str]:
    """The sorted names of the tensors whose residual is not within
    `GRADCHECK_TOL`."""
    return sorted(name for name, err in errors.items()
                  if not err <= GRADCHECK_TOL)


@dataclass
class AnnealSchedule:
    tau0: float = 5.0
    tau_min: float = 0.5
    decay: float = 0.995
    gumbel0: float = 1.0
    gumbel_decay: float = 0.995

    def __post_init__(self):
        if not (self.tau0 >= self.tau_min > 0):
            raise ValueError("need tau0 >= tau_min > 0")
        if not (0 < self.decay < 1 and 0 < self.gumbel_decay < 1):
            raise ValueError("decay factors must be in (0,1)")
        if self.gumbel0 < 0:
            raise ValueError("need gumbel0 >= 0")


def tau_at(schedule: AnnealSchedule, step: int) -> float:
    return max(schedule.tau_min, schedule.tau0 * schedule.decay ** step)


def gumbel_scale_at(schedule: AnnealSchedule, step: int) -> float:
    return schedule.gumbel0 * schedule.gumbel_decay ** step


@dataclass
class TrainConfig:
    stage: int
    steps: int
    lr: float
    seed: int
    bundles: list[FeatureBundle]
    targets: list[np.ndarray]       # per-bundle M x D_llm
    final_grad_check: bool
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)


@dataclass
class TrainReport:
    losses: list[float]
    final_gate_entropy: float | None
    first_gate_entropy: float | None
    grad_check_max_rel_err: float | None
    params_digest: str
    tau_trace: list[float]
    gumbel_trace: list[float]


def _residual_loss(tokens: np.ndarray, targets: list[np.ndarray]) -> float:
    """The batch-mean loss: the mean over the samples of each one's mean
    squared error against its target, where `tokens` stacks the samples'
    output rows in batch order. It is computed as `tokens` becomes, in its
    own buffer, d loss / d tokens: 2 (tokens - targets) / tokens.size. Each
    sample's rows become its residual in turn, and every target's shape is
    checked before the first write."""
    blocks = np.split(tokens, len(targets))
    for out, target in zip(blocks, targets):
        if out.shape != target.shape:
            raise ShapeError(f"output {out.shape} vs target {target.shape}")
    losses = []
    for d, target in zip(blocks, targets):
        d -= target
        losses.append(float(np.mean(d * d)))
    tokens *= 2.0
    tokens /= tokens.size
    return sum(losses) / len(targets)


class GradSink(Protocol):
    """Where `backward` puts each gradient: `GradDict`, which keeps them, or
    `train_toy`'s update, which applies each as it arrives. Each gradient is
    assigned at `grads[name, rows]`, indexing the tensor `name` as
    `tensor[rows]` does: `rows` is `slice(None)` for a whole tensor, and an
    MLP weight's gradient comes as one assignment per block of its rows, in
    row order."""

    def __setitem__(self, key: tuple[str, slice], grad: np.ndarray) -> None:
        ...


class GradDict(dict):
    """A `GradSink` that keeps every gradient whole under its tensor's name,
    an MLP weight's blocks joined in row order."""

    def __setitem__(self, key: tuple[str, slice], grad: np.ndarray) -> None:
        name, rows = key
        super().__setitem__(name, np.concatenate((self[name], grad))
                            if rows.start else grad)


# elements of an MLP weight's gradient computed and handed over at a time
GRAD_BLOCK = 1 << 18


def _hand_rows(grads: GradSink, name: str, d_out: np.ndarray,
               x: np.ndarray) -> None:
    """Hand `grads` the gradient `d_out.T @ x` of the weight `name` in
    near-equal blocks of rows, each at most `GRAD_BLOCK` elements where
    that leaves at least three rows a block. Each block is its own GEMM over
    the batch's rows, and OpenBLAS sums its elements as it sums the whole
    product's, except perhaps where the block falls below its small-matrix
    cutoff (m·n·k of 10**6) and the whole does not; at paper dims every
    block is far above it. No block has one row unless the weight does:
    numpy runs a one-row product as a GEMV, which sums in another order."""
    n = d_out.shape[1]
    count = -(-n // max(3, GRAD_BLOCK // x.shape[1]))
    for i in range(count):
        rows = slice(n * i // count, n * (i + 1) // count)
        grads[name, rows] = d_out[:, rows].T @ x


def _mlp_backward(mlp: pl.Mlp, fwd: pl.ProjectedTokens, grads: GradSink,
                  prefix: str) -> np.ndarray:
    """d loss / d input of the MLP whose output gradient `fwd.tokens` holds
    and whose activations `fwd.mlp` holds. It takes both from the record,
    which keeps neither, so d_y and the activation are freed once w_out's
    blocks are handed over, and the pre-activation once d_h is built."""
    _, act_grad = ACTIVATIONS[mlp.activation]
    d_y, (x, h, a) = fwd.tokens, fwd.mlp
    fwd.tokens = fwd.mlp = None
    d_h = d_y @ mlp.w_out     # d loss / d a, made d loss / d h below
    _hand_rows(grads, f"{prefix}.w_out", d_y, a)
    grads[f"{prefix}.b_out", :] = d_y.sum(axis=0)
    del d_y, a
    d_h *= act_grad(h)
    del h
    d_x = d_h @ mlp.w_in
    _hand_rows(grads, f"{prefix}.w_in", d_h, x)
    grads[f"{prefix}.b_in", :] = d_h.sum(axis=0)
    return d_x


def _softmax_backward(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """d loss / d logits for p = softmax(logits), rows independent."""
    inner = (d_p * p).sum(axis=-1, keepdims=True)
    return p * (d_p - inner)


def _attend_backward(out: CompressedTokens,
                     d_pooled: np.ndarray) -> np.ndarray:
    """d loss / d qk, summed over the batch as one M x C matrix, for the
    `branches._attend` record `out` given d loss / d pooled (B*M x C)."""
    c = d_pooled.shape[1]
    scale = 1.0 / math.sqrt(c)
    parts = []     # each sample's G x R x C; they sum to the batch's
    for keys, attn, d in zip(out.keys, out.attn,
                             np.split(d_pooled, len(out.keys))):
        d_attn = d.reshape(attn.shape[:2] + (c,)) @ keys.swapaxes(1, 2)
        parts.append((_softmax_backward(attn, d_attn) * scale) @ keys)
    return sum(parts[1:], parts[0]).reshape(-1, c)


def _attend_params_backward(params, tag: str, names: tuple[str, str, str],
                            out: CompressedTokens, d_out: np.ndarray,
                            grads: GradSink) -> None:
    """Hand `grads` the gradients of record `tag`'s query, key and value
    tensors, whose field names `names` holds, for the `branches._attend`
    record `out` given d loss / d out. A value field that is the key field
    gets its two terms summed and handed over once. Each gradient is handed
    over after the last read of its tensor, and no local keeps it."""
    record = getattr(params, tag)
    q, k, v = names
    d_qk = _attend_backward(out, d_out @ getattr(record, v))
    if v != k:
        grads[f"{tag}.{v}", :] = d_out.T @ out.pooled
    d_w_k = getattr(record, q).T @ d_qk
    grads[f"{tag}.{q}", :] = d_qk @ getattr(record, k).T
    if v == k:
        d_w_k += d_out.T @ out.pooled
    grads[f"{tag}.{k}", :] = d_w_k


def _resample_backward(params: pl.ProjectorParams, out: CompressedTokens,
                       d_out: np.ndarray, grads: GradSink) -> None:
    _attend_params_backward(params, "resampler", ("queries", "w_k", "w_v"),
                            out, d_out, grads)


def _pool_backward(params: pl.ProjectorParams, out: CompressedTokens,
                   d_out: np.ndarray, grads: GradSink) -> None:
    _attend_params_backward(
        params, "pool",
        ("q2d", "phi_k", "phi_k" if params.pool.shared_phi else "phi_v"),
        out, d_out, grads)


def backward(bundles: list[FeatureBundle], params: pl.ProjectorParams,
             targets: list[np.ndarray], mode: tuple, grads: GradSink):
    """Batch-mean loss and its analytic gradient for every tensor the mode
    reaches.

    One forward and one backward over the whole batch: a list of bundles
    and a list of as many targets, one per bundle. mode is ("stage1",) or
    ("train", tau, gumbel_scale, seed), where bundle i draws its gate noise
    at `seed + i`; an infer mode has no backward. Each reached tensor's
    gradient, in fresh arrays, is assigned to `grads[name, rows]` once,
    after the backward's last read of that tensor, and the backward keeps
    no reference to it, so the sink may update the tensor in place at once
    and free the gradient: `rows` is `slice(None)` for a whole tensor, and
    an MLP weight's comes block by block (`_hand_rows`). A tensor the mode
    does not reach gets nothing, since its gradient is exactly zero.
    Returns (loss, gate): gate is the forward's gate record, one row per
    sample, in train mode and None in stage 1.
    """
    if mode[0] not in ("stage1", "train"):
        raise ValueError(f"unknown backward mode {mode[0]!r}")
    if len(targets) != len(bundles):
        raise ShapeError(f"{len(targets)} targets for {len(bundles)} bundles")
    fwd = pl.forward(bundles, params, mode)
    loss = _residual_loss(fwd.tokens, targets)
    outs, gate = fwd.outputs, fwd.gate

    stage1 = mode[0] == "stage1"
    head = "stage1_mlp" if stage1 else "out_mlp"
    d_in = _mlp_backward(getattr(params, head), fwd, grads, head)
    del fwd
    if not stage1:
        d_alpha = np.stack([(d_in * outs[name].tokens)
                            .reshape(len(gate.alpha), -1).sum(axis=1)
                            for name in BRANCHES], axis=1)  # B x branches
    for i, name in enumerate(BRANCHES):
        # prune's rows come straight from the input features, and its scores
        # are detached, so no parameter of it receives gradient; the others'
        # backwards are looked up at call time, where a tracer patches them
        if name != "prune":
            globals()[f"_{name}_backward"](
                params, outs.pop(name),
                np.split(d_in, len(BRANCHES), axis=1)[i] if stage1
                else pl.scale_samples(gate.alpha[:, i], d_in), grads)
    if not stage1:
        # gate: alpha = softmax((base_logits + noise)/tau), noise constant
        d_logits = _softmax_backward(gate.alpha, d_alpha) / gate.tau_used
        d_a1 = d_logits @ params.router.w2
        grads["router.w2", :] = d_logits.T @ gate.a1
        grads["router.b2", :] = d_logits.sum(axis=0)
        _, act_grad = ACTIVATIONS[params.router.activation]
        d_h1 = d_a1 * act_grad(gate.h1)
        grads["router.w1", :] = d_h1.T @ gate.f
        grads["router.b1", :] = d_h1.sum(axis=0)
    return loss, gate


def gradcheck_params(bundle: FeatureBundle, params: pl.ProjectorParams,
                     target: np.ndarray, mode: tuple) -> dict[str, float]:
    """Per-tensor max relative error of analytic vs central-difference grads
    of one sample's loss, for `bundle` and `target` as a batch of one and a
    mode as `backward` takes it. Every tensor is checked against the
    gradient the backward hands a `GradDict`, so none is applied: one the
    mode does not reach, which gets no entry, against zeros.

    Both the backward and `grad_check`, which perturbs each tensor in
    place, run on a deep copy, so the caller's params are never touched: a
    stage-1 check draws the head in the copy only. The copy's tensors are
    writeable, so the check also runs on read-only params, as inference
    leaves the four tensors `pipeline.query_key_pairs` names."""
    bundles, targets = [bundle], [target]
    work = copy.deepcopy(params)
    grads = GradDict()
    backward(bundles, work, targets, mode, grads)

    def loss():
        return _residual_loss(pl.forward(bundles, work, mode).tokens, targets)

    return {name: grad_check(loss, arr, grads[name] if name in grads
                             else np.zeros(arr.shape))
            for name, arr in work.named_tensors()}


DIGEST_CHUNK = 1 << 18   # elements cast and hashed at a time


def float32_digest(arrays) -> str:
    """sha256 of each array's `float32_image` in turn, cast and hashed
    `DIGEST_CHUNK` elements at a time: the format of every digest."""
    digest = hashlib.sha256()
    for arr in arrays:
        flat = arr.reshape(-1)   # a view of a C-contiguous array
        for start in range(0, arr.size, DIGEST_CHUNK):
            digest.update(float32_image(flat[start:start + DIGEST_CHUNK]))
    return digest.hexdigest()


def params_digest(params: pl.ProjectorParams) -> str:
    """`float32_digest` of every tensor, in `named_tensors` order, with
    `digest_head` in the stage-1 head's place: an undrawn head is hashed
    from its float32 image, the same bytes, and is not drawn."""
    return float32_digest(arr for _, arr in
                          params.named_tensors(params.digest_head()))


def _step_mode(config: TrainConfig, step: int, seed: int) -> tuple:
    """Training step `step`'s forward mode: stage 1's, or stage 2's with the
    schedule's tau and noise scale at `step` and gate-noise `seed`."""
    if config.stage == 1:
        return ("stage1",)
    return ("train", tau_at(config.schedule, step),
            gumbel_scale_at(config.schedule, step), seed)


class _Update:
    """`train_toy`'s gradient sink: p -= lr * g on arrival, in place, for a
    tensor's whole gradient and for a block of an MLP weight's rows alike,
    so a step allocates no new tensor and a caller holding any params array
    sees it trained. A read-only tensor, such as a fold source after
    inference, is first replaced, once, by a writeable copy, so the
    caller's array keeps its values and read-only params train too."""

    def __init__(self, params: pl.ProjectorParams, lr: float):
        self.params, self.lr = params, lr

    def __setitem__(self, key: tuple[str, slice], grad: np.ndarray) -> None:
        name, rows = key
        record, attr = name.split(".")
        holder = getattr(self.params, record)
        tensor = getattr(holder, attr)
        if not tensor.flags.writeable:
            tensor = tensor.copy()
            setattr(holder, attr, tensor)
        grad *= self.lr
        np.subtract(tensor[rows], grad, out=tensor[rows])


def train_toy(params: pl.ProjectorParams, config: TrainConfig) -> TrainReport:
    """Plain gradient descent on `params`; deterministic for a fixed seed.
    `backward` hands each reached tensor's gradient to an `_Update`, which
    applies it then and there, in place, an MLP weight's in row blocks, so
    a step never holds its whole gradient set and every trained tensor of
    writeable params stays the same array; a step whose loss is not
    finite raises `DivergenceError` after its update. Step k's gate-noise
    seed is `seed * 1000003 + k * B` for a batch of B, so bundle i draws its
    noise at that plus i. With `final_grad_check`, a tensor whose residual
    is not within `GRADCHECK_TOL` raises `GradCheckError`. The steps and
    the check run with numpy's overflow and invalid-value warnings off: a
    divergence is reported by the error alone. The report is read off the
    steps: their losses and, in stage 2, each step's mode and mean gate
    entropy, which give the tau and noise traces and the first and final
    entropy."""
    if len(config.bundles) != len(config.targets) or not config.bundles:
        raise ValueError("need equal, nonzero numbers of bundles and targets")
    n = len(config.bundles)
    losses: list[float] = []
    stage2: list[tuple[tuple, float]] = []   # each step's (mode, entropy)
    update = _Update(params, config.lr)

    # a step or a final check over diverged params raises, which says all
    # that numpy's overflow warnings would
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            mode = _step_mode(config, step, config.seed * 1000003 + step * n)
            loss, gate = backward(config.bundles, params, config.targets,
                                  mode, update)
            if not math.isfinite(loss):
                raise DivergenceError(step)
            losses.append(loss)
            if gate is not None:
                stage2.append((mode, sum(map(gate_entropy, gate.alpha)) / n))

        gc_err = None
        if config.final_grad_check:
            mode = _step_mode(config, max(config.steps - 1, 0), config.seed)
            errors = gradcheck_params(config.bundles[0], params,
                                      config.targets[0], mode)
            if over_bound(errors):
                raise GradCheckError(errors)
            gc_err = max(errors.values())

    entropies = [entropy for _, entropy in stage2] or [None]   # no gate
    return TrainReport(
        losses=losses,
        final_gate_entropy=entropies[-1],
        first_gate_entropy=entropies[0],
        grad_check_max_rel_err=gc_err,
        params_digest=params_digest(params),
        tau_trace=[mode[1] for mode, _ in stage2],
        gumbel_trace=[mode[2] for mode, _ in stage2],
    )
