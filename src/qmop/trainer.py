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
outputs, MLP activations, the gate with one row per sample), releases each
tensor once its gradients are written, and returns gradients only for the
tensors its mode reaches: stage 1 never reaches the router or `out_mlp`,
stage 2 never reaches `stage1_mlp`, and neither reaches the relevance map.
Pool and resample share one backward, `_attend_backward`, as they share
one forward; `_pool_backward` and `_resample_backward` map its d(qk) and
the attended rows onto their own tensors.

The discrete top-M prune selection is treated as fixed indices: gradients
flow through the selected token values only, never through the scores, so
the relevance map receives zero gradient by construction.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import pipeline as pl
from .branches import CompressedTokens
from .bundle import FeatureBundle
from .linalg import (ACTIVATIONS, ShapeError, float32_image, grad_check,
                     stack_rows)
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


def loss_mse(output: np.ndarray, target: np.ndarray) -> float:
    if output.shape != target.shape:
        raise ShapeError(f"output {output.shape} vs target {target.shape}")
    d = output - target
    return float(np.mean(d * d))


def batch_loss(tokens: np.ndarray, targets: list[np.ndarray]) -> float:
    """Mean over the batch of each sample's `loss_mse`; `tokens` stacks the
    samples' output rows in batch order."""
    return sum(loss_mse(out, target) for out, target in
               zip(np.split(tokens, len(targets)), targets)) / len(targets)


def _mlp_backward(mlp: pl.Mlp, acts: tuple, d_y: np.ndarray,
                  grads: dict, prefix: str) -> np.ndarray:
    _, act_grad = ACTIVATIONS[mlp.activation]
    x, h, a = acts
    grads[f"{prefix}.w_out"] = d_y.T @ a
    grads[f"{prefix}.b_out"] = d_y.sum(axis=0)
    d_a = d_y @ mlp.w_out
    d_h = d_a * act_grad(h)
    grads[f"{prefix}.w_in"] = d_h.T @ x
    grads[f"{prefix}.b_in"] = d_h.sum(axis=0)
    return d_h @ mlp.w_in


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


def _resample_backward(params: pl.ProjectorParams, out: CompressedTokens,
                       d_out: np.ndarray, grads: dict) -> None:
    res = params.resampler
    grads["resampler.w_v"] = d_out.T @ out.pooled
    d_qk = _attend_backward(out, d_out @ res.w_v)
    grads["resampler.queries"] = d_qk @ res.w_k.T
    grads["resampler.w_k"] = res.queries.T @ d_qk


def _pool_backward(params: pl.ProjectorParams, out: CompressedTokens,
                   d_out: np.ndarray, grads: dict) -> None:
    pool = params.pool
    phi_v = pool.phi_k if pool.shared_phi else pool.phi_v
    d_phi_v = d_out.T @ out.pooled
    d_qk = _attend_backward(out, d_out @ phi_v)
    grads["pool.q2d"] = d_qk @ pool.phi_k.T
    d_phi_k = pool.q2d.T @ d_qk
    if pool.shared_phi:
        grads["pool.phi_k"] = d_phi_k + d_phi_v
    else:
        grads["pool.phi_k"] = d_phi_k
        grads["pool.phi_v"] = d_phi_v


def _branch_backward(params, name: str, out: CompressedTokens,
                     d_out: np.ndarray, grads: dict) -> None:
    if name == "resample":
        _resample_backward(params, out, d_out, grads)
    elif name == "pool":
        _pool_backward(params, out, d_out, grads)
    # prune: selected rows come straight from the input features, and score
    # influence is detached, so no parameter receives gradient.


def backward(bundles: list[FeatureBundle], params: pl.ProjectorParams,
             targets: list[np.ndarray], mode: tuple):
    """Batch-mean loss and its analytic gradient for every tensor the mode
    reaches.

    One forward and one backward over the whole batch: a list of bundles
    and a list of as many targets, one per bundle. mode is ("stage1",) or
    ("train", tau, gumbel_scale, seed), where bundle i draws its gate noise
    at `seed + i`; an infer mode has no backward. Returns (loss, grads,
    gate): grads maps each reached tensor's name to a fresh array, and a
    tensor the mode does not reach has no entry, since its gradient is
    exactly zero. gate is the forward's gate record, one row per sample, in
    train mode and None in stage 1.
    """
    if mode[0] not in ("stage1", "train"):
        raise ValueError(f"unknown backward mode {mode[0]!r}")
    if len(targets) != len(bundles):
        raise ShapeError(f"{len(targets)} targets for {len(bundles)} bundles")
    fwd = pl.forward(bundles, params, mode)
    outs, acts, gate = fwd.outputs, fwd.mlp, fwd.gate
    loss = batch_loss(fwd.tokens, targets)
    d_y = 2.0 * (fwd.tokens - stack_rows(targets)) / fwd.tokens.size
    del fwd
    grads: dict[str, np.ndarray] = {}

    if mode[0] == "stage1":
        d_concat = _mlp_backward(params.stage1_mlp, acts, d_y, grads,
                                 "stage1_mlp")
        del acts, d_y
        for name, d_out in zip(BRANCHES, np.split(d_concat, len(BRANCHES),
                                                  axis=1)):
            _branch_backward(params, name, outs.pop(name), d_out, grads)
        return loss, grads, None

    d_fused = _mlp_backward(params.out_mlp, acts, d_y, grads, "out_mlp")
    del acts, d_y
    d_alpha = np.stack([(d_fused * outs[name].tokens)
                        .reshape(len(gate.alpha), -1).sum(axis=1)
                        for name in BRANCHES], axis=1)  # B x branches
    for name, weight in zip(BRANCHES, gate.alpha.T):
        _branch_backward(params, name, outs.pop(name),
                         pl.scale_samples(weight, d_fused), grads)

    # gate: alpha = softmax((base_logits + noise)/tau), noise constant
    d_logits = _softmax_backward(gate.alpha, d_alpha) / gate.tau_used
    grads["router.w2"] = d_logits.T @ gate.a1
    grads["router.b2"] = d_logits.sum(axis=0)
    d_a1 = d_logits @ params.router.w2
    _, act_grad = ACTIVATIONS[params.router.activation]
    d_h1 = d_a1 * act_grad(gate.h1)
    grads["router.w1"] = d_h1.T @ gate.f
    grads["router.b1"] = d_h1.sum(axis=0)
    return loss, grads, gate


def gradcheck_params(bundle: FeatureBundle, params: pl.ProjectorParams,
                     target: np.ndarray, mode: tuple) -> dict[str, float]:
    """Per-tensor max relative error of analytic vs central-difference grads
    of one sample's loss, for `bundle` and `target` as a batch of one and a
    mode as `backward` takes it. Every tensor is checked: one the mode does
    not reach against zeros.

    Both the backward and `grad_check`, which perturbs each tensor in
    place, run on a deep copy, so the caller's params are never touched: a
    stage-1 check draws the head in the copy only. The copy's tensors are
    writeable, so the check also runs on read-only params, as inference
    leaves the four tensors `pipeline.query_products` reads."""
    bundles, targets = [bundle], [target]
    work = copy.deepcopy(params)
    _, grads, _ = backward(bundles, work, targets, mode)

    def loss():
        return batch_loss(pl.forward(bundles, work, mode).tokens, targets)

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


def train_toy(params: pl.ProjectorParams, config: TrainConfig) -> TrainReport:
    """Plain gradient descent on `params`; deterministic for a fixed seed.
    Each step assigns every reached tensor a new array, p - lr * g, computed
    in its gradient's buffer, so no tensor is written in place and read-only
    tensors train too. Step k's gate-noise seed is `seed * 1000003 + k * B`
    for a batch of B, so bundle i draws its noise at that plus i. With
    `final_grad_check`, a tensor whose residual is not within
    `GRADCHECK_TOL` raises `GradCheckError`."""
    if len(config.bundles) != len(config.targets) or not config.bundles:
        raise ValueError("need equal, nonzero numbers of bundles and targets")
    n = len(config.bundles)
    losses: list[float] = []
    tau_trace: list[float] = []
    gumbel_trace: list[float] = []
    first_entropy = final_entropy = None

    for step in range(config.steps):
        mode = _step_mode(config, step, config.seed * 1000003 + step * n)
        loss, grads, gate = backward(config.bundles, params, config.targets,
                                     mode)
        if not math.isfinite(loss):
            raise DivergenceError(step)
        losses.append(loss)
        if gate is not None:    # stage 2
            tau_trace.append(mode[1])
            gumbel_trace.append(mode[2])
            entropy = sum(gate_entropy(alpha) for alpha in gate.alpha) / n
            if step == 0:
                first_entropy = entropy
            final_entropy = entropy
        for name, grad in grads.items():
            record, attr = name.split(".")
            holder = getattr(params, record)
            grad *= config.lr    # a fresh array: it becomes the new tensor
            np.subtract(getattr(holder, attr), grad, out=grad)
            setattr(holder, attr, grad)

    gc_err = None
    if config.final_grad_check:
        mode = _step_mode(config, max(config.steps - 1, 0), config.seed)
        # over diverged params the check raises NumericError, which says
        # all that numpy's overflow warnings would
        with np.errstate(over="ignore", invalid="ignore"):
            errors = gradcheck_params(config.bundles[0], params,
                                      config.targets[0], mode)
        if over_bound(errors):
            raise GradCheckError(errors)
        gc_err = max(errors.values())

    return TrainReport(
        losses=losses,
        final_gate_entropy=final_entropy,
        first_gate_entropy=first_entropy,
        grad_check_max_rel_err=gc_err,
        params_digest=params_digest(params),
        tau_trace=tau_trace,
        gumbel_trace=gumbel_trace,
    )
