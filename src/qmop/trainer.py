"""Two-stage toy training loop with hand-derived analytic gradients.

Stage 1 trains the branch operators plus the concat MLP (router off).
Stage 2 trains the router-gated weighted-sum path with temperature and
Gumbel-noise annealing. The downstream language model is replaced by an MSE
regression target, which still exercises every gradient path through the
projector. The discrete top-M prune selection is treated as fixed indices:
gradients flow through the selected token values only, never through the
scores, so the relevance map receives zero gradient by construction.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import pipeline as pl
from .bundle import FeatureBundle
from .linalg import ACTIVATIONS, ShapeError, grad_check
from .router import BRANCHES, gate_entropy


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


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
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    final_grad_check: bool = True


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


class _Grads(dict):
    """Gradients keyed by tensor name. A tensor's first contribution is stored
    as is and later ones add into it in place, so the keys are exactly the
    tensors a backward pass reaches. A contribution must be a fresh array
    that nothing else holds, since the caller may accumulate into it."""

    def __init__(self, params: pl.ProjectorParams):
        super().__init__()
        self._params = dict(params.named_tensors())

    def add(self, name: str, contrib: np.ndarray) -> None:
        if name in self:
            self[name] += contrib
        else:
            self[name] = contrib

    def complete(self) -> dict[str, np.ndarray]:
        """A gradient for every tensor; unreached ones are read-only zeros."""
        return {name: self[name] if name in self
                else np.broadcast_to(np.zeros((), arr.dtype), arr.shape)
                for name, arr in self._params.items()}


def _mlp_backward(mlp: pl.Mlp, mcache: dict, d_y: np.ndarray,
                  grads: _Grads, prefix: str) -> np.ndarray:
    _, act_grad = ACTIVATIONS[mlp.activation]
    x, h, a = mcache["x"], mcache["h"], mcache["a"]
    grads.add(f"{prefix}.w_out", d_y.T @ a)
    grads.add(f"{prefix}.b_out", d_y.sum(axis=0))
    d_a = d_y @ mlp.w_out
    d_h = d_a * act_grad(h)
    grads.add(f"{prefix}.w_in", d_h.T @ x)
    grads.add(f"{prefix}.b_in", d_h.sum(axis=0))
    return d_h @ mlp.w_in


def _softmax_backward(p: np.ndarray, d_p: np.ndarray) -> np.ndarray:
    """d loss / d logits for p = softmax(logits), rows independent."""
    inner = (d_p * p).sum(axis=-1, keepdims=True)
    return p * (d_p - inner)


def _resample_backward(params: pl.ProjectorParams, rcache: dict,
                       d_out: np.ndarray, grads: _Grads) -> None:
    x, pooled, attn = rcache["x"], rcache["pooled"], rcache["attn"]
    res = params.resampler
    scale = 1.0 / math.sqrt(x.shape[1])
    grads.add("resampler.w_v", d_out.T @ pooled)
    d_attn = (d_out @ res.w_v) @ x.T                   # M x N
    d_s = _softmax_backward(attn, d_attn) * scale
    d_qk = d_s @ x                                     # M x C
    grads.add("resampler.queries", d_qk @ res.w_k.T)
    grads.add("resampler.w_k", res.queries.T @ d_qk)


def _pool_backward(params: pl.ProjectorParams, pcache: dict,
                   d_out: np.ndarray, grads: _Grads) -> None:
    win, qk, pooled, attn = (pcache["windows"], pcache["qk"],
                             pcache["pooled"], pcache["attn"])
    pool = params.pool
    scale = 1.0 / math.sqrt(win.shape[2])
    phi_v = pool.phi_k if pool.shared_phi else pool.phi_v
    d_phi_v = d_out.T @ pooled
    d_pooled = d_out @ phi_v                           # M x C
    d_attn = np.einsum("mc,mwc->mw", d_pooled, win)
    d_s = _softmax_backward(attn, d_attn) * scale
    d_qk = np.einsum("mw,mwc->mc", d_s, win)           # M x C
    grads.add("pool.q2d", d_qk @ pool.phi_k.T)
    d_phi_k = pool.q2d.T @ d_qk
    if pool.shared_phi:
        grads.add("pool.phi_k", d_phi_k + d_phi_v)
    else:
        grads.add("pool.phi_k", d_phi_k)
        grads.add("pool.phi_v", d_phi_v)


def _branch_backward(params, cache, name: str, d_out: np.ndarray,
                     grads: _Grads) -> None:
    if name == "resample":
        _resample_backward(params, cache["resample"], d_out, grads)
    elif name == "pool":
        _pool_backward(params, cache["pool"], d_out, grads)
    # prune: selected rows come straight from the input features, and score
    # influence is detached, so no parameter receives gradient.


def _forward(bundle: FeatureBundle, params: pl.ProjectorParams, mode: tuple,
             cache: dict | None = None) -> pl.ProjectedTokens:
    """The forward pass `backward` differentiates, for ("stage1",) or
    ("train", tau, gumbel_scale, seed)."""
    if mode[0] == "stage1":
        return pl.stage1_forward(bundle, params, cache=cache)
    if mode[0] == "train":
        _, tau, gscale, seed = mode
        return pl.train_forward(bundle, params, tau, gscale, seed, cache=cache)
    raise ValueError(f"unknown backward mode {mode[0]!r}")


def backward(bundle: FeatureBundle, params: pl.ProjectorParams,
             target: np.ndarray, mode: tuple, into: _Grads | None = None):
    """Loss and analytic gradients for every learnable tensor.

    mode is ("stage1",) or ("train", tau, gumbel_scale, seed). Returns
    (loss, grads, aux) where aux carries the forward gate for inspection and
    "reached", the names of the tensors the mode trains. The other tensors'
    gradients are exactly zero and come back as read-only views. With
    `into`, this sample's gradients add into that accumulator instead of a
    fresh one, and the returned gradients are its running sums; each reached
    tensor gets exactly one contribution per call.
    """
    cache: dict = {}
    out = _forward(bundle, params, mode, cache)
    diff = out.tokens - target
    loss = float(np.mean(diff * diff))
    d_y = 2.0 * diff / diff.size
    grads = _Grads(params) if into is None else into

    if mode[0] == "stage1":
        d_concat = _mlp_backward(params.stage1_mlp, cache["mlp"], d_y,
                                 grads, "stage1_mlp")
        d_outs = np.split(d_concat, len(BRANCHES), axis=1)
        for name, d_out in zip(BRANCHES, d_outs):
            _branch_backward(params, cache, name, d_out, grads)
        return loss, grads.complete(), {"gate": None, "reached": tuple(grads)}

    d_fused = _mlp_backward(params.out_mlp, cache["mlp"], d_y, grads, "out_mlp")
    gate = cache["gate"]
    outs = cache["outputs"]
    d_alpha = np.array([float(np.sum(d_fused * outs[name].tokens))
                        for name in BRANCHES])
    for name, alpha in zip(BRANCHES, gate.alpha):
        _branch_backward(params, cache, name, alpha * d_fused, grads)

    # gate: alpha = softmax((base_logits + noise)/tau), noise constant
    gc = cache["gate_cache"]
    d_logits = _softmax_backward(gate.alpha, d_alpha) / gate.tau_used
    grads.add("router.w2", np.outer(d_logits, gc["a1"]))
    grads.add("router.b2", d_logits)
    d_a1 = params.router.w2.T @ d_logits
    _, act_grad = ACTIVATIONS[params.router.activation]
    d_h1 = d_a1 * act_grad(gc["h1"])
    grads.add("router.w1", np.outer(d_h1, gc["f"]))
    grads.add("router.b1", d_h1)
    return loss, grads.complete(), {"gate": gate, "reached": tuple(grads)}


def gradcheck_params(bundle: FeatureBundle, params: pl.ProjectorParams,
                     target: np.ndarray, mode: tuple,
                     eps: float = 1e-5) -> dict[str, float]:
    """Per-tensor max relative error of analytic vs central-difference grads.

    Each tensor of a deep copy is perturbed in place through `arr.flat`,
    which writes through whatever the tensor's memory order, and restored
    before the next one, so the caller's params are never touched."""
    _, grads, _ = backward(bundle, params, target, mode)
    work = copy.deepcopy(params)
    report = {}
    for name, arr in work.named_tensors():
        start = arr.flatten()   # a copy in C order, as `arr.flat` walks

        def tensor_loss(flat, arr=arr):
            arr.flat[:] = flat
            return loss_mse(_forward(bundle, work, mode).tokens, target)

        report[name] = grad_check(tensor_loss, start, grads[name].ravel(), eps)
        arr.flat[:] = start
    return report


DIGEST_CHUNK = 1 << 18   # float32 elements cast and hashed at a time


def params_digest(params: pl.ProjectorParams) -> str:
    """sha256 of every tensor as little-endian float32, in `named_tensors`
    order: the bytes of the flat parameter vector, cast chunk by chunk into
    one reused buffer and hashed as they go."""
    digest = hashlib.sha256()
    buf = np.empty(DIGEST_CHUNK, dtype="<f4")
    for _, arr in params.named_tensors():
        flat = arr.reshape(-1)   # a view of the C-contiguous params we make
        for start in range(0, arr.size, DIGEST_CHUNK):
            part = flat[start:start + DIGEST_CHUNK]
            chunk = buf[:len(part)]
            chunk[...] = part
            digest.update(chunk)
    return digest.hexdigest()


def train_toy(params: pl.ProjectorParams, config: TrainConfig) -> TrainReport:
    """Plain gradient descent; deterministic for a fixed seed."""
    if len(config.bundles) != len(config.targets) or not config.bundles:
        raise ValueError("need equal, nonzero numbers of bundles and targets")
    batch = list(zip(config.bundles, config.targets))
    losses: list[float] = []
    tau_trace: list[float] = []
    gumbel_trace: list[float] = []
    first_entropy = final_entropy = None

    for step in range(config.steps):
        if config.stage == 2:
            tau = tau_at(config.schedule, step)
            gscale = gumbel_scale_at(config.schedule, step)
            tau_trace.append(tau)
            gumbel_trace.append(gscale)
        grads = _Grads(params)   # every sample of the batch adds into it
        step_loss = 0.0
        step_entropy = 0.0
        for i, (bundle, target) in enumerate(batch):
            if config.stage == 1:
                mode = ("stage1",)
            else:
                noise_seed = config.seed * 1000003 + step * len(batch) + i
                mode = ("train", tau, gscale, noise_seed)
            loss, _, aux = backward(bundle, params, target, mode, into=grads)
            step_loss += loss
            if aux["gate"] is not None:
                step_entropy += gate_entropy(aux["gate"].alpha)
        step_loss /= len(batch)
        if not math.isfinite(step_loss):
            raise DivergenceError(step)
        losses.append(step_loss)
        if config.stage == 2:
            step_entropy /= len(batch)
            if step == 0:
                first_entropy = step_entropy
            final_entropy = step_entropy
        tensors = dict(params.named_tensors())
        for name, acc in grads.items():
            acc *= config.lr
            acc /= len(batch)
            tensors[name] -= acc

    gc_err = None
    if config.final_grad_check:
        bundle, target = batch[0]
        if config.stage == 1:
            mode = ("stage1",)
        else:
            last = max(config.steps - 1, 0)
            mode = ("train", tau_at(config.schedule, last),
                    gumbel_scale_at(config.schedule, last), config.seed)
        gc_err = max(gradcheck_params(bundle, params, target, mode).values())

    return TrainReport(
        losses=losses,
        final_gate_entropy=final_entropy,
        first_gate_entropy=first_entropy,
        grad_check_max_rel_err=gc_err,
        params_digest=params_digest(params),
        tau_trace=tau_trace,
        gumbel_trace=gumbel_trace,
    )
