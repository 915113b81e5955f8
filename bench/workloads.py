"""The benchmark's workloads.

Each workload makes its params and inputs from the seed, writes the inputs
as QMOPFT01 files in its work directory, and then runs ops that read those
files and call qmop's public functions. Ops run in whole cycles over the
input list, so every run sees the same mix.

- infer-paper: one closed-loop client, `read_bundle` + `infer_forward`
  at topk:2 on paper dims. The inputs are picked so that every seed gets the
  same active-set mix (see `InferPaper.MIX`).
- train-paper: one stage-2 `train_toy` step per op (batch 2, params kept
  across ops) on paper dims.

After the timed window, infer-paper compares outputs with a plain-numpy
reference and train-paper checks its gradients at desk dims.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from qmop import bundle as bd
from qmop import costmodel
from qmop import pipeline as pl
from qmop import trainer as tr

GRADCHECK_TOL = 1e-4   # the repo's analytic-vs-central-difference bound


@dataclass(frozen=True)
class Dims:
    grid_h: int
    grid_w: int
    c_vis: int
    c_txt: int
    d_llm: int
    m_tokens: int
    stride: int

    @property
    def n(self) -> int:
        return self.grid_h * self.grid_w


PAPER = Dims(24, 24, 1024, 768, 4096, 144, 2)
DESK = Dims(4, 4, 8, 6, 8, 4, 2)


def _f32(a: np.ndarray) -> np.ndarray:
    """The values as they read back from the float32 file payload."""
    return a.astype(np.float32).astype(np.float64)


def _context(rng: np.random.Generator, dims: Dims):
    return _f32(rng.standard_normal(dims.c_vis)), _f32(rng.standard_normal(dims.c_txt))


def _bundle(rng: np.random.Generator, dims: Dims, cls_token, eos_token):
    """A gaussian stand-in for encoder features, as `qmop synth` makes."""
    patches = _f32(rng.standard_normal((dims.n, dims.c_vis)))
    logits = rng.standard_normal(dims.n)
    attn = np.exp(logits - logits.max())
    return bd.FeatureBundle(dims.grid_h, dims.grid_w, dims.c_vis, dims.c_txt,
                            patches, cls_token, eos_token, attn / attn.sum())


def _init_params(dims: Dims, seed: int) -> pl.ProjectorParams:
    return pl.init_projector_params(
        dims.grid_h, dims.grid_w, dims.c_vis, dims.c_txt, dims.d_llm,
        dims.m_tokens, dims.stride, seed=seed)


class Workload:
    name = ""
    units_per_op = 1         # throughput units per op (bundles, samples)
    op_errors: tuple = (ValueError, ArithmeticError)
    digest_label = ""        # what `digest` hashes: first-cycle outputs

    def __init__(self, seed: int, workdir: Path, dims: Dims, n_inputs: int):
        self.seed, self.workdir, self.dims = seed, workdir, dims
        self.n_inputs = n_inputs
        self.digest = hashlib.sha256()

    @property
    def ops_per_cycle(self) -> int:
        raise NotImplementedError

    def setup(self) -> float:
        """Make params and write inputs; returns seconds spent in
        `init_projector_params`."""
        raise NotImplementedError

    def op(self, j: int):
        raise NotImplementedError

    def check(self, cycle: int, j: int, out) -> bool:
        """Is op j's output correct? Runs outside the op's timer."""
        raise NotImplementedError

    def final_failures(self, ops: int) -> int:
        """How many of the run's `ops` ops checks made after the timed
        window find wrong."""
        return 0

    def flops(self, active: tuple[str, ...]) -> dict[str, float]:
        d = self.dims
        return costmodel.projector_flops(d.n, d.m_tokens, d.c_vis, d.c_txt,
                                         d.d_llm, active=active)

    def _write(self, name: str, bundle: bd.FeatureBundle) -> Path:
        path = self.workdir / name
        bd.write_bundle(bundle, path)
        return path


class InferPaper(Workload):
    name = "infer-paper"
    digest_label = "tokens_digest"
    MODE = ("topk", 2)
    # Active-set shares fixed for every seed, so a seed changes the data but
    # not the amount of work. 18 of 32 requests skip pool; the 14 that run it
    # are the slow tail, and the median lies inside the fast group.
    MIX = (("resample", "prune"), ("pool", "prune"), ("pool", "resample"))
    SLOW_SHARE = 7 / 32
    MARGIN = 1e-9      # reject near ties between 2nd and 3rd gate weight

    def setup(self) -> float:
        self.params = None
        t0 = perf_counter()
        self.params = _init_params(self.dims, self.seed)
        init_s = perf_counter() - t0
        slow = round(self.n_inputs * self.SLOW_SHARE)
        quota = dict(zip(self.MIX, (self.n_inputs - 2 * slow, slow, slow)))
        self.paths, self.expected, self.arrays = [], [], {}
        candidate = 0
        while sum(quota.values()):
            if candidate > 200 * self.n_inputs:
                raise RuntimeError(f"seed {self.seed}: router never picks "
                                   f"{[k for k, v in quota.items() if v]}")
            rng = np.random.default_rng([self.seed, candidate])
            candidate += 1
            cls_token, eos_token = _context(rng, self.dims)
            alpha = reference.gate(self.params.router, cls_token, eos_token)
            members, _ = reference.topk(alpha, self.MODE[1])
            a = np.sort(alpha)
            if quota.get(members, 0) == 0 or a[1] - a[0] < self.MARGIN:
                continue
            quota[members] -= 1
            b = _bundle(rng, self.dims, cls_token, eos_token)
            k = len(self.paths)
            self.paths.append(self._write(f"infer-{k:03d}.qmop", b))
            if members not in self.expected:   # first of each set is checked
                self.arrays[k] = (b.patches, cls_token, eos_token,
                                  _f32(b.cls_attention))
            self.expected.append(members)
        self.kept: dict[int, np.ndarray] = {}
        return init_s

    @property
    def ops_per_cycle(self) -> int:
        return len(self.paths)

    def op(self, j: int):
        return pl.infer_forward(bd.read_bundle(self.paths[j]), self.params,
                                self.MODE)

    def check(self, cycle: int, j: int, out) -> bool:
        tokens = out.tokens
        if cycle == 0:
            self.digest.update(np.ascontiguousarray(tokens).tobytes())
        if j in self.arrays:
            self.kept[j] = tokens
        return (tokens.shape == (self.dims.m_tokens, self.dims.d_llm)
                and bool(np.isfinite(tokens).all()))

    def final_failures(self, ops: int) -> int:
        wrong = 0
        for j, tokens in self.kept.items():
            expected, members = reference.infer(
                self.params, self.dims.grid_h, self.dims.grid_w,
                *self.arrays[j], self.MODE[1])
            wrong += not (members == self.expected[j]
                          and reference.agrees(tokens, expected))
        return wrong


class TrainPaper(Workload):
    name = "train-paper"
    BATCH = 2
    units_per_op = BATCH
    digest_label = "params_digest"
    LR = 1e-2
    op_errors = (tr.DivergenceError, ValueError, ArithmeticError)

    def setup(self) -> float:
        self.params = None
        t0 = perf_counter()
        self.params = _init_params(self.dims, self.seed)
        init_s = perf_counter() - t0
        rng = np.random.default_rng([self.seed, 1])
        self.paths = [self._write(f"train-{k:03d}.qmop",
                                  _bundle(rng, self.dims, *_context(rng, self.dims)))
                      for k in range(self.n_inputs)]
        self.targets = [rng.standard_normal((self.dims.m_tokens, self.dims.d_llm))
                        for _ in range(self.n_inputs)]
        self.steps = 0
        return init_s

    @property
    def ops_per_cycle(self) -> int:
        return self.n_inputs // self.BATCH

    def op(self, j: int):
        batch = range(j * self.BATCH, (j + 1) * self.BATCH)
        config = tr.TrainConfig(
            stage=2, steps=1, lr=self.LR, seed=self.steps,
            bundles=[bd.read_bundle(self.paths[k]) for k in batch],
            targets=[self.targets[k] for k in batch],
            final_grad_check=False)
        self.steps += 1
        return tr.train_toy(self.params, config)

    def check(self, cycle: int, j: int, out) -> bool:
        if cycle == 0:
            self.digest.update(out.params_digest.encode())
        return all(math.isfinite(x) for x in out.losses)

    def final_failures(self, ops: int) -> int:
        """Check the gradients these steps train with against central
        differences at desk dims, in both modes, as `qmop gradcheck` does.
        If a tensor is off by more than the repo's 1e-4 bound, every step
        of the run trained on wrong gradients and counts as failed."""
        rng = np.random.default_rng([self.seed, 2])
        params = _init_params(DESK, self.seed)
        bundle = _bundle(rng, DESK, *_context(rng, DESK))
        target = rng.standard_normal((DESK.m_tokens, DESK.d_llm))
        for mode in (("stage1",), ("train", 1.3, 0.7, self.seed)):
            try:
                report = tr.gradcheck_params(bundle, params, target, mode)
            except self.op_errors:
                return ops
            worst = max(report.values())
            if not (math.isfinite(worst) and worst <= GRADCHECK_TOL):
                return ops
        return 0


# name -> (class, dims, number of inputs)
WORKLOADS = {
    InferPaper.name: (InferPaper, PAPER, 32),
    TrainPaper.name: (TrainPaper, PAPER, 2),
}


def make(name: str, seed: int, workdir: Path, dims: Dims | None = None,
         n_inputs: int | None = None) -> Workload:
    cls, default_dims, default_n = WORKLOADS[name]
    return cls(seed, workdir, dims or default_dims, n_inputs or default_n)
