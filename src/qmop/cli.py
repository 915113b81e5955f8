"""Command-line surface. All outputs are machine-readable, strict JSON.

Exit codes: 0 success, 2 usage/input error (dims whose params and samples do
not fit in available memory included), 3 dimension mismatch, 4
verification failure (`gradcheck`, and `train-toy`'s final gradient check,
above `trainer.GRADCHECK_TOL`), 5 training divergence.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import costmodel, pipeline as pl, trainer
from .bundle import (FeatureBundle, FormatError, TruncatedFileError,
                     ValidationError, read_bundle, synth_bundle, write_bundle)
from .config import (SEED_BOUND, ConfigError, PipelineConfig, load_config,
                     parse_mode)
from .linalg import NumericError, float32_image, seeded_fills
from .router import BRANCHES

EXIT_USAGE = 2
EXIT_DIMS = 3
EXIT_VERIFY = 4
EXIT_DIVERGED = 5

GRADCHECK_MAX_TOKENS = 64
# `qmop cost` counts stay at most 2**53, which a float holds exactly, so
# every cost it prints is finite
COUNT_MAX = 2 ** 53
# where Linux reports the memory and swap available to new allocations
MEMINFO = "/proc/meminfo"
# the process's cgroups, and where the cgroup hierarchies are mounted: v2's
# at the root, v1's memory controller under memory/
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"
# cgroup v1 reports no limit as the largest page multiple below 2**63
# (9223372036854771712 at 4 KiB pages); no real limit comes near 2**62
V1_NO_LIMIT = 1 << 62


def build_params(cfg: PipelineConfig) -> pl.ProjectorParams:
    return pl.init_projector_params(
        cfg.grid_h, cfg.grid_w, cfg.c_vis, cfg.c_txt, cfg.d_llm,
        cfg.m_tokens, cfg.pool_stride, seed=cfg.seed,
        router_hidden=cfg.router_hidden, lam=cfg.prune_lambda,
        metric=cfg.relevance_metric, activation=cfg.activation,
        shared_pool_phi=cfg.shared_pool_phi,
    )


def synth_samples(cfg: PipelineConfig,
                  n: int) -> tuple[list[FeatureBundle], list[np.ndarray]]:
    """n synthetic (bundle, target) samples at `cfg`'s dims and seed."""
    bundles = [synth_bundle(cfg.seed + i, cfg.grid_h, cfg.grid_w,
                            cfg.c_vis, cfg.c_txt) for i in range(n)]
    targets = seeded_fills([(cfg.seed + 7919 + i, cfg.m_tokens, cfg.d_llm, 1.0)
                            for i in range(n)])
    return bundles, targets


def _read_limit(*path: str) -> int | None:
    """The byte count in the file at `CGROUP_ROOT`/`path`, or None for one
    that is missing, does not parse, reads `max`, or reads a negative count
    or one of at least `V1_NO_LIMIT`."""
    try:
        with open(os.path.join(CGROUP_ROOT, *path)) as fh:
            limit = int(fh.read())
    except (OSError, ValueError):
        return None
    return limit if 0 <= limit < V1_NO_LIMIT else None


def _cgroup_limits() -> tuple[int | None, int | None]:
    """The memory and swap limits of the process's cgroups, as bytes, None
    where there is none. The memory limit is the smaller of the cgroup v2
    `memory.max`, in the directory under `CGROUP_ROOT` that the `0::` line
    of `PROC_CGROUP` names, and the cgroup v1 `memory.limit_in_bytes`,
    under `CGROUP_ROOT`/memory at the path of the line whose controllers
    include `memory`. The swap limit is v2's `memory.swap.max`."""
    v2 = v1 = None
    try:
        with open(PROC_CGROUP) as fh:
            for line in fh:
                parts = line.rstrip("\n").split(":", 2)
                if len(parts) < 3:
                    continue
                rel = parts[2].lstrip("/")
                if parts[:2] == ["0", ""]:
                    v2 = rel
                elif "memory" in parts[1].split(","):
                    v1 = rel
    except (OSError, ValueError):
        return None, None
    limits = []
    if v2 is not None:
        limits.append(_read_limit(v2, "memory.max"))
    if v1 is not None:
        limits.append(_read_limit("memory", v1, "memory.limit_in_bytes"))
    swap = None if v2 is None else _read_limit(v2, "memory.swap.max")
    return min((x for x in limits if x is not None), default=None), swap


def _mem_available() -> int | None:
    """`MemAvailable` plus `SwapFree` in `MEMINFO`, as bytes, or None if
    `MemAvailable` cannot be read. Under a cgroup memory limit (see
    `_cgroup_limits`), the smaller of that and the limit plus the swap the
    cgroup may still take: `SwapFree`, or v2's `memory.swap.max` if it is
    smaller. Both are upper bounds on what the process can get."""
    fields = {}
    try:
        with open(MEMINFO) as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("MemAvailable", "SwapFree"):
                    fields[key] = int(value.split()[0]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    if "MemAvailable" not in fields:
        return None
    swap = fields.get("SwapFree", 0)
    available = fields["MemAvailable"] + swap
    limit, swap_limit = _cgroup_limits()
    if limit is None:
        return available
    if swap_limit is not None:
        swap = min(swap, swap_limit)
    return min(available, limit + swap)


def _check_memory(cfg: PipelineConfig, head_itemsize: int, batch: int):
    """Exit 2 before any work if the params' weights, as
    `pipeline.params_nbytes` counts them, and `batch` samples, each an
    M x D_llm float64 output and an N x C float64 patch grid, exceed the
    memory and swap available: an allocation the operating system grants
    but cannot back would end the process instead. Every command holds that
    many while its weights are live (`compress` one bundle and its tokens,
    `gradcheck` one bundle and its target, `train-toy` its batch's bundles
    and targets for the whole run), so the count is a lower bound. Other
    activations and other processes can still end the run. Where
    `_mem_available` reads nothing, nothing is checked."""
    need = pl.params_nbytes(cfg.c_vis, cfg.c_txt, cfg.d_llm, cfg.m_tokens,
                            cfg.router_hidden, head_itemsize)
    need += 8 * batch * (cfg.m_tokens * cfg.d_llm + cfg.n_tokens * cfg.c_vis)
    _check_fits(need, f"the params and a batch of {batch}")


def _check_fits(need: int, what: str):
    """Exit 2 if `need` bytes, held by `what`, exceed `_mem_available`."""
    available = _mem_available()
    if available is not None and need > available:
        _fail(EXIT_USAGE, f"out of memory: {what} need {need / 2**20:.1f} "
                          f"MiB, {available / 2**20:.1f} MiB available")


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _parse_grid(ctx, param, value: str) -> tuple[int, int]:
    try:
        h, _, w = value.lower().partition("x")
        gh, gw = int(h), int(w)
    except ValueError:
        raise click.BadParameter(f"grid must look like HxW, got {value!r}")
    if gh < 1 or gw < 1:
        raise click.BadParameter(f"grid dims must be >= 1, got {value!r}")
    return gh, gw


def _load_config(ctx, param, path: str) -> PipelineConfig:
    try:
        return load_config(path)
    except ConfigError as exc:
        _fail(EXIT_USAGE, f"config error: {exc}")


_config_option = click.option(
    "--config", "cfg", type=click.Path(exists=True, dir_okay=False),
    required=True, callback=_load_config, help="Pipeline config JSON file.")


def _write_failed(path: str, exc: OSError):
    _fail(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}")


def _writable(ctx, param, path: str | None) -> str | None:
    """`--out`'s callback: a path `_emit` could not open exits 2 before any
    work. A file the probe creates is removed again."""
    if path is not None:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            _write_failed(path, exc)
        if not existed:
            os.remove(path)
    return path


_out_option = click.option("--out", type=click.Path(), default=None,
                           callback=_writable)


def _limit_gradcheck(cfg: PipelineConfig, what: str):
    """Central differences take two forwards per parameter, too slow past
    GRADCHECK_MAX_TOKENS patches: exit 2 before any work."""
    if cfg.n_tokens > GRADCHECK_MAX_TOKENS:
        _fail(EXIT_USAGE,
              f"{what} limited to N <= {GRADCHECK_MAX_TOKENS} tokens, "
              f"config has N = {cfg.n_tokens}")


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _write_failed(out_path, exc)
    else:
        click.echo(text)


class _Commands(click.Group):
    """Dims that pass the config rules but do not fit in memory exit 2 with
    one line from every command: before any work where `_check_memory`
    finds the params and samples too large (in `synth`, the patch grid and
    its float32 image), and wherever numpy refuses an allocation (in
    `build_params`, in the first read of the stage-1 head or of its float32
    image)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MemoryError as exc:
            _fail(EXIT_USAGE, f"out of memory: {exc}")


@click.group(cls=_Commands)
def main():
    """Query-guided mixture-of-projector token compression toolkit."""


@main.command("synth")
@click.option("--seed", type=click.IntRange(0, SEED_BOUND, max_open=True),
              default=0)
@click.option("--grid", callback=_parse_grid, default="4x4", show_default=True,
              help="Patch grid as HxW.")
@click.option("--cvis", type=click.IntRange(min=1), default=8)
@click.option("--ctxt", type=click.IntRange(min=1), default=6)
@click.option("--out", type=click.Path(), required=True)
def cmd_synth(seed, grid, cvis, ctxt, out):
    """Write a deterministic synthetic feature-bundle file."""
    # the float64 patch grid and the float32 image `write_bundle` makes of it
    _check_fits(12 * grid[0] * grid[1] * cvis,
                "the patch grid and its float32 image")
    bundle = synth_bundle(seed, grid[0], grid[1], cvis, ctxt)
    try:
        write_bundle(bundle, out)
    except OSError as exc:
        _write_failed(out, exc)


@main.command("compress")
@click.option("--features", "features",
              type=click.Path(exists=True, dir_okay=False),
              multiple=True, required=True)
@_config_option
@click.option("--mode", "mode_spec", default=None,
              help="stage1 | train | topk:K | threshold:T "
                   "(default: config inference_mode)")
@_out_option
@click.option("--no-timing", is_flag=True, help="Omit wall-clock fields.")
@click.option("--dump-tokens", is_flag=True, help="Embed full output tokens.")
def cmd_compress(features, cfg, mode_spec, out, no_timing, dump_tokens):
    """Run the projector on bundle file(s) and emit a run report."""
    try:
        mode = parse_mode(mode_spec or cfg.inference_mode)
    except ConfigError as exc:
        _fail(EXIT_USAGE, f"config error: {exc}")
    _check_memory(cfg, 8 if mode[0] == "stage1" else 0, batch=1)
    params = build_params(cfg)

    def run_one(path: str) -> dict:
        try:
            bundle = read_bundle(path)
        except (FormatError, TruncatedFileError, ValidationError) as exc:
            _fail(EXIT_USAGE, f"bad bundle {path}: {exc}")
        if bundle.dims != (cfg.grid_h, cfg.grid_w, cfg.c_vis, cfg.c_txt):
            _fail(EXIT_DIMS,
                  f"bundle dims grid={bundle.grid_h}x{bundle.grid_w} "
                  f"c_vis={bundle.c_vis} c_txt={bundle.c_txt} vs config "
                  f"grid={cfg.grid_h}x{cfg.grid_w} "
                  f"c_vis={cfg.c_vis} c_txt={cfg.c_txt}")
        t0 = time.perf_counter()
        try:
            result = pl.forward([bundle], params, mode)
            # train and stage1 return non-finite tokens as they are, since
            # training turns them into a DivergenceError
            if not np.isfinite(result.tokens).all():
                raise NumericError(f"{mode[0]} produced non-finite tokens")
        except NumericError as exc:
            _fail(EXIT_USAGE, f"bad bundle {path}: {exc}")
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        tokens = float32_image(result.tokens)
        active_names = result.active.members if result.active else None
        cost = costmodel.cost_report(
            cfg.m_tokens, n_in=cfg.n_tokens, c_vis=cfg.c_vis,
            c_txt=cfg.c_txt, d_llm=cfg.d_llm,
            active=active_names or BRANCHES, router_hidden=cfg.router_hidden,
        )
        run = {
            "features": str(path),
            "mode": mode_spec or cfg.inference_mode,
            "output_rows": int(result.tokens.shape[0]),
            "output_cols": int(result.tokens.shape[1]),
            "output_digest": trainer.float32_digest([tokens]),
            "gate": None if result.gate is None else {
                "alpha": [float(a) for a in result.gate.alpha[0]],
                "tau": result.gate.tau_used,
                "gumbel_applied": result.gate.gumbel_applied,
            },
            "active": None if result.active is None else {
                "members": list(result.active.members),
                "weights": [float(w) for w in result.active.renorm_weights],
            },
            "cost": dataclasses.asdict(cost),
        }
        if not no_timing:
            run["timing_ms"] = elapsed_ms
        if dump_tokens:
            if not np.isfinite(tokens).all():   # JSON has no infinity
                _fail(EXIT_USAGE, f"bad bundle {path}: tokens beyond float32 "
                                  f"range cannot be dumped")
            run["tokens"] = tokens.tolist()
        return run

    runs = [run_one(p) for p in features]
    _emit({"config": dataclasses.asdict(cfg), "runs": runs}, out)


@main.command("gradcheck")
@_config_option
@click.option("--trials", type=click.IntRange(min=1), default=5,
              show_default=True)
def cmd_gradcheck(cfg, trials):
    """Verify analytic gradients against central differences, both stages."""
    _limit_gradcheck(cfg, "gradcheck")
    _check_memory(cfg, 8, batch=1)

    worst: dict[str, float] = {}
    for trial in range(trials):
        trial_cfg = dataclasses.replace(cfg, seed=cfg.seed + trial)
        params = build_params(trial_cfg)
        (bundle,), (target,) = synth_samples(trial_cfg, 1)
        for mode in (("stage1",), ("train", 1.3, 0.7, trial_cfg.seed)):
            report = trainer.gradcheck_params(bundle, params, target, mode)
            for name, err in report.items():
                # a NaN would compare false and drop out of the max
                worst[name] = max(worst.get(name, 0.0),
                                  math.inf if math.isnan(err) else err)

    offenders = trainer.over_bound(worst)
    # JSON has no infinity: a residual that is not finite prints as null
    _emit({"max_rel_err": {name: err if math.isfinite(err) else None
                           for name, err in worst.items()},
           "threshold": trainer.GRADCHECK_TOL,
           "trials": trials, "pass": not offenders}, None)
    if offenders:
        _fail(EXIT_VERIFY, f"gradient check failed for: {', '.join(offenders)}")


@main.command("cost")
@click.option("--tokens", type=click.IntRange(0, COUNT_MAX), required=True,
              help="Compressed (LLM-side) visual token count.")
# LLaVA-1.5-scale projector dims
@click.option("--n-in", type=click.IntRange(1, COUNT_MAX), default=576,
              show_default=True, help="Pre-compression token count.")
@click.option("--cvis", type=click.IntRange(1, COUNT_MAX), default=1024,
              show_default=True, help="Visual feature width.")
@click.option("--ctxt", type=click.IntRange(1, COUNT_MAX), default=768,
              show_default=True, help="Text feature width.")
@click.option("--dllm", type=click.IntRange(1, COUNT_MAX), default=4096,
              show_default=True, help="LLM embedding width.")
@_out_option
def cmd_cost(tokens, n_in, cvis, ctxt, dllm, out):
    """Predicted LLM TFLOPs, KV cache, and projector overhead."""
    if tokens > n_in:
        _fail(EXIT_USAGE, f"--tokens {tokens} exceeds --n-in {n_in}: no "
                          f"branch emits more tokens than it reads")
    report = costmodel.cost_report(tokens, n_in, cvis, ctxt, dllm)
    _emit(dataclasses.asdict(report), out)


@main.command("train-toy")
@_config_option
@click.option("--stage", type=click.IntRange(1, 2), required=True)
@click.option("--steps", type=click.IntRange(min=1), default=100,
              show_default=True)
@click.option("--batch", type=click.IntRange(min=1), default=None,
              help="Batch size (default: config batch_size).")
@click.option("--no-grad-check", is_flag=True,
              help="Skip the final gradient check.")
@_out_option
def cmd_train_toy(cfg, stage, steps, batch, no_grad_check, out):
    """Run the two-stage toy trainer on a synthetic batch."""
    if not no_grad_check:
        _limit_gradcheck(cfg, "train-toy without --no-grad-check")
    batch = batch or cfg.batch_size
    # stage 2 holds the head only as `params_digest`'s float32 image, unless
    # the final check draws it in its copy of the params
    _check_memory(cfg, 4 if stage == 2 and no_grad_check else 8, batch)
    params = build_params(cfg)
    bundles, targets = synth_samples(cfg, batch)
    tconf = trainer.TrainConfig(
        stage=stage, steps=steps, lr=cfg.lr, seed=cfg.seed,
        bundles=bundles, targets=targets, schedule=cfg.schedule,
        final_grad_check=not no_grad_check,
    )
    try:
        report = trainer.train_toy(params, tconf)
    except trainer.DivergenceError as exc:
        _fail(EXIT_DIVERGED, str(exc))
    except NumericError as exc:   # from the final check over diverged params
        _fail(EXIT_DIVERGED, f"final gradient check diverged: {exc}")
    except trainer.GradCheckError as exc:
        _fail(EXIT_VERIFY, str(exc))
    _emit({"stage": stage, "steps": steps, **dataclasses.asdict(report)}, out)


if __name__ == "__main__":
    main()
