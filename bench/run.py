"""qmop's benchmark: two workloads, end-to-end metrics, and a traced run
that gives per-layer metrics and sets branch wall time against the cost model.

Run from the root of a checkout:

    python3 bench/run.py --workload infer-paper --seed 0 --seconds 25 --trace 0

It imports qmop from the checkout's `src/`, writes its inputs under
`.bench_work/` and removes them on exit. The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` they are the per-layer ones: the run measures half its time
untraced and half with span wrappers installed. The lines before it give the
metrics by name with units, the run's provenance and the cost-model table.
See bench/NOTES.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
GEMM_N = 1024

# (name, unit); the same lists as in BENCHMARK.json, which the smoke test
# holds them to.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
BRANCH_METRICS = tuple(
    (f"branches.{b}_{kind}", unit)
    for kind, unit in (("ms", "ms"), ("calls", "count"),
                       ("gflops_per_s", "GFLOP/s"), ("peak_ratio", "ratio"))
    for b in ("pool", "resample", "prune"))
ACTIVE_SETS = ("pool-resample", "pool-prune", "resample-prune",
               "pool-resample-prune")
PER_LAYER = (
    ("bundle.read_ms", "ms"),
    ("router.gate_ms", "ms"),
    ("router.branches_per_op", "count"),
    ("router.skip_ratio", "ratio"),
    *((f"router.active_set_share.{s}", "ratio") for s in ACTIVE_SETS),
    *BRANCH_METRICS,
    ("pipeline.out_mlp_ms", "ms"),
    ("pipeline.fuse_ms", "ms"),
    ("pipeline.infer_self_ms", "ms"),
    ("pipeline.forward_us", "us"),
    ("pipeline.forward_calls_per_op", "count"),
    ("pipeline.init_params_s", "s"),
    ("trainer.backward_ms", "ms"),
    ("trainer.backward_self_ms", "ms"),
    ("trainer.pool_backward_ms", "ms"),
    ("trainer.resample_backward_ms", "ms"),
    ("trainer.mlp_backward_ms", "ms"),
    ("trainer.update_ms", "ms"),
    ("linalg.gemm_peak_gflops_per_s", "GFLOP/s"),
    ("costmodel.predicted_gflops_per_op", "GFLOP"),
    ("costmodel.achieved_gflops_per_s", "GFLOP/s"),
    ("trace_overhead_ratio", "ratio"),
)


def pin_threads() -> int:
    """Fix the BLAS pool to the CPUs this process may use. Must run before
    numpy is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_program() -> float:
    """Put the checkout's `src/` first on the path, import qmop and the
    benchmark modules that use it; returns the seconds the imports took."""
    if not (SRC / "qmop" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qmop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import qmop  # noqa: F401
    import tracer  # noqa: F401
    import workloads  # noqa: F401
    return perf_counter() - t0


@dataclass
class Window:
    """One timed stretch of whole input cycles."""
    op_s: list[float] = field(default_factory=list)
    cycle_rates: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.op_s)

    @property
    def cycles(self) -> int:
        return len(self.cycle_rates)

    def ops_per_s(self) -> float:
        """Median over cycles of passed ops per second of op time. Every
        cycle holds the same mix, and the median keeps a burst of load from
        elsewhere on the machine to the one cycle it hit."""
        return statistics.median(self.cycle_rates)


def run_window(wl, seconds: float, min_cycles: int, first_cycle: int,
               trace=None) -> Window:
    """Closed loop, one client: each op starts when the previous one ends.
    Runs whole cycles until the next cycle would end nearer past `seconds`
    than this one ends short of it. An op's time covers only the program
    calls; its output is checked after the clock stops."""
    win = Window()
    started = perf_counter()
    while True:
        ok, busy = 0, 0.0
        for j in range(wl.ops_per_cycle):
            if trace:
                trace.begin_op()
            t0 = perf_counter()
            try:
                out = wl.op(j)
            except wl.op_errors as exc:
                out = exc
            finally:
                win.op_s.append(perf_counter() - t0)
                if trace:
                    trace.end_op()
            busy += win.op_s[-1]
            if isinstance(out, Exception):
                win.failed += 1
                win.errors.append(f"op {j}: {type(out).__name__}: {out}")
            elif wl.check(first_cycle + win.cycles, j, out):
                ok += 1
            else:
                win.failed += 1
                win.errors.append(f"op {j}: output check failed")
        win.cycle_rates.append(ok / busy)
        elapsed = perf_counter() - started
        if (win.cycles >= min_cycles
                and elapsed + 0.5 * elapsed / win.cycles >= seconds):
            return win


def gemm_peak_gflops() -> float:
    """Best of 7 float64 GEMMs at GEMM_N^2, in GFLOP/s, in this process."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, GEMM_N, GEMM_N))
    a @ b
    best = float("inf")
    for _ in range(7):
        t0 = perf_counter()
        a @ b
        best = min(best, perf_counter() - t0)
    return 2 * GEMM_N ** 3 / best / 1e9


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def end_to_end(wl, win: Window, setup_s: float, failed: int) -> dict:
    lat = sorted(s * 1e3 for s in win.op_s)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] \
        if len(lat) > 1 else lat[0]
    return {
        "setup_s": setup_s,
        "throughput_per_s": win.ops_per_s() * wl.units_per_op,
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90,
        "ok_ratio": (win.ops - failed) / win.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl, trace, plain: Window, traced: Window, peak: float,
              init_s: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics from the traced window, and the cost-model table:
    one row per branch with its time, predicted GFLOP and achieved rate."""
    import tracer as tracing
    ops = trace.n_ops()
    sets = trace.forward_sets()
    forwards = len(sets)
    calls = {b: len(trace.durations(f"branches.{b}")) for b in tracing.BRANCHES}
    executed = sum(calls.values())
    share = {s: sum(k == s for _, k in sets) / max(forwards, 1)
             for s in ACTIVE_SETS}
    predicted = sum(wl.flops(tuple(k.split("-")))["total"] for _, k in sets) / ops
    m = {
        "bundle.read_ms": _p50_ms(trace.durations("bundle.read")),
        "router.gate_ms": _p50_ms(trace.durations("router.gate")),
        "router.branches_per_op": executed / ops,
        "router.skip_ratio": (3 * forwards - executed) / max(3 * forwards, 1),
        **{f"router.active_set_share.{s}": v for s, v in share.items()},
    }
    table = []
    for b in tracing.BRANCHES:
        spans = trace.durations(f"branches.{b}")
        gflop = wl.flops((b,))[b]
        rate = gflop * len(spans) / sum(spans) if spans else 0.0
        m[f"branches.{b}_ms"] = _p50_ms(spans)
        m[f"branches.{b}_calls"] = calls[b] / ops
        m[f"branches.{b}_gflops_per_s"] = rate
        m[f"branches.{b}_peak_ratio"] = rate / peak
        table.append({"branch": b, "calls": len(spans),
                      "p50_ms": m[f"branches.{b}_ms"],
                      "predicted_gflop_per_call": gflop,
                      "achieved_gflops_per_s": rate,
                      "peak_ratio": rate / peak})
    fwd = [d for name in tracing.FORWARDS for d in trace.durations(name)]
    m.update({
        "pipeline.out_mlp_ms": _p50_ms(trace.durations("pipeline.out_mlp")),
        "pipeline.fuse_ms": _p50_ms(trace.durations("pipeline.fuse")),
        "pipeline.infer_self_ms": _p50_ms(trace.self_times("pipeline.infer_forward")),
        "pipeline.forward_us": statistics.median(fwd) * 1e6 if fwd else 0.0,
        "pipeline.forward_calls_per_op": forwards / ops,
        "pipeline.init_params_s": init_s,
        "trainer.backward_ms": _p50_ms(trace.durations("trainer.backward")),
        "trainer.backward_self_ms": _p50_ms(
            trace.self_times("trainer.backward", only=tracing.FORWARDS)),
        "trainer.pool_backward_ms": _p50_ms(trace.durations("trainer.pool_backward")),
        "trainer.resample_backward_ms": _p50_ms(
            trace.durations("trainer.resample_backward")),
        "trainer.mlp_backward_ms": _p50_ms(trace.durations("trainer.mlp_backward")),
        "trainer.update_ms": _p50_ms(trace.self_times("trainer.train_toy")),
        "linalg.gemm_peak_gflops_per_s": peak,
        "costmodel.predicted_gflops_per_op": predicted,
        "costmodel.achieved_gflops_per_s": predicted * plain.ops_per_s(),
        "trace_overhead_ratio": traced.ops_per_s() / plain.ops_per_s(),
    })
    return m, table


def provenance(nproc: int, wl, seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "qmop").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": nproc, "cpu": cpu, "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": _commit(), "src_sha256": src.hexdigest(),
        "workload": wl.name, "seed": seed, "dims": vars(wl.dims),
        "inputs": wl.n_inputs, "ops_per_cycle": wl.ops_per_cycle,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  import_s: float = 0.0, nproc: int = 1, dims=None,
                  n_inputs: int | None = None) -> tuple[dict, dict]:
    """One run; returns (result line, report for the lines before it)."""
    import tracer as tracing
    import workloads
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(name, seed, workdir, dims, n_inputs)
        setup_s, init_s = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            init_s.append(wl.setup())
            setup_s.append(perf_counter() - t0)
        report = {"provenance": provenance(nproc, wl, seed),
                  "setup_runs_s": setup_s, "import_s": import_s}
        tracing.assert_unpatched()
        if not trace:
            timed = [run_window(wl, seconds, 1, 0)]
        else:
            peak = gemm_peak_gflops()
            plain = run_window(wl, seconds / 2, 1, 0)
            trace_obj = tracing.Tracer()
            trace_obj.install()
            try:
                traced = run_window(wl, seconds / 2, 2, plain.cycles, trace_obj)
            finally:
                trace_obj.uninstall()
            timed = [plain, traced]
        attempted = sum(w.ops for w in timed)
        failed = min(attempted, sum(w.failed for w in timed)
                     + wl.final_failures(attempted))
        if not trace:
            metrics = end_to_end(wl, timed[0],
                                 import_s + statistics.median(setup_s), failed)
            report["latency_p90_tail_samples"] = sum(
                s * 1e3 > metrics["latency_p90_ms"] for s in timed[0].op_s)
        else:
            counts = trace_obj.repeated_counts(wl.ops_per_cycle)
            metrics, table = per_layer(wl, trace_obj, plain, traced, peak,
                                       statistics.median(init_s))
            ratios = {r["branch"]: r["peak_ratio"] for r in table if r["calls"]}
            best = max(ratios.values(), default=0.0)
            report.update(
                cost_vs_wall=table,
                stands_out=[b for b, r in ratios.items() if r < 0.5 * best],
                counts_per_cycle=counts,
                traced_ops=traced.ops, traced_cycles=traced.cycles)
        report.update(
            attempted=attempted, failed=failed,
            failed_ratio=failed / attempted,
            cycles=sum(w.cycles for w in timed),
            latency_samples=timed[0].ops,
            errors=[e for w in timed for e in w.errors][:5],
            **{wl.digest_label: wl.digest.hexdigest()})
        units = dict(PER_LAYER if trace else END_TO_END)
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": metrics[k], "unit": units[k]}
                              for k in units}}
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:   # another run still holds files there
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("infer-paper", "train-paper"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    nproc = pin_threads()
    try:
        import_s = import_program()
        result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace), import_s, nproc)
    except Exception:
        traceback.print_exc()
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_ratio':40s} {report['failed_ratio']:14.6g} ratio")
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
