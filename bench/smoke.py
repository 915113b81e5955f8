"""Smoke test of the benchmark itself.

Runs every workload at desk dims for a handful of ops, untraced and traced,
and checks the result's shape and metric names against BENCHMARK.json. Then
checks the plain-numpy reference forward against `infer_forward` on desk
bundles for topk:1, 2 and 3, and that the reference comparison rejects a
perturbed or non-finite output. Run from the root of a checkout:

    python3 bench/smoke.py

It prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import json
import math
import sys

import run

# Desk-sized input lists: a handful of ops per cycle.
DESK_INPUTS = {"infer-paper": 4, "train-paper": 2}


def main() -> int:
    run.pin_threads()
    run.import_program()
    import numpy as np

    import reference
    import tracer
    import workloads
    from qmop import pipeline as pl

    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(units[False] == dict(run.END_TO_END),
           "run.END_TO_END differs from BENCHMARK.json end_to_end")
    expect(units[True] == dict(run.PER_LAYER),
           "run.PER_LAYER differs from BENCHMARK.json per_layer")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workload names differ from BENCHMARK.json")

    for name, n_inputs in DESK_INPUTS.items():
        for trace in (False, True):
            tag = f"{name} trace={int(trace)}"
            result, report = run.run_benchmark(
                name, seed=3, seconds=0.01, trace=trace,
                dims=workloads.DESK, n_inputs=n_inputs)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{tag}: {result['failed']} of {result['attempted']} failed")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == units[trace], f"{tag}: metric names or units differ")
            expect(all(isinstance(m["value"], float) and math.isfinite(m["value"])
                       for m in result["metrics"].values()),
                   f"{tag}: a metric value is not a finite float")
            expect(json.loads(json.dumps(result)) == result,
                   f"{tag}: result does not round-trip through JSON")
            if trace:
                expect(report["counts_per_cycle"]["forward_calls"] >= 1,
                       f"{tag}: no forward calls traced")
    try:
        tracer.assert_unpatched()
    except tracer.BenchError as exc:
        failures.append(str(exc))

    trace = tracer.Tracer()               # two cycles that ran different sets
    for branches in (("pool", "resample"), ("pool", "prune")):
        trace.begin_op()
        fwd = trace._open("pipeline.infer_forward")
        for b in branches:
            trace._close(trace._open(f"branches.{b}"))
        trace._close(fwd)
        trace.end_op()
    try:
        trace.repeated_counts(1)
        failures.append("counts that differ between cycles pass the check")
    except tracer.BenchError:
        pass

    desk = workloads.DESK
    for seed in range(6):
        params = workloads._init_params(desk, seed)
        rng = np.random.default_rng([seed, 9])
        cls_token, eos_token = workloads._context(rng, desk)
        b = workloads._bundle(rng, desk, cls_token, eos_token)
        for k in (1, 2, 3):
            out = pl.infer_forward(b, params, ("topk", k))
            expected, members = reference.infer(
                params, desk.grid_h, desk.grid_w, b.patches, cls_token,
                eos_token, b.cls_attention, k)
            expect(members == out.active.members
                   and reference.agrees(out.tokens, expected),
                   f"reference disagrees with infer_forward: seed {seed} topk:{k}")
        bad = expected.copy()
        bad[0, 0] += 1e-6
        expect(not reference.agrees(bad, expected),
               "reference accepts a perturbed output")
        bad[0, 0] = np.nan
        expect(not reference.agrees(bad, expected),
               "reference accepts a non-finite output")

    for line in failures:
        print(f"FAIL {line}")
    print(f"smoke: {'ok' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
