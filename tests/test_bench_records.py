"""Every `BENCH_*.json` at the repo root is a record of benchmark runs: one
entry per `bench/run.py --trace 0` run, with the run's last stdout line
verbatim, and a summary that must be recomputable from those lines. The
schema lives here; with no record file, only the checker's own cases run."""

import json
import statistics
from pathlib import Path

import jsonschema
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

QUARTILES = {"type": "object", "additionalProperties": False,
             "required": ["median", "q1", "q3"],
             "properties": {k: {"type": "number"}
                            for k in ("median", "q1", "q3")}}
SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["parent_commit", "command", "host", "runs", "summary"],
    "properties": {
        "parent_commit": {"type": "string", "pattern": "^[0-9a-f]{40}$"},
        "command": {"type": "string"},
        "host": {"type": "string"},
        "runs": {"type": "array", "minItems": 1, "items": {
            "type": "object",
            "additionalProperties": False,
            "required": ["workload", "side", "seed", "order", "src_sha256",
                         "gemm_gflops_per_s", "result"],
            "properties": {
                "workload": {"enum": WORKLOADS},
                "side": {"enum": ["parent", "change"]},
                "seed": {"type": "integer", "minimum": 0},
                "order": {"type": "integer", "minimum": 0},
                "src_sha256": {"type": "string",
                               "pattern": "^[0-9a-f]{64}$"},
                "gemm_gflops_per_s": {"type": "number",
                                      "exclusiveMinimum": 0},
                "result": {"type": "string"}}}},
        # workload -> side -> end-to-end metric -> quartiles
        "summary": {"type": "object", "additionalProperties": {
            "type": "object", "additionalProperties": {
                "type": "object", "additionalProperties": QUARTILES}}},
    },
}
RESULT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["correct", "attempted", "failed", "metrics"],
    "properties": {
        "correct": {"type": "boolean"},
        "attempted": {"type": "integer", "minimum": 0},
        "failed": {"type": "integer", "minimum": 0},
        "metrics": {
            "type": "object", "additionalProperties": False,
            "required": list(END_TO_END),
            "properties": {name: {
                "type": "object", "additionalProperties": False,
                "required": ["value", "unit"],
                "properties": {"value": {"type": "number"},
                               "unit": {"const": unit}}}
                for name, unit in END_TO_END.items()}}},
}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse_result(line: str) -> dict:
    """A bench result line, parsed strictly: one line, no NaN or infinity,
    and the end-to-end metrics that `--trace 0` prints, with their units."""
    if line != line.strip() or "\n" in line:
        raise ValueError("a result is one line with no surrounding space")
    result = json.loads(line, parse_constant=_no_constant)
    jsonschema.validate(result, RESULT_SCHEMA)
    return result


def summarize(runs: list[dict]) -> dict:
    """workload -> side -> metric -> median and quartiles of the runs."""
    values: dict = {}
    for run in runs:
        metrics = parse_result(run["result"])["metrics"]
        by_metric = values.setdefault(run["workload"], {}) \
            .setdefault(run["side"], {})
        for name, m in metrics.items():
            by_metric.setdefault(name, []).append(m["value"])
    summary: dict = {}
    for workload, sides in values.items():
        for side, metrics in sides.items():
            for name, xs in metrics.items():
                q1, median, q3 = statistics.quantiles(xs, n=4)
                summary.setdefault(workload, {}).setdefault(side, {})[name] = {
                    "median": statistics.median(xs), "q1": q1, "q3": q3}
    return summary


def check_record(record: dict) -> None:
    jsonschema.validate(record, SCHEMA)
    runs = record["runs"]
    assert sorted(r["order"] for r in runs) == list(range(len(runs)))
    assert record["summary"] == summarize(runs)


def sample_record() -> dict:
    runs = []
    for order, (side, value) in enumerate(
            [("parent", 2.0), ("change", 2.5), ("change", 3.0),
             ("parent", 4.0)]):
        metrics = {name: {"value": value, "unit": unit}
                   for name, unit in END_TO_END.items()}
        runs.append({"workload": WORKLOADS[0], "side": side, "seed": 7,
                     "order": order, "src_sha256": "0" * 64,
                     "gemm_gflops_per_s": 100.0,
                     "result": json.dumps({"correct": True, "attempted": 9,
                                           "failed": 0, "metrics": metrics})})
    record = {"parent_commit": "f" * 40, "command": "bench/run.py",
              "host": "test", "runs": runs}
    record["summary"] = summarize(runs)
    return record


def test_every_bench_record_is_valid():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        check_record(json.loads(path.read_text()))


def test_checker_accepts_a_sample():
    record = sample_record()
    check_record(record)
    stats = record["summary"][WORKLOADS[0]]["parent"]["throughput_per_s"]
    # statistics.quantiles' default, exclusive method
    assert stats == {"median": 3.0, "q1": 1.5, "q3": 4.5}


@pytest.mark.parametrize("corrupt", [
    lambda r: r["runs"][0].update(result=r["runs"][0]["result"].replace(
        '"value": 2.0', '"value": NaN', 1)),
    lambda r: r["runs"][0].update(result=r["runs"][0]["result"] + "\n"),
    lambda r: r["runs"][1].update(side="other"),
    lambda r: r["runs"][1].update(order=0),
    lambda r: r["runs"][2].pop("src_sha256"),
    lambda r: r["summary"][WORKLOADS[0]]["change"]["setup_s"].update(
        median=2.0)],
    ids=["nan", "two-lines", "side", "order", "provenance", "summary"])
def test_checker_rejects(corrupt):
    record = sample_record()
    corrupt(record)
    with pytest.raises((AssertionError, ValueError,
                        jsonschema.ValidationError)):
        check_record(record)
