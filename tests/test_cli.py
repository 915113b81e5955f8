import hashlib
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource
from referencing.jsonschema import DRAFT202012

from qmop import cli, pipeline, trainer
from qmop.bundle import read_bundle, write_bundle
from qmop.cli import main
from qmop.router import BRANCHES

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "qmop" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def strict_loads(text):
    """`json.loads` that rejects the NaN and Infinity tokens, which are not
    JSON (RFC 8259)."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def validate(instance, schema_name):
    registry = Registry().with_resources([
        (p.name, Resource.from_contents(load_schema(p.name),
                                        default_specification=DRAFT202012))
        for p in SCHEMA_DIR.glob("*.schema.json")
    ])
    jsonschema.validators.Draft202012Validator(
        load_schema(schema_name), registry=registry).validate(instance)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid_h": 4, "grid_w": 4, "c_vis": 8, "c_txt": 6,
        "d_llm": 8, "m_tokens": 4, "pool_stride": 2,
    }))
    features = tmp_path / "b.qmop"
    res = runner.invoke(main, ["synth", "--seed", "1", "--grid", "4x4",
                               "--cvis", "8", "--ctxt", "6",
                               "--out", str(features)])
    assert res.exit_code == 0, res.output
    return tmp_path, cfg, features


class TestSynth:
    def test_round_trips(self, runner, tmp_path):
        out = tmp_path / "b.qmop"
        res = runner.invoke(main, ["synth", "--seed", "1", "--grid", "4x4",
                                   "--cvis", "8", "--ctxt", "6",
                                   "--out", str(out)])
        assert res.exit_code == 0
        from qmop import read_bundle
        assert read_bundle(out).n_tokens == 16

    def test_byte_identical_reruns(self, runner, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(main, ["synth", "--seed", "9", "--grid",
                                       "3x3", "--cvis", "4", "--ctxt", "3",
                                       "--out", str(out)])
            assert res.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_negative_seed_is_usage_error(self, runner, tmp_path):
        # used to end in a Philox ValueError traceback and exit 1
        res = runner.invoke(main, ["synth", "--seed", "-1",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("grid", ["2by2", "x"])
    def test_unparsed_grid_is_usage_error(self, runner, tmp_path, grid):
        res = runner.invoke(main, ["synth", "--grid", grid,
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert f"grid must look like HxW, got {grid!r}" in res.output
        assert not (tmp_path / "x").exists()

    def test_zero_grid_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["synth", "--grid", "0x4",
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


class TestCompress:
    def test_report_schema_and_shape(self, runner, workspace):
        tmp, cfg, features = workspace
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(cfg), "--no-timing"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        validate(report, "run_report.schema.json")
        run = report["runs"][0]
        assert run["output_rows"] == 4
        assert run["output_cols"] == 8

    def test_bad_mode_flag_is_usage_error(self, runner, workspace):
        # the config's mode is checked as it loads; a --mode flag, here
        tmp, cfg, features = workspace
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(cfg), "--mode", "topk:9"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == \
            "config error: topk k must be in [1,3], got 9\n"

    def test_topk1_single_member(self, runner, workspace):
        tmp, cfg, features = workspace
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(cfg), "--mode", "topk:1",
                                   "--no-timing"])
        run = json.loads(res.output)["runs"][0]
        assert len(run["active"]["members"]) == 1
        assert run["active"]["weights"] == [1.0]

    def test_deterministic_digest(self, runner, workspace):
        tmp, cfg, features = workspace
        digests = []
        for _ in range(2):
            res = runner.invoke(main, ["compress", "--features",
                                       str(features), "--config", str(cfg),
                                       "--no-timing"])
            digests.append(json.loads(res.output)["runs"][0]["output_digest"])
        assert digests[0] == digests[1]

    def test_output_digest_hashes_the_float32_tokens(self, runner,
                                                     workspace):
        tmp, cfg, features = workspace
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(cfg), "--dump-tokens"])
        run = json.loads(res.output)["runs"][0]
        tokens = np.array(run["tokens"], dtype="<f4")
        assert run["output_digest"] == \
            hashlib.sha256(tokens.tobytes()).hexdigest()

    def test_byte_identical_json_without_timing(self, runner, workspace):
        tmp, cfg, features = workspace
        outs = []
        for _ in range(2):
            res = runner.invoke(main, ["compress", "--features",
                                       str(features), "--config", str(cfg),
                                       "--no-timing"])
            outs.append(res.output)
        assert outs[0] == outs[1]

    def test_dim_mismatch_exit_3(self, runner, workspace, tmp_path):
        tmp, cfg, _ = workspace
        other = tmp_path / "other.qmop"
        runner.invoke(main, ["synth", "--seed", "1", "--grid", "6x6",
                             "--cvis", "8", "--ctxt", "6",
                             "--out", str(other)])
        res = runner.invoke(main, ["compress", "--features", str(other),
                                   "--config", str(cfg)])
        assert res.exit_code == 3
        assert "grid=6x6" in res.output and "grid=4x4" in res.output

    def test_failed_run_leaves_no_report(self, runner, workspace, tmp_path):
        # `--out` is probed before the run; the probe must not leave an
        # empty report behind when the run then fails
        tmp, cfg, _ = workspace
        other, out = tmp_path / "other.qmop", tmp_path / "report.json"
        runner.invoke(main, ["synth", "--grid", "6x6", "--out", str(other)])
        res = runner.invoke(main, ["compress", "--features", str(other),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 3
        assert not out.exists()

    def test_missing_file_exit_2(self, runner, workspace):
        tmp, cfg, _ = workspace
        res = runner.invoke(main, ["compress", "--features",
                                   str(tmp / "nope.qmop"),
                                   "--config", str(cfg)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("damage", ["truncate", "magic", "nan"])
    def test_bad_bundle_exit_2(self, runner, workspace, damage):
        tmp, cfg, features = workspace
        raw = bytearray(features.read_bytes())
        if damage == "truncate":
            raw = raw[:40]
        elif damage == "magic":
            raw[:8] = b"QMOPFT00"
        else:
            raw[28:32] = np.array([np.nan], "<f4").tobytes()
        features.write_bytes(bytes(raw))
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(cfg)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.strip().splitlines()) == 1
        assert str(features) in res.output

    def test_overflowing_bundle_exit_2(self, runner, workspace, monkeypatch):
        # a float32 file cannot carry values that overflow the float64
        # forward, so the bundle is scaled to the largest double after reading
        tmp, cfg, features = workspace

        def read_huge(path):
            bundle = read_bundle(path)
            bundle.patches[:] = np.finfo(np.float64).max
            return bundle

        monkeypatch.setattr(cli, "read_bundle", read_huge)
        with np.errstate(over="ignore", invalid="ignore"):
            res = runner.invoke(main, ["compress", "--features", str(features),
                                       "--config", str(cfg),
                                       "--mode", "topk:3"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.strip().splitlines()) == 1
        assert str(features) in res.output and "non-finite" in res.output

    @pytest.mark.parametrize("mode", ["stage1", "train"])
    def test_overflowing_bundle_exit_2_in_training_modes(
            self, runner, workspace, monkeypatch, mode):
        # the training forwards return non-finite tokens as they are; the
        # command must still refuse them rather than dump bare NaN as JSON
        tmp, cfg, features = workspace

        def read_huge(path):
            bundle = read_bundle(path)
            bundle.patches[:] = np.finfo(np.float64).max
            return bundle

        monkeypatch.setattr(cli, "read_bundle", read_huge)
        with np.errstate(over="ignore", invalid="ignore"):
            res = runner.invoke(main, ["compress", "--features", str(features),
                                       "--config", str(cfg), "--mode", mode,
                                       "--dump-tokens"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.strip().splitlines()) == 1
        assert res.output.startswith(f"bad bundle {features}: ")
        assert "non-finite" in res.output

    @pytest.mark.parametrize("mode", ["topk:1", "stage1"])
    def test_dump_beyond_float32_range_exit_2(self, runner, workspace,
                                              tmp_path, mode):
        # patches at the float32 limit give finite float64 tokens that the
        # float32 dump would turn into infinities, which JSON cannot hold
        tmp, cfg, features = workspace
        bundle = read_bundle(features)
        bundle.patches[:] = -np.finfo(np.float32).max
        huge = tmp_path / "huge.qmop"
        write_bundle(bundle, huge)
        args = ["compress", "--features", str(huge), "--config", str(cfg),
                "--mode", mode]
        assert runner.invoke(main, args).exit_code == 0
        res = runner.invoke(main, args + ["--dump-tokens"])
        assert res.exit_code == 2, res.output
        assert res.output == (f"bad bundle {huge}: tokens beyond float32 "
                              f"range cannot be dumped\n")

    def test_unknown_config_key_rejected(self, runner, workspace, tmp_path):
        tmp, _, features = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid_h": 4, "grid_w": 4, "typo_key": 1}))
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(bad)])
        assert res.exit_code == 2
        assert "typo_key" in res.output

    def test_stage1_and_train_modes(self, runner, workspace):
        tmp, cfg, features = workspace
        for mode in ("stage1", "train"):
            res = runner.invoke(main, ["compress", "--features",
                                       str(features), "--config", str(cfg),
                                       "--mode", mode, "--no-timing"])
            run = json.loads(res.output)["runs"][0]
            assert run["output_rows"] == 4
            assert run["active"] is None

    def test_multiple_features(self, runner, workspace, tmp_path):
        tmp, cfg, features = workspace
        second = tmp_path / "second.qmop"
        runner.invoke(main, ["synth", "--seed", "2", "--grid", "4x4",
                             "--cvis", "8", "--ctxt", "6",
                             "--out", str(second)])
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--features", str(second),
                                   "--config", str(cfg), "--no-timing"])
        assert res.exit_code == 0, res.output
        runs = json.loads(res.output)["runs"]
        assert [r["features"] for r in runs] == [str(features), str(second)]

    def test_dump_tokens(self, runner, workspace):
        tmp, cfg, features = workspace
        res = runner.invoke(main, ["compress", "--features", str(features),
                                   "--config", str(cfg), "--no-timing",
                                   "--dump-tokens"])
        run = json.loads(res.output)["runs"][0]
        assert len(run["tokens"]) == 4
        assert len(run["tokens"][0]) == 8


class TestGradcheck:
    def test_default_tiny_config_passes(self, runner, workspace):
        tmp, cfg, _ = workspace
        res = runner.invoke(main, ["gradcheck", "--config", str(cfg),
                                   "--trials", "2"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        validate(report, "grad_report.schema.json")
        assert report["pass"]
        assert max(report["max_rel_err"].values()) <= 1e-4

    def test_size_guard(self, runner, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"grid_h": 32, "grid_w": 32, "c_vis": 8,
                                   "c_txt": 6, "m_tokens": 256,
                                   "pool_stride": 2}))
        res = runner.invoke(main, ["gradcheck", "--config", str(big)])
        assert res.exit_code == 2

    def test_zero_trials(self, runner, workspace):
        tmp, cfg, _ = workspace
        res = runner.invoke(main, ["gradcheck", "--config", str(cfg),
                                   "--trials", "0"])
        assert res.exit_code == 2

    def test_nan_gradient_fails(self, runner, workspace, monkeypatch):
        # a backward that writes NaN into one reached tensor's gradient,
        # while every loss stays finite, fails the bound
        real = trainer.backward

        def nan_backward(*args):
            loss, gate = real(*args)
            args[-1]["pool.q2d"].flat[3] = np.nan
            return loss, gate

        monkeypatch.setattr(trainer, "backward", nan_backward)
        tmp, cfg, _ = workspace
        res = runner.invoke(main, ["gradcheck", "--config", str(cfg),
                                   "--trials", "1"])
        assert res.exit_code == 4, res.output
        assert res.stderr == "gradient check failed for: pool.q2d\n"
        # an infinite residual prints as null, which strict JSON allows
        report = strict_loads(res.stdout)
        validate(report, "grad_report.schema.json")
        assert report["max_rel_err"]["pool.q2d"] is None
        assert not report["pass"]

    def test_nan_residual_in_a_later_trial_fails(self, runner, workspace,
                                                 monkeypatch):
        # the max over trials keeps a NaN residual, which compares false,
        # whichever trial it comes from
        real = trainer.gradcheck_params
        calls = []

        def nan_in_last_trial(*args):
            report = real(*args)
            calls.append(None)
            if len(calls) == 4:    # trial 2's train mode
                report["router.w1"] = float("nan")
            return report

        monkeypatch.setattr(trainer, "gradcheck_params", nan_in_last_trial)
        tmp, cfg, _ = workspace
        res = runner.invoke(main, ["gradcheck", "--config", str(cfg),
                                   "--trials", "2"])
        assert res.exit_code == 4, res.output
        assert res.stderr == "gradient check failed for: router.w1\n"
        report = strict_loads(res.stdout)
        validate(report, "grad_report.schema.json")
        assert report["max_rel_err"]["router.w1"] is None
        assert not report["pass"]


class TestCost:
    def test_anchor_row(self, runner):
        res = runner.invoke(main, ["cost", "--tokens", "576"])
        report = json.loads(res.output)
        validate(report, "cost_report.schema.json")
        assert report["llm_tflops"] == pytest.approx(3.82, abs=1e-9)

    def test_kv_row(self, runner):
        res = runner.invoke(main, ["cost", "--tokens", "144"])
        assert json.loads(res.output)["kv_cache_m"] == pytest.approx(75.5)

    def test_zero_tokens(self, runner):
        res = runner.invoke(main, ["cost", "--tokens", "0"])
        report = json.loads(res.output)
        assert report["llm_tflops"] == 0.0
        assert report["kv_cache_m"] == 0.0
        assert report["projector_gflops"] == 0.0

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_failed_report_write_is_usage_error(self, runner):
        # the --out probe opens /dev/full, and the report's write then fails
        res = runner.invoke(main, ["cost", "--tokens", "144",
                                   "--out", "/dev/full"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == \
            "cannot write /dev/full: No space left on device\n"

    @pytest.mark.parametrize("args", [["--tokens", "1000"],
                                      ["--tokens", "17", "--n-in", "16"]])
    def test_more_tokens_than_inputs_is_usage_error(self, runner, args):
        # no branch emits more tokens than it reads
        res = runner.invoke(main, ["cost", *args])
        assert res.exit_code == 2
        assert len(res.output.splitlines()) == 1
        assert "--n-in" in res.output
        res = runner.invoke(main, ["cost", "--tokens", "16", "--n-in", "16"])
        assert res.exit_code == 0, res.output


class TestTrainToy:
    def test_stage1_smoke(self, runner, workspace):
        tmp, cfg, _ = workspace
        out = tmp / "report.json"
        res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                   "--stage", "1", "--steps", "20",
                                   "--no-grad-check", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads(out.read_text())
        validate(report, "train_report.schema.json")
        assert len(report["losses"]) == 20
        assert report["tau_trace"] == []

    def test_stage2_tau_echo(self, runner, workspace):
        tmp, cfg, _ = workspace
        res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                   "--stage", "2", "--steps", "10",
                                   "--no-grad-check"])
        report = json.loads(res.output)
        from qmop.trainer import AnnealSchedule, tau_at
        assert report["tau_trace"] == [tau_at(AnnealSchedule(), k)
                                       for k in range(10)]

    def test_reproducible_digest(self, runner, workspace):
        tmp, cfg, _ = workspace
        digests = []
        for _ in range(2):
            res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                       "--stage", "2", "--steps", "10",
                                       "--no-grad-check"])
            digests.append(json.loads(res.output)["params_digest"])
        assert digests[0] == digests[1]

    def test_size_rule(self, runner, tmp_path, spy):
        # the final check takes central differences over every parameter,
        # so train-toy has gradcheck's size rule unless it skips the check
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"grid_h": 10, "grid_w": 10, "c_vis": 2,
                                   "c_txt": 2, "d_llm": 2, "m_tokens": 25,
                                   "pool_stride": 2}))
        steps = spy(trainer, "backward")
        args = ["train-toy", "--config", str(big), "--stage", "1",
                "--steps", "1"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert len(res.output.splitlines()) == 1
        assert "--no-grad-check" in res.output
        assert steps["backward"] == 0
        res = runner.invoke(main, args + ["--no-grad-check"])
        assert res.exit_code == 0, res.output
        assert steps["backward"] == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", [1, 2])
    def test_step_divergence_exits_5_in_one_line(self, runner, tmp_path,
                                                 stage):
        # at lr 100 the fifth step's loss overflows: a divergence, reported
        # in one line as the final check's is, with no report and no numpy
        # warning
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"lr": 100.0}))
        res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                   "--stage", str(stage), "--steps", "30",
                                   "--no-grad-check", "--out", str(out)])
        assert res.exit_code == 5, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr == "non-finite loss at step 4\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage,lr", [(1, 1e4), (2, 1e8)])
    def test_final_check_over_diverged_params_exits_5(self, runner, tmp_path,
                                                      stage, lr):
        # the steps' losses stay finite, but the final check's forwards
        # over the trained params overflow: that is a divergence, reported
        # in one line, with no report and no numpy warning
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"lr": lr}))
        res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                   "--stage", str(stage), "--steps", "3",
                                   "--batch", "2", "--out", str(out)])
        assert res.exit_code == 5, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "final gradient check" in res.stderr
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_params_beyond_float32_digest_without_warning(self, runner,
                                                          tmp_path):
        # losses reach ~3e43, past float32's range: the digest hashes those
        # values as inf, and stderr stays empty. The final check over these
        # params fails its bound (see the test below), so it is skipped.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 100}))
        res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                   "--stage", "1", "--steps", "3",
                                   "--batch", "2", "--no-grad-check"])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert max(json.loads(res.stdout)["losses"]) > 1e40

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", [1, 2])
    def test_final_check_above_the_bound_exits_4(self, runner, tmp_path,
                                                 stage):
        # at lr 100 the losses stay finite, but the final check's residual
        # reads ~1e191 (stage 1) and ~6e37 (stage 2): a verification
        # failure in one line that names the tensors, with no report
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({"lr": 100}))
        res = runner.invoke(main, ["train-toy", "--config", str(cfg),
                                   "--stage", str(stage), "--steps", "3",
                                   "--batch", "2", "--out", str(out)])
        assert res.exit_code == 4, res.output
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("final gradient check failed for: ")
        names = res.stderr.split(": ", 1)[1].split(" (")[0].split(", ")
        params = cli.build_params(cli.load_config(cfg))
        assert set(names) <= dict(params.named_tensors()).keys()
        assert not out.exists()


@pytest.mark.parametrize("value", [0, -3, True])
@pytest.mark.parametrize("command", [
    ["compress", "--features", "{features}"],
    ["train-toy", "--stage", "1", "--steps", "1"],
    ["gradcheck", "--trials", "1"]])
def test_bad_router_hidden_is_usage_error(runner, workspace, command, value):
    # 0 used to fall back to the default width, -3 to end in a numpy
    # traceback, and true to be taken as a width of 1
    tmp, cfg, features = workspace
    raw = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**raw, "router_hidden": value}))
    args = [a.format(features=features) for a in command]
    res = runner.invoke(main, args + ["--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert "router_hidden" in res.output


def test_router_hidden_sets_the_router_width(runner, workspace):
    tmp, cfg, features = workspace
    raw = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**raw, "router_hidden": 1}))
    res = runner.invoke(main, ["gradcheck", "--config", str(cfg),
                               "--trials", "1"])
    assert res.exit_code == 0, res.output
    params = cli.build_params(cli.load_config(cfg))
    assert params.router.w1.shape == (1, 14)


def test_compress_reports_the_configured_router_cost(runner, workspace):
    # the report used to price the default router width whatever the config
    tmp, cfg, features = workspace
    raw = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({**raw, "router_hidden": 1}))
    res = runner.invoke(main, ["compress", "--features", str(features),
                               "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    cost = json.loads(res.output)["runs"][0]["cost"]
    assert cost["router_gflops"] == (2 * 1 * (8 + 6) + 2 * 3 * 1) / 1e9


# A JSON member appended to the workspace config, which then overrides the
# key's earlier value. Each used to end in a traceback and exit 1, or to be
# accepted silently by at least one command.
MALFORMED = {
    "tau0": '"schedule": {"tau0": 0}',
    "decay": '"schedule": {"decay": "a"}',
    "gumbel0-negative": '"schedule": {"gumbel0": -1}',
    "schedule-bool": '"schedule": {"tau0": true}',
    "grid-float": '"grid_h": 4.0',
    "dim-float": '"d_llm": 8.0',
    "dim-bool": '"c_vis": true',
    "seed-negative": '"seed": -1',
    "seed-float": '"seed": 1.5',
    "lambda-null": '"prune_lambda": null',
    "lambda-string": '"prune_lambda": "0.5"',
    "mode-int": '"inference_mode": 3',
    "lr-string": '"lr": "x"',
    "lr-overflow": '"lr": 1e400',
    "lr-negative": '"lr": -1.0',
    "lr-zero": '"lr": 0',
    "batch-zero": '"batch_size": 0',
    "batch-bool": '"batch_size": true',
    "flag-string": '"shared_pool_phi": "yes"',
}


@pytest.mark.parametrize("bad", ["truncated", *MALFORMED])
@pytest.mark.parametrize("command", [
    ["compress", "--features", "{features}"],
    ["train-toy", "--stage", "1", "--steps", "1"],
    ["gradcheck", "--trials", "1"]])
def test_malformed_config_is_usage_error(runner, workspace, command, bad):
    tmp, cfg, features = workspace
    if bad == "truncated":
        cfg.write_text(cfg.read_text()[:25])
    else:
        cfg.write_text(f"{cfg.read_text()[:-1]}, {MALFORMED[bad]}}}")
    args = [a.format(features=features) for a in command]
    res = runner.invoke(main, args + ["--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert len(res.output.strip().splitlines()) == 1
    assert res.output.startswith("config error: ")


def test_schema_follows_the_branch_list():
    run = load_schema("run_report.schema.json")["properties"]["runs"][
        "items"]["properties"]
    alpha = run["gate"]["oneOf"][1]["properties"]["alpha"]
    members = run["active"]["oneOf"][1]["properties"]["members"]
    assert alpha["minItems"] == alpha["maxItems"] == len(BRANCHES)
    assert members["items"]["enum"] == list(BRANCHES)
    assert members["maxItems"] == len(BRANCHES)


# Each used to end in a traceback and exit 1: reading a directory as a
# bundle, or writing a report or bundle into a directory that does not exist.
# A report path is checked before the command reads or trains anything.
UNUSABLE_PATHS = {
    "features-dir": ["compress", "--features", "{tmp}", "--config", "{cfg}"],
    "compress-out": ["compress", "--features", "{features}", "--config",
                     "{cfg}", "--out", "{out}"],
    "cost-out": ["cost", "--tokens", "144", "--out", "{out}"],
    "train-toy-out": ["train-toy", "--config", "{cfg}", "--stage", "1",
                      "--steps", "100", "--out", "{out}"],
    "synth-out": ["synth", "--out", "{out}"],
}


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_path_is_usage_error(runner, workspace, spy, case):
    tmp, cfg, features = workspace
    paths = dict(tmp=tmp, cfg=cfg, features=features,
                 out=tmp / "nodir" / "report")
    args = [a.format(**paths) for a in UNUSABLE_PATHS[case]]
    reads = spy(cli, "read_bundle")
    steps = spy(trainer, "backward")
    res = runner.invoke(main, args)
    assert reads["read_bundle"] == steps["backward"] == 0
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    bad = str(tmp if case == "features-dir" else paths["out"])
    assert [line for line in res.output.splitlines() if bad in line] != []
    if case != "features-dir":     # click's usage error names the flag
        assert res.output == f"cannot write {bad}: No such file or directory\n"
    assert not (tmp / "nodir").exists()


@pytest.fixture
def refuse_draw(monkeypatch):
    """refuse_draw(seed) makes `seeded_fill`, as `pipeline` and `cli` call
    it, raise numpy's out-of-memory error for `seed` and draw every other
    seed as before: dims too large for memory, without allocating them. At
    config seed 0, tensor i of `init_projector_params` is drawn at seed i
    (9: the stage-1 head's w_in, 12: out_mlp's w_out), and the CLI draws
    its regression targets from seed 7919 on."""
    def install(bad_seed):
        real = pipeline.seeded_fill

        def fill(seed, *args, **kwargs):
            if seed == bad_seed:
                raise MemoryError("Unable to allocate 5.96 GiB for an array "
                                  "with shape (100000000, 8) and data type "
                                  "float64")
            return real(seed, *args, **kwargs)

        monkeypatch.setattr(pipeline, "seeded_fill", fill)
        monkeypatch.setattr(cli, "seeded_fill", fill)
    return install


# Each used to end in a numpy traceback and exit 1. The stage-1 head is
# drawn on its first read, in the forward, the backward or the final check's
# copy of the params, and its float32 image in the params digest.
@pytest.mark.parametrize("command,bad_seed", [
    (["compress", "--features", "{features}", "--mode", "stage1"], 9),
    (["compress", "--features", "{features}", "--mode", "topk:2"], 12),
    (["train-toy", "--stage", "1", "--steps", "1"], 9),
    (["train-toy", "--stage", "2", "--steps", "1"], 9),
    (["train-toy", "--stage", "2", "--steps", "1"], 7919),
    (["gradcheck", "--trials", "1"], 9),
    (["gradcheck", "--trials", "1"], 7919)])
def test_out_of_memory_is_usage_error(runner, workspace, refuse_draw,
                                      command, bad_seed):
    tmp, cfg, features = workspace
    refuse_draw(bad_seed)
    args = [a.format(features=features) for a in command]
    res = runner.invoke(main, args + ["--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == ("out of memory: Unable to allocate 5.96 GiB for an "
                          "array with shape (100000000, 8) and data type "
                          "float64\n")


@pytest.mark.parametrize("mode", ["topk:1", "topk:2", "topk:3",
                                  "threshold:0.3", "train"])
def test_compress_never_draws_the_stage1_head(runner, workspace, refuse_draw,
                                              mode):
    tmp, cfg, features = workspace
    refuse_draw(9)
    res = runner.invoke(main, ["compress", "--features", str(features),
                               "--config", str(cfg), "--mode", mode])
    assert res.exit_code == 0, res.output


# the stage-1 head's bytes an element that each command counts: a float64
# head where stage 1 reads it (the final check and gradcheck read it in their
# copy of the params), the float32 image where only the digest reads it,
# nothing where inference never reads it
@pytest.mark.parametrize("command,head_itemsize", [
    (["compress", "--features", "{features}", "--mode", "topk:2"], 0),
    (["compress", "--features", "{features}", "--mode", "train"], 0),
    (["compress", "--features", "{features}", "--mode", "stage1"], 8),
    (["train-toy", "--stage", "1", "--steps", "1"], 8),
    (["train-toy", "--stage", "2", "--steps", "1"], 8),
    (["train-toy", "--stage", "2", "--steps", "1", "--no-grad-check"], 4),
    (["gradcheck", "--trials", "1"], 8)])
def test_params_beyond_available_memory_exit_2(runner, workspace, monkeypatch,
                                               command, head_itemsize):
    tmp, cfg, features = workspace
    args = [a.format(features=features) for a in command]
    args += ["--config", str(cfg)]
    c = cli.load_config(str(cfg))
    need = pipeline.params_nbytes(c.c_vis, c.c_txt, c.d_llm, c.m_tokens,
                                  c.router_hidden, head_itemsize)
    need += 8 * c.m_tokens * c.d_llm   # one float64 output
    monkeypatch.setattr(cli, "_mem_available", lambda: need)
    assert runner.invoke(main, args).exit_code == 0, "a run that fits"
    monkeypatch.setattr(cli, "_mem_available", lambda: need - 1)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output == (f"out of memory: the params and one output need "
                          f"{need / 2**20:.1f} MiB, "
                          f"{(need - 1) / 2**20:.1f} MiB available\n")


@pytest.fixture(autouse=True)
def no_host_cgroup(monkeypatch):
    # memory checks read the fake files a test names, never the host's
    # cgroup limits
    monkeypatch.setattr(cli, "PROC_CGROUP",
                        str(Path(__file__).with_name("no-such-cgroup")))


def test_mem_available_reads_meminfo(runner, workspace, monkeypatch):
    tmp, cfg, _ = workspace
    meminfo = tmp / "meminfo"
    meminfo.write_text("MemTotal:        8221900 kB\n"
                       "MemFree:         7136788 kB\n"
                       "MemAvailable:    7705808 kB\n"
                       "SwapFree:        1048572 kB\n")
    monkeypatch.setattr(cli, "MEMINFO", str(meminfo))
    assert cli._mem_available() == (7705808 + 1048572) * 1024
    meminfo.write_text("MemAvailable:    7705808 kB\n")   # no swap
    assert cli._mem_available() == 7705808 * 1024
    meminfo.write_text("MemTotal:        8221900 kB\n"
                       "SwapFree:        1048572 kB\n")
    assert cli._mem_available() is None
    # an unreadable file checks nothing, and the run goes ahead
    monkeypatch.setattr(cli, "MEMINFO", str(tmp / "missing"))
    assert cli._mem_available() is None
    res = runner.invoke(main, ["train-toy", "--stage", "1", "--steps", "1",
                               "--config", str(cfg)])
    assert res.exit_code == 0, res.output


@pytest.fixture
def cgroup(tmp_path, monkeypatch):
    """Fake meminfo (8 GiB available, 1 GiB swap free) and a fake cgroup v2
    hierarchy whose process cgroup is `app.slice/run`; returns that
    cgroup's directory."""
    (tmp_path / "meminfo").write_text("MemAvailable:    8388608 kB\n"
                                      "SwapFree:        1048576 kB\n")
    (tmp_path / "cgroup").write_text("1:memory:/old\n0::/app.slice/run\n")
    here = tmp_path / "fs" / "app.slice" / "run"
    here.mkdir(parents=True)
    monkeypatch.setattr(cli, "MEMINFO", str(tmp_path / "meminfo"))
    monkeypatch.setattr(cli, "PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(cli, "CGROUP_ROOT", str(tmp_path / "fs"))
    return here


def test_mem_available_reads_the_cgroup_limit(cgroup):
    gib = 2 ** 30
    (cgroup / "memory.max").write_text(f"{2 * gib}\n")
    (cgroup / "memory.swap.max").write_text(f"{gib // 4}\n")
    assert cli._mem_available() == 2 * gib + gib // 4
    # swap beyond what is free does not count
    (cgroup / "memory.swap.max").write_text(f"{4 * gib}\n")
    assert cli._mem_available() == 3 * gib
    # a limit above what the host has changes nothing
    (cgroup / "memory.max").write_text(f"{16 * gib}\n")
    assert cli._mem_available() == 9 * gib


@pytest.mark.parametrize("text", ["max\n", None, "", "12 MiB\n", "\x00\xff"],
                         ids=["max", "missing", "empty", "units", "binary"])
def test_mem_available_ignores_an_unread_limit(cgroup, text):
    gib = 2 ** 30
    if text is not None:
        (cgroup / "memory.max").write_text(text)
    assert cli._mem_available() == 9 * gib
    # an unread swap limit leaves the free swap
    (cgroup / "memory.max").write_text(f"{gib}\n")
    if text is not None:
        (cgroup / "memory.swap.max").write_text(text)
    assert cli._mem_available() == 2 * gib


@pytest.mark.parametrize("lines", ["", "0::/\n", "1:memory:/old\n",
                                   "0\n1:memory\n1:memory:/old\n"],
                         ids=["empty", "root", "v1-only", "short-lines"])
def test_mem_available_without_a_v2_cgroup(cgroup, lines):
    (cgroup / "memory.max").write_text(f"{2 ** 30}\n")
    Path(cli.PROC_CGROUP).write_text(lines)
    assert cli._mem_available() == 9 * 2 ** 30


@pytest.fixture
def cgroup_v1(cgroup):
    """The `cgroup` fixture's files, with a cgroup v1 memory controller
    line for `jobs/run` and no v2 line; returns that cgroup's directory
    under the memory hierarchy."""
    Path(cli.PROC_CGROUP).write_text(
        "5:devices:/\n4:memory:/jobs/run\n3:cpu,cpuacct:/\n0::/\n")
    here = Path(cli.CGROUP_ROOT) / "memory" / "jobs" / "run"
    here.mkdir(parents=True)
    return here


def test_mem_available_reads_a_v1_limit(cgroup_v1):
    gib = 2 ** 30
    (cgroup_v1 / "memory.limit_in_bytes").write_text(f"{2 * gib}\n")
    # v1 swap is not read: the limit adds all the free swap
    assert cli._mem_available() == 3 * gib
    (cgroup_v1 / "memory.limit_in_bytes").write_text(f"{16 * gib}\n")
    assert cli._mem_available() == 9 * gib
    # the memory controller may share its hierarchy with others
    Path(cli.PROC_CGROUP).write_text("4:cpu,memory:/jobs/run\n")
    (cgroup_v1 / "memory.limit_in_bytes").write_text(f"{gib}\n")
    assert cli._mem_available() == 2 * gib


@pytest.mark.parametrize("text", ["9223372036854771712\n",
                                  "9223372036854710272\n", "-1\n", None,
                                  "", "max\n"],
                         ids=["unlimited", "unlimited-64k", "minus-one",
                              "missing", "empty", "max"])
def test_mem_available_ignores_an_unset_v1_limit(cgroup_v1, text):
    if text is not None:
        (cgroup_v1 / "memory.limit_in_bytes").write_text(text)
    assert cli._mem_available() == 9 * 2 ** 30


def test_mem_available_takes_the_smaller_of_v1_and_v2(cgroup, cgroup_v1):
    gib = 2 ** 30
    Path(cli.PROC_CGROUP).write_text("4:memory:/jobs/run\n"
                                     "0::/app.slice/run\n")
    (cgroup / "memory.max").write_text(f"{3 * gib}\n")
    (cgroup / "memory.swap.max").write_text("0\n")
    (cgroup_v1 / "memory.limit_in_bytes").write_text(f"{2 * gib}\n")
    assert cli._mem_available() == 2 * gib
    (cgroup_v1 / "memory.limit_in_bytes").write_text(f"{4 * gib}\n")
    assert cli._mem_available() == 3 * gib


def test_cost_defaults_are_the_llava_dims(runner):
    explicit = runner.invoke(main, ["cost", "--tokens", "144", "--n-in", "576",
                                    "--cvis", "1024", "--ctxt", "768",
                                    "--dllm", "4096"])
    default = runner.invoke(main, ["cost", "--tokens", "144"])
    assert default.exit_code == explicit.exit_code == 0
    assert default.output == explicit.output
    shown = runner.invoke(main, ["cost", "--help"]).output
    for value in ("576", "1024", "768", "4096"):
        assert f"[default: {value};" in shown


# Every subcommand over argv drawn from valid and malformed flags, at dims
# small enough that no draw can ask for much memory. Paths name a good,
# truncated, missing or directory bundle or config, a config whose dims do
# not match the bundle, and report paths that can or cannot be written.
HUGE = 10 ** 400    # an integer that no float can hold


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    good = {"grid_h": 2, "grid_w": 2, "c_vis": 3, "c_txt": 2, "d_llm": 3,
            "m_tokens": 1, "pool_stride": 2, "batch_size": 2}
    paths = {"cfg-good": tmp / "good.json", "cfg-other": tmp / "other.json",
             "cfg-truncated": tmp / "cut.json",
             "features-good": tmp / "good.qmop",
             "features-other": tmp / "other.qmop",
             "features-truncated": tmp / "cut.qmop",
             "out-good": tmp / "out" / "report.json",
             "out-missing": tmp / "nodir" / "report.json", "out-dir": tmp}
    paths["cfg-good"].write_text(json.dumps(good))
    paths["cfg-other"].write_text(json.dumps({**good, "c_vis": 4}))
    paths["cfg-truncated"].write_text(json.dumps(good)[:20])
    for key, cvis in (("good", "3"), ("other", "4")):
        res = CliRunner().invoke(main, [
            "synth", "--grid", "2x2", "--cvis", cvis, "--ctxt", "2",
            "--out", str(paths[f"features-{key}"])])
        assert res.exit_code == 0, res.output
    paths["features-truncated"].write_bytes(
        paths["features-good"].read_bytes()[:40])
    for kind in ("cfg", "features"):
        paths[f"{kind}-missing"] = tmp / f"missing-{kind}"
        paths[f"{kind}-dir"] = tmp
    paths["out-good"].parent.mkdir()
    return {key: str(path) for key, path in paths.items()}


# flag: (valid values, malformed values); None leaves the flag out, True
# gives a bare switch, and a list repeats the flag once per item
_CONFIG = (["{cfg-good}"], [None, "{cfg-other}", "{cfg-truncated}",
                            "{cfg-missing}", "{cfg-dir}"])
_OUT = ([None, "{out-good}"], ["{out-missing}", "{out-dir}"])
_SWITCH = ([None, True], [])
FLAGS = {
    "synth": {"--seed": ([None, 0, 3], [-1, 2 ** 64, "x"]),
              "--grid": ([None, "2x2", "3x1"], ["0x2", "2by2", "x"]),
              "--cvis": ([None, 3, 1], [0, "x"]),
              "--ctxt": ([None, 2], [-1]),
              "--out": (["{out-good}"], [None, "{out-missing}",
                                         "{out-dir}"])},
    "compress": {"--features": ([["{features-good}"],
                                 ["{features-good}"] * 2],
                                [None, ["{features-other}"],
                                 ["{features-truncated}"],
                                 ["{features-missing}"], ["{features-dir}"]]),
                 "--config": _CONFIG,
                 "--mode": ([None, "topk:1", "topk:2", "topk:3",
                             "threshold:0.3", "train", "stage1"],
                            ["topk:0", "threshold:x", "bogus"]),
                 "--out": _OUT, "--no-timing": _SWITCH,
                 "--dump-tokens": _SWITCH},
    "gradcheck": {"--config": _CONFIG, "--trials": ([None, 1], [0, "x"])},
    "cost": {"--tokens": ([0, 1, 144, cli.COUNT_MAX],
                          [None, 600, -1, "x", HUGE]),
             "--n-in": ([None, 576, 1, cli.COUNT_MAX], [0, HUGE]),
             "--cvis": ([None, 1024, 1, cli.COUNT_MAX], [0, HUGE]),
             "--ctxt": ([None, 768, 2, cli.COUNT_MAX], [0]),
             "--dllm": ([None, 4096, 3, cli.COUNT_MAX], [HUGE]),
             "--out": _OUT},
    "train-toy": {"--config": _CONFIG, "--stage": ([1, 2], [None, 3, "x"]),
                  "--steps": ([None, 1, 2], [0]),
                  "--batch": ([None, 1, 2], [0, "x"]),
                  "--no-grad-check": _SWITCH, "--out": _OUT},
}
SCHEMAS = {"compress": "run_report", "gradcheck": "grad_report",
           "cost": "cost_report", "train-toy": "train_report"}


@st.composite
def argvs(draw):
    """A subcommand's argv, with none, one or two of its flags, or an
    unknown flag or stray argument, malformed."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    n_bad = draw(st.integers(0, 2))
    bad = draw(st.sets(st.sampled_from([*flags, "extra"]), min_size=n_bad,
                       max_size=n_bad))
    argv = [command]
    for flag, (valid, malformed) in flags.items():
        value = draw(st.sampled_from(malformed if flag in bad and malformed
                                     else valid))
        if value is True:
            argv.append(flag)
        elif value is not None:
            for item in value if isinstance(value, list) else [value]:
                argv += [flag, str(item)]
    if "extra" in bad:
        argv += draw(st.sampled_from([["--bogus"], ["extra"]]))
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_ends_in_a_documented_exit(argv_paths, argv):
    argv = [a.format(**argv_paths) for a in argv]
    out_path = Path(argv_paths["out-good"])
    if out_path.exists():
        out_path.unlink()
    res = CliRunner().invoke(main, argv)
    assert res.exit_code in (0, 2, 3, 4, 5), (argv, res.output)
    assert "Traceback" not in res.stderr, argv
    # gradcheck prints its report when it fails the bound, too
    command = argv[0]
    if command in SCHEMAS and (res.exit_code == 0 or (
            command, res.exit_code) == ("gradcheck", 4)):
        text = out_path.read_text() if str(out_path) in argv else res.stdout
        validate(strict_loads(text), f"{SCHEMAS[command]}.schema.json")
    elif res.stdout.strip():
        strict_loads(res.stdout)
