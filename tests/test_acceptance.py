"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s` or in the -rA summary).
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from qmop import init_projector_params, read_bundle, synth_bundle, \
    write_bundle
from qmop.branches import prune_select
from qmop.bundle import FormatError, TruncatedFileError
from qmop.cli import main
from qmop.linalg import seeded_fill, softmax_rows
from qmop.pipeline import fuse, infer_forward, run_branches, \
    stage1_forward, train_forward
from qmop.router import gate_forward
from qmop.trainer import AnnealSchedule, TrainConfig, tau_at, train_toy
from conftest import quantized
from test_branches import masked_attention_oracle, pool_params, sort_oracle
from test_pipeline import force_logits
from test_router import gate, random_router, router_with_logits


def report(name: str, ok: bool):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def run_cli(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_criterion_1_cost_table_reproduction():
    tflops_rows = {64: (0.42, 0.01), 36: (0.23, 0.01), 16: (0.10, 0.01),
                   4: (0.03, 0.005)}
    kv_rows = {144: 75.5, 64: 33.6, 36: 18.9, 16: 8.4, 4: 2.1}
    ok = True
    for tokens, (expected, tol) in tflops_rows.items():
        got = run_cli(["cost", "--tokens", str(tokens)])["llm_tflops"]
        ok &= abs(got - expected) <= tol
    for tokens, expected in kv_rows.items():
        got = run_cli(["cost", "--tokens", str(tokens)])["kv_cache_m"]
        ok &= abs(got - expected) <= 0.05
    report("1 cost-table reproduction", ok)


def test_criterion_2_gradient_verification(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_h": 4, "grid_w": 4, "c_vis": 8,
                               "c_txt": 6, "d_llm": 8, "m_tokens": 4,
                               "pool_stride": 2}))
    result = run_cli(["gradcheck", "--config", str(cfg), "--trials", "5"])
    ok = result["pass"] and max(result["max_rel_err"].values()) <= 1e-4
    report("2 gradient verification", ok)


def test_criterion_3_pooling_oracle():
    worst = 0.0
    for (gh, gw), stride in [((4, 4), 2), ((6, 6), 2), ((6, 6), 3)]:
        bundle = synth_bundle(gh * 10 + stride, gh, gw, 5, 3)
        params = pool_params(gh, gw, stride, 5, seed=gh + stride)
        from qmop.branches import pool_local
        got = pool_local([bundle], params).tokens
        worst = max(worst, float(np.max(np.abs(
            got - masked_attention_oracle(bundle, params)))))
    report("3 pooling oracle equivalence", worst <= 1e-9)


def test_criterion_4_pruning_oracle():
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(4, 65))
        scores = np.round(rng.random(n), 2)  # duplicates force ties
        m = int(rng.integers(1, n + 1))
        ok &= list(prune_select(scores, m)) == sort_oracle(scores, m)
    report("4 pruning oracle equivalence", ok)


def test_criterion_5_gate_properties():
    ok = True
    # sum-to-one on 1e4 random evaluations
    rng = np.random.default_rng(0)
    for trial in range(10_000):
        params = random_router(trial % 500)
        g = gate(rng.normal(size=10), params, tau=float(rng.uniform(0.1, 10)))
        ok &= abs(g.alpha.sum() - 1.0) <= 1e-9
    # argmax invariance across temperatures
    for trial in range(100):
        params = random_router(trial)
        f = seeded_fill(trial, 1, 10)[0]
        winners = {int(np.argmax(gate(f, params, tau=t).alpha))
                   for t in (0.1, 1.0, 10.0)}
        ok &= len(winners) == 1
    # Gumbel-max frequency against softmax probabilities
    logits = [0.7, 0.1, -0.4]
    params = router_with_logits(logits)
    probs = softmax_rows(np.array([logits]))[0]
    n = 100_000
    # one batch of n rows, row i's noise drawn at seed i
    g = gate_forward(np.zeros((n, 4)), params, 1.0, 1.0, range(n))
    counts = np.bincount(np.argmax(g.alpha, axis=1), minlength=3)
    ok &= np.abs(counts / n - probs).max() <= 0.02
    report("5 gate properties", ok)


def test_criterion_6_fusion_identities(branch_calls):
    bundle = synth_bundle(7, 4, 4, 8, 6)
    params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=0)
    outs = run_branches(bundle, params)
    ok = True
    # one-hot fusion is bit exact
    tokens = [outs[name].tokens for name in ("pool", "resample", "prune")]
    for i, x in enumerate(tokens):
        w = np.zeros(3)
        w[i] = 1.0
        ok &= fuse(tokens, w[None]).tobytes() == x.tobytes()
    # all-active inference equals noise-free training forward
    inf = infer_forward(bundle, params, ("topk", 3))
    trn = train_forward(bundle, params, 1.0, 0.0, 0)
    ok &= float(np.max(np.abs(inf.tokens - trn.tokens))) <= 1e-12
    # the discarded branch is never invoked under topk(2)
    force_logits(params, np.log([0.5, 0.3, 0.2]))
    branch_calls.clear()
    infer_forward(bundle, params, ("topk", 2))
    ok &= branch_calls["prune"] == 0 and branch_calls["pool"] == 1
    report("6 fusion identities", ok)


def test_criterion_7_training_smoke():
    def batch(seed):
        bundles = [synth_bundle(seed * 100 + i, 4, 4, 8, 6)
                   for i in range(4)]
        targets = [seeded_fill(seed * 100 + 50 + i, 4, 8) for i in range(4)]
        return bundles, targets

    ok = True
    bundles, targets = batch(0)
    stage1 = train_toy(
        init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=0),
        TrainConfig(stage=1, steps=200, lr=0.1, seed=0, bundles=bundles,
                    targets=targets, final_grad_check=False))
    ok &= stage1.losses[-1] < 0.5 * stage1.losses[0]

    sched = AnnealSchedule()
    entropy_wins = 0
    for seed in range(10):
        bundles, targets = batch(seed)
        rep = train_toy(
            init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=seed),
            TrainConfig(stage=2, steps=200, lr=0.1, seed=seed,
                        bundles=bundles, targets=targets, schedule=sched,
                        final_grad_check=False))
        if seed == 0:
            ok &= rep.tau_trace == [tau_at(sched, k) for k in range(200)]
            ok &= all(np.isfinite(rep.losses))
        entropy_wins += rep.final_gate_entropy <= rep.first_gate_entropy
    ok &= entropy_wins >= 8
    report("7 training smoke", ok)


def test_criterion_8_format_round_trip(tmp_path):
    from test_bundle import assert_bundles_equal
    rng = np.random.default_rng(1)
    ok = True
    for i in range(100):
        gh, gw = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        cv, ct = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        b = synth_bundle(i, gh, gw, cv, ct)
        if i % 4 == 0:
            b.text_raw = f"query {i}"
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        back = read_bundle(path)
        try:
            assert_bundles_equal(back, quantized(b))
        except AssertionError:
            ok = False
    # corrupted magic
    raw = bytearray(path.read_bytes())
    raw[:8] = b"QMOPFT99"
    bad = tmp_path / "bad.qmop"
    bad.write_bytes(bytes(raw))
    try:
        read_bundle(bad)
        ok = False
    except FormatError:
        pass
    # truncated payload
    bad.write_bytes(path.read_bytes()[:40])
    try:
        read_bundle(bad)
        ok = False
    except TruncatedFileError:
        pass
    report("8 format round-trip", ok)


@pytest.mark.parametrize("m_tokens,stride", [(144, 2), (64, 3)])
def test_criterion_9_end_to_end_shapes(m_tokens, stride):
    d_llm = 16
    bundle = synth_bundle(3, 24, 24, 8, 6)
    params = init_projector_params(24, 24, 8, 6, d_llm, m_tokens, stride,
                                   seed=0)
    ok = True
    for run in (
        lambda: stage1_forward(bundle, params),
        lambda: train_forward(bundle, params, 1.0, 0.0, 0),
        lambda: infer_forward(bundle, params, ("topk", 1)),
        lambda: infer_forward(bundle, params, ("topk", 2)),
        lambda: infer_forward(bundle, params, ("topk", 3)),
        lambda: infer_forward(bundle, params, ("threshold", 0.2)),
    ):
        ok &= run().tokens.shape == (m_tokens, d_llm)
    report(f"9 end-to-end shapes (M={m_tokens})", ok)
