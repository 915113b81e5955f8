import copy
import dataclasses
import math
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from qmop import pipeline, router, synth_bundle
from qmop.branches import _blend, pool_local, prune_select, resample
from qmop.linalg import (ACTIVATIONS, DomainError, NumericError, ShapeError,
                         rng_for, seeded_fill)
from conftest import on_cpus, watch_draws
from test_trainer import params_to_vector
from qmop.pipeline import (
    forward,
    fuse,
    infer_forward,
    init_projector_params,
    params_nbytes,
    query_products,
    run_branches,
    stage1_forward,
    train_forward,
)
from qmop.router import BRANCHES
from qmop.trainer import (GradDict, TrainConfig, backward, params_digest,
                          train_toy)


def force_logits(params, logits):
    """Make the router output exactly these logits for any input."""
    params.router.w1[:] = 0.0
    params.router.b1[:] = 0.0
    params.router.w2[:] = 0.0
    params.router.b2[:] = logits
    return params


class TestRunBranches:
    def test_all_outputs_have_m_rows(self, tiny_bundle, tiny_params):
        outs = run_branches([tiny_bundle], tiny_params)
        for name in ("pool", "resample", "prune"):
            assert outs[name].tokens.shape == (4, 8)

    def test_deterministic(self, tiny_bundle, tiny_params):
        a = run_branches([tiny_bundle], tiny_params)
        b = run_branches([tiny_bundle], tiny_params)
        for name in a:
            assert a[name].tokens.tobytes() == b[name].tokens.tobytes()

    def test_matches_module_level_operators(self, tiny_bundle, tiny_params):
        outs = run_branches([tiny_bundle], tiny_params)
        qk = query_products(tiny_params)
        assert np.array_equal(
            outs["pool"].tokens,
            pool_local([tiny_bundle], tiny_params.pool, qk["pool"]).tokens)
        assert np.array_equal(
            outs["resample"].tokens,
            resample([tiny_bundle.patches], tiny_params.resampler,
                     qk["resample"]).tokens)
        projected = tiny_bundle.patches @ tiny_params.relevance.g.T
        scores = _blend(tiny_bundle, projected, 0.5, "cosine")
        assert np.array_equal(
            outs["prune"].tokens,
            tiny_bundle.patches[prune_select(scores, 4)])

    def test_unknown_branch(self, tiny_bundle, tiny_params):
        with pytest.raises(ValueError, match="^unknown branch 'bogus'$"):
            pipeline._run_branch("bogus", [tiny_bundle], tiny_params,
                                 query_products(tiny_params))

    def test_counters(self, tiny_bundle, tiny_params, branch_calls):
        run_branches([tiny_bundle], tiny_params)
        assert branch_calls == {"pool": 1, "resample": 1, "prune": 1}


class TestFuse:
    def outputs(self, seed=0):
        return [seeded_fill(seed + i, 4, 8) for i in range(3)]

    def test_one_hot_bit_exact(self):
        outs = self.outputs()
        for i in range(3):
            fused = fuse(outs, np.eye(3)[[i]])
            assert fused.tobytes() == outs[i].tobytes()
        # a single active branch at weight 1, as topk:1 fuses it
        fused = fuse(outs[1:2], np.ones((1, 1)))
        assert fused.tobytes() == outs[1].tobytes()

    def test_equal_matrices_convexity(self):
        a = seeded_fill(0, 4, 8)
        assert np.allclose(fuse([a, a.copy()], np.array([[0.5, 0.5]])), a,
                           atol=1e-15)

    def test_matches_scalar_loop(self):
        outs = self.outputs(3)
        w = np.array([[0.625, 0.375, 0.0]])
        ref = np.zeros((4, 8))
        for i in range(4):
            for j in range(8):
                ref[i, j] = (0.625 * outs[0][i, j] + 0.375 * outs[1][i, j])
        assert np.allclose(fuse(outs, w), ref, atol=1e-12)
        assert np.allclose(fuse(outs[:2], w[:, :2]), ref, atol=1e-12)

    def test_linear_in_weights(self):
        outs = self.outputs(5)
        w1 = np.array([[0.2, 0.3, 0.1]])
        w2 = np.array([[0.1, 0.05, 0.4]])
        assert np.allclose(fuse(outs, w1 + w2),
                           fuse(outs, w1) + fuse(outs, w2), atol=1e-12)

    def test_convex_combination_bounds(self):
        outs = self.outputs(7)
        w = np.array([[0.2, 0.5, 0.3]])
        fused = fuse(outs, w)
        stack = np.stack(outs)
        assert (fused >= stack.min(axis=0) - 1e-12).all()
        assert (fused <= stack.max(axis=0) + 1e-12).all()

    def test_shape_mismatch(self):
        outs = self.outputs()
        outs[2] = seeded_fill(9, 3, 8)
        with pytest.raises(ShapeError, match="shapes differ"):
            fuse(outs, np.array([[0.3, 0.3, 0.4]]))

    def test_missing_branch_with_weight(self):
        # a weight column with no matrix, and a matrix with no weight column
        outs = self.outputs()
        with pytest.raises(ShapeError, match="weight columns"):
            fuse(outs[:2], np.array([[0.3, 0.3, 0.4]]))
        with pytest.raises(ShapeError, match="weight columns"):
            fuse(outs, np.array([[0.5, 0.5], [0.2, 0.8]]))


class TestStage1Forward:
    def test_output_shape(self, tiny_bundle, tiny_params):
        out = stage1_forward([tiny_bundle], tiny_params)
        assert out.tokens.shape == (4, 8)
        assert out.gate is None and out.active is None

    def test_zeroed_output_layer_gives_bias(self, tiny_bundle, tiny_params):
        tiny_params.stage1_mlp.w_out[:] = 0.0
        tiny_params.stage1_mlp.b_out[:] = 2.5
        out = stage1_forward([tiny_bundle], tiny_params)
        assert np.allclose(out.tokens, 2.5, atol=1e-15)

    def test_matches_composed_reference(self, tiny_bundle, tiny_params):
        outs = run_branches([tiny_bundle], tiny_params)
        concat = np.concatenate(
            [outs[n].tokens for n in ("pool", "resample", "prune")], axis=1)
        act, _ = ACTIVATIONS["gelu"]
        mlp = tiny_params.stage1_mlp
        ref = act(concat @ mlp.w_in.T + mlp.b_in) @ mlp.w_out.T + mlp.b_out
        out = stage1_forward([tiny_bundle], tiny_params)
        assert np.allclose(out.tokens, ref, atol=1e-12)

    def test_record_holds_branch_tokens_once(self, tiny_bundle, tiny_params):
        # the backward's record keeps each branch's tokens as a view of the
        # MLP input rather than a second copy
        outs = run_branches([tiny_bundle], tiny_params)
        out = stage1_forward([tiny_bundle], tiny_params)
        concat, _, _ = out.mlp
        for name in BRANCHES:
            kept = out.outputs[name].tokens
            assert np.array_equal(kept, outs[name].tokens), name
            assert np.shares_memory(kept, concat), name


class TestTrainForward:
    def test_zero_logits_fuse_to_mean(self, tiny_bundle, tiny_params):
        force_logits(tiny_params, [0.0, 0.0, 0.0])
        out = train_forward([tiny_bundle], tiny_params, 1.0, 0.0, 0)
        mean = sum(out.outputs[n].tokens for n in out.outputs) / 3.0
        fused, _, _ = out.mlp
        assert np.allclose(fused, mean, atol=1e-12)

    def test_deterministic_without_noise(self, tiny_bundle, tiny_params):
        a = train_forward([tiny_bundle], tiny_params, 1.0, 0.0, seed=1)
        b = train_forward([tiny_bundle], tiny_params, 1.0, 0.0, seed=2)
        assert a.tokens.tobytes() == b.tokens.tobytes()

    def test_sharp_gate_approaches_single_branch(self, tiny_bundle,
                                                 tiny_params):
        force_logits(tiny_params, [2.0, 1.0, 0.0])  # pool wins
        sharp = train_forward([tiny_bundle], tiny_params, 0.01, 0.0, 0)
        single = infer_forward(tiny_bundle, tiny_params, ("topk", 1))
        assert single.active.members == ("pool",)
        rel = np.linalg.norm(sharp.tokens - single.tokens) \
            / np.linalg.norm(single.tokens)
        assert rel <= 1e-2


class TestInferForward:
    def test_topk3_equals_train(self, tiny_bundle, tiny_params):
        inf = infer_forward(tiny_bundle, tiny_params, ("topk", 3))
        trn = train_forward([tiny_bundle], tiny_params, 1.0, 0.0, 0)
        assert np.max(np.abs(inf.tokens - trn.tokens)) <= 1e-12

    def test_topk1_is_single_branch_through_mlp(self, tiny_bundle,
                                                tiny_params):
        from qmop.pipeline import _mlp_forward
        out = infer_forward(tiny_bundle, tiny_params, ("topk", 1))
        (branch,) = out.active.members
        branch_out = run_branches([tiny_bundle], tiny_params)[branch]
        expected, _, _ = _mlp_forward(tiny_params.out_mlp, branch_out.tokens)
        assert np.array_equal(out.tokens, expected)

    def test_engineered_renormalization(self, tiny_bundle, tiny_params):
        force_logits(tiny_params, np.log([0.5, 0.3, 0.2]))
        out = infer_forward(tiny_bundle, tiny_params, ("topk", 2))
        assert out.active.members == ("pool", "resample")
        assert np.allclose(out.active.renorm_weights, [0.625, 0.375],
                           atol=1e-9)

    def test_skipped_branch_never_invoked(self, tiny_bundle, tiny_params,
                                          branch_calls):
        force_logits(tiny_params, np.log([0.5, 0.3, 0.2]))
        infer_forward(tiny_bundle, tiny_params, ("topk", 2))
        assert branch_calls["prune"] == 0
        assert branch_calls["pool"] == 1 and branch_calls["resample"] == 1

    def test_threshold_mode(self, tiny_bundle, tiny_params):
        force_logits(tiny_params, np.log([0.5, 0.3, 0.2]))
        out = infer_forward(tiny_bundle, tiny_params, ("threshold", 0.25))
        assert out.active.members == ("pool", "resample")

    def test_every_mode_yields_m_by_dllm(self, tiny_bundle, tiny_params):
        for mode in (("topk", 1), ("topk", 2), ("topk", 3),
                     ("threshold", 0.2)):
            assert infer_forward(tiny_bundle, tiny_params,
                                 mode).tokens.shape == (4, 8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overflow_raises_numeric_error(self, tiny_bundle, tiny_params, k):
        # the largest finite double passes validation, but the first
        # projection of it that sums to more than one overflows
        tiny_bundle.patches[:] = np.finfo(np.float64).max
        tiny_bundle.validate()
        with pytest.raises(NumericError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            infer_forward(tiny_bundle, tiny_params, ("topk", k))


class TestForward:
    FORWARDS = ("stage1_forward", "train_forward", "infer_forward")

    @pytest.mark.parametrize("mode,target", [
        (("stage1",), "stage1_forward"),
        (("train", 1.3, 0.7, 5), "train_forward"),
        (("topk", 2), "infer_forward"),
        (("threshold", 0.25), "infer_forward")])
    def test_dispatches_each_kind(self, tiny_bundle, tiny_params, spy, mode,
                                  target):
        calls = {name: spy(pipeline, name) for name in self.FORWARDS}
        forward([tiny_bundle], tiny_params, mode)
        assert {n: sum(c.values()) for n, c in calls.items()} == {
            n: int(n == target) for n in self.FORWARDS}

    def test_train_takes_the_mode_fields_in_order(self, tiny_bundle,
                                                  tiny_params):
        out = forward([tiny_bundle], tiny_params, ("train", 1.3, 0.7, 5))
        direct = train_forward([tiny_bundle], tiny_params, 1.3, 0.7, 5)
        assert out.tokens.tobytes() == direct.tokens.tobytes()

    @pytest.mark.parametrize("mode", [("bogus",), ("topk:2",), ("Train",)])
    def test_unknown_kind_raises(self, tiny_bundle, tiny_params,
                                 branch_calls, mode):
        with pytest.raises(ValueError, match="unknown forward mode"):
            forward([tiny_bundle], tiny_params, mode)
        assert branch_calls == {}

    @pytest.mark.parametrize("kind", ["bogus", "stage1", "train"])
    def test_infer_rejects_an_unknown_kind_before_the_gate(
            self, tiny_bundle, tiny_params, spy, branch_calls, kind):
        gate = spy(router, "gate_forward")
        with pytest.raises(ValueError, match="unknown inference mode"):
            infer_forward(tiny_bundle, tiny_params, (kind, 2))
        assert gate == {} and branch_calls == {}


class TestBatchCheck:
    """A batch is a nonempty list of bundles with one set of dims, checked
    before any branch runs."""

    RUNS = {
        "forward-stage1": lambda bs, p, ts: forward(bs, p, ("stage1",)),
        "forward-train": lambda bs, p, ts: forward(bs, p,
                                                   ("train", 1.3, 0.7, 5)),
        "backward-stage1": lambda bs, p, ts: backward(bs, p, ts, ("stage1",),
                                                      GradDict()),
        "backward-train": lambda bs, p, ts: backward(bs, p, ts,
                                                     ("train", 1.3, 0.7, 5),
                                                     GradDict()),
    }

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_empty_batch_raises(self, tiny_params, branch_calls, run):
        with pytest.raises(ShapeError, match="at least one bundle"):
            run([], tiny_params, [])
        assert branch_calls == {}

    @pytest.mark.parametrize("other", [(4, 4, 8, 5), (2, 2, 8, 6)],
                             ids=["c_txt", "grid"])
    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_mixed_dims_raise(self, tiny_bundle, tiny_params, tiny_target,
                              branch_calls, run, other):
        bundles = [tiny_bundle, synth_bundle(8, *other)]
        with pytest.raises(ShapeError, match="differ in dims"):
            run(bundles, tiny_params, [tiny_target, tiny_target])
        assert branch_calls == {}

    @pytest.mark.parametrize("mode", [("topk", 2), ("threshold", 0.25)])
    @pytest.mark.parametrize("n", [0, 2])
    def test_infer_mode_takes_a_batch_of_one(self, tiny_bundle, tiny_params,
                                             branch_calls, mode, n):
        with pytest.raises(ShapeError, match="batch of one"):
            forward([tiny_bundle] * n, tiny_params, mode)
        assert branch_calls == {}
        one = forward([tiny_bundle], tiny_params, mode)
        assert one.tokens.tobytes() == infer_forward(
            tiny_bundle, tiny_params, mode).tokens.tobytes()


class TestStage1Head:
    """`stage1_mlp` is drawn on its first read and kept from then on."""

    @pytest.mark.parametrize("mode", [
        ("topk", 1), ("topk", 2), ("topk", 3), ("threshold", 0.3),
        ("train", 1.3, 0.7, 5)])
    def test_other_forwards_never_draw_it(self, tiny_bundle, tiny_params,
                                          mode):
        forward([tiny_bundle], tiny_params, mode)
        assert "stage1_mlp" not in vars(tiny_params)

    @pytest.mark.parametrize("read", [
        lambda b, p, t: stage1_forward([b], p),
        lambda b, p, t: backward([b], p, [t], ("stage1",), GradDict()),
        lambda b, p, t: list(p.named_tensors())],
        ids=["stage1_forward", "backward", "named_tensors"])
    def test_first_read_draws_it_once(self, tiny_bundle, tiny_params,
                                      tiny_target, read):
        read(tiny_bundle, tiny_params, tiny_target)
        head = vars(tiny_params)["stage1_mlp"]
        assert tiny_params.stage1_mlp is head

    def test_params_digest_never_draws_it(self, tiny_params):
        digest = params_digest(tiny_params)
        assert "stage1_mlp" not in vars(tiny_params)
        assert params_digest(tiny_params) == digest
        tiny_params.stage1_mlp
        assert params_digest(tiny_params) == digest

    def test_stage2_training_never_draws_it(self, tiny_bundle, tiny_target):
        digests = []
        for draw_first in (True, False):
            params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=0)
            if draw_first:
                params.stage1_mlp
            report = train_toy(params, TrainConfig(
                stage=2, steps=2, lr=0.1, seed=0, bundles=[tiny_bundle],
                targets=[tiny_target], final_grad_check=False))
            digests.append(report.params_digest)
        assert digests[0] == digests[1]
        # the twin that trained undrawn: its digest hashed the float32
        # image, which holds the head's elements cast, and no head
        assert "stage1_mlp" not in vars(params)
        image = params.digest_head()
        assert params.digest_head() is image
        head = params.stage1_mlp
        assert params.digest_head() is head
        assert params._head_image is None
        for name in ("w_in", "b_in", "w_out", "b_out"):
            got, want = getattr(image, name), getattr(head, name)
            assert got.dtype == np.float32 and want.dtype == np.float64
            assert got.tobytes() == want.astype(np.float32).tobytes()

    def test_training_keeps_its_updates(self, tiny_bundle, tiny_target):
        # two steps, so the second reads the head the first updated
        digests = []
        for read_first in (True, False):
            params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=0)
            if read_first:
                params.stage1_mlp   # draws the head before the first step
            report = train_toy(params, TrainConfig(
                stage=1, steps=2, lr=0.1, seed=0, bundles=[tiny_bundle],
                targets=[tiny_target], final_grad_check=False))
            digests.append(report.params_digest)
        assert digests[0] == digests[1]
        fresh = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=0)
        assert not np.array_equal(params.stage1_mlp.w_out,
                                  fresh.stage1_mlp.w_out)

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["deepcopy", "pickle"])
    def test_copy_before_the_draw(self, tiny_params, clone):
        twin = clone(tiny_params)
        assert "stage1_mlp" not in vars(twin)
        mine, theirs = tiny_params.stage1_mlp, twin.stage1_mlp
        assert mine is not theirs
        for name in ("w_in", "b_in", "w_out", "b_out"):
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a is not b and a.tobytes() == b.tobytes()
        assert mine.activation == theirs.activation

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["deepcopy", "pickle"])
    def test_copy_holds_no_derived_state(self, tiny_bundle, tiny_params,
                                         clone):
        mode = ("topk", 3)
        digest = params_digest(tiny_params)
        tokens = infer_forward(tiny_bundle, tiny_params, mode).tokens
        assert tiny_params._head_image is not None
        assert tiny_params._fold is not None
        twin = clone(tiny_params)
        assert not {"_fold", "_head_image", "stage1_mlp"} & set(vars(twin))
        assert params_digest(twin) == digest
        assert infer_forward(tiny_bundle, twin, mode).tokens.tobytes() == \
            tokens.tobytes()
        # a drawn head is trained state, and the copy keeps it
        tiny_params.stage1_mlp.w_out = tiny_params.stage1_mlp.w_out + 1.0
        twin = clone(tiny_params)
        assert twin.stage1_mlp.w_out.tobytes() == \
            tiny_params.stage1_mlp.w_out.tobytes()

    def test_inference_holds_no_head(self):
        # the traced peak of init plus one topk:2 forward: the params
        # without the head, plus the forward's activations (about 0.25 MiB
        # at these dims)
        m, d, c, c2 = 16, 512, 128, 96
        bundle = synth_bundle(0, 8, 8, c, c2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            params = init_projector_params(8, 8, c, c2, d, m, 2, seed=0)
            infer_forward(bundle, params, ("topk", 2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        sizes = {n: a.nbytes for n, a in params.named_tensors()}
        head = sum(v for n, v in sizes.items() if n.startswith("stage1_mlp."))
        assert head > 1 << 20
        assert peak < sum(sizes.values()) - head + (1 << 19)


def serial_weights(seed, dims):
    """{name: weight} of every gaussian weight `init_projector_params`
    draws, each as one serial Philox draw at its subseed and fan-in std."""
    c, c2, d_llm, m = dims[2:6]
    shapes = pipeline._weight_shapes(c, c2, d_llm, m, None)
    return {name: rng_for(seed * 64 + i).standard_normal(shape)
            * (1.0 / math.sqrt(shape[1]))
            for i, (name, shape) in enumerate(shapes.items())}


class TestConcurrentInit:
    """The weights of one call are drawn on a pool of threads, one per CPU
    the process may use, each bit for bit its serial draw."""

    # desk dims, and dims whose head weights span 13 and 19 row chunks
    @pytest.mark.parametrize("dims", [
        (4, 4, 8, 6, 8, 4, 2), (8, 8, 256, 192, 512, 16, 2)],
        ids=["desk", "chunks"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_every_weight_is_its_serial_draw(self, monkeypatch, dims,
                                             workers):
        on_cpus(monkeypatch, workers)
        want = serial_weights(5, dims)
        params = init_projector_params(*dims, seed=5)
        # the head as its float32 image first, then drawn in float64
        for head, dtype in ((params.digest_head(), np.float32),
                            (None, np.float64)):
            for name, arr in params.named_tensors(head):
                cast = dtype if name.startswith("stage1_mlp.") else np.float64
                expect = want.get(name, np.zeros(len(arr))).astype(cast)
                assert arr.dtype == cast and arr.tobytes() == expect.tobytes()

    # macOS and Windows have no os.sched_getaffinity: the pool takes a
    # thread per CPU of the host, or one where even that count is unknown
    @pytest.mark.parametrize("cpus", [4, None], ids=["4", "unknown"])
    def test_init_runs_without_sched_getaffinity(self, monkeypatch, cpus):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        dims = (8, 8, 256, 192, 512, 16, 2)
        want = serial_weights(5, dims)
        before = threading.active_count()
        seen = watch_draws(monkeypatch)
        params = init_projector_params(*dims, seed=5)
        eager = len(seen)
        for name, arr in params.named_tensors(None):  # draws the head
            expect = want.get(name, np.zeros(len(arr)))
            assert arr.tobytes() == expect.tobytes()
        # the eager weights and the head are two pools
        for batch in (seen[:eager], seen[eager:]):
            threads = {t for _, t in batch}
            assert batch and len(threads) <= (cpus or 1)
            assert threading.get_ident() not in threads
        assert threading.active_count() == before

    # at seed 0, weight i is drawn at subseed i: 12 is out_mlp's w_out, 9
    # the stage-1 head's w_in, which its float64 and float32 draws read
    DRAWS = {
        "init": (12, lambda: init_projector_params(4, 4, 8, 6, 8, 4, 2)),
        "head": (9, lambda: init_projector_params(4, 4, 8, 6, 8, 4,
                                                  2).stage1_mlp),
        "image": (9, lambda: init_projector_params(4, 4, 8, 6, 8, 4,
                                                   2).digest_head()),
    }

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate"), DomainError("bad sigma")],
        ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("draw", DRAWS)
    def test_a_draw_error_surfaces_unchanged(self, monkeypatch, error, draw):
        bad_seed, run = self.DRAWS[draw]
        before = threading.active_count()
        seen = watch_draws(monkeypatch, bad_seed, error)
        with pytest.raises(type(error)) as info:
            run()
        assert info.value is error
        assert bad_seed in {s for s, _ in seen}
        assert threading.get_ident() not in {t for _, t in seen}
        assert threading.active_count() == before
        monkeypatch.undo()
        run()
        assert threading.active_count() == before


def unfolded(bundle, params, mode, monkeypatch):
    """`infer_forward`'s tokens with `query_products` computed afresh, as
    the training forwards compute them."""
    with monkeypatch.context() as m:
        m.setattr(pipeline.ProjectorParams, "query_fold", query_products)
        return infer_forward(bundle, params, mode).tokens


def fold_sources(params):
    return (params.pool.q2d, params.pool.phi_k, params.resampler.queries,
            params.resampler.w_k)


class TestQueryFold:
    @pytest.mark.parametrize("shared", [False, True], ids=["phi", "shared"])
    @pytest.mark.parametrize("mode", [("topk", 1), ("topk", 2), ("topk", 3),
                                      ("threshold", 0.2)])
    def test_folded_tokens_equal_fresh_products(self, monkeypatch, mode,
                                                shared):
        params = init_projector_params(8, 8, 32, 16, 16, 16, 2, seed=5,
                                       shared_pool_phi=shared)
        bundles = [synth_bundle(20 + i, 8, 8, 32, 16) for i in range(6)]
        want = [unfolded(b, params, mode, monkeypatch) for b in bundles]
        assert params._fold is None
        # the first pass builds the fold, the second reuses it
        for _ in range(2):
            for b, w in zip(bundles, want):
                got = infer_forward(b, params, mode).tokens
                assert got.tobytes() == w.tobytes()
            fold = params._fold
            assert fold is not None
        assert params._fold is fold

    def test_write_to_a_folded_source_raises(self, tiny_bundle, tiny_params):
        infer_forward(tiny_bundle, tiny_params, ("topk", 2))
        for arr in fold_sources(tiny_params):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] += 1.0
        tiny_params.resampler.w_v[0, 0] += 1.0   # not a source

    def test_training_forwards_build_no_fold(self, tiny_bundle, tiny_params):
        stage1_forward([tiny_bundle], tiny_params)
        train_forward([tiny_bundle], tiny_params, 1.0, 0.5, 3)
        assert tiny_params._fold is None
        assert all(a.flags.writeable for a in fold_sources(tiny_params))

    @pytest.mark.parametrize("stage", [1, 2])
    def test_train_toy_after_infer(self, tiny_bundle, tiny_target, stage):
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=1)
        mode = ("topk", 3)
        before = infer_forward(tiny_bundle, params, mode).tokens
        train_toy(params, TrainConfig(
            stage=stage, steps=2, lr=0.1, seed=0, bundles=[tiny_bundle],
            targets=[tiny_target], final_grad_check=False))
        after = infer_forward(tiny_bundle, params, mode).tokens
        fresh = pipeline.ProjectorParams(**{
            f.name: copy.deepcopy(getattr(params, f.name))
            for f in dataclasses.fields(params) if f.init})
        assert after.tobytes() == \
            infer_forward(tiny_bundle, fresh, mode).tokens.tobytes()
        assert not np.array_equal(after, before)

    def test_replaced_or_thawed_field_rebuilds_the_fold(
            self, tiny_bundle, tiny_params, monkeypatch):
        mode = ("topk", 3)
        infer_forward(tiny_bundle, tiny_params, mode)
        # a writeable copy in another memory order
        tiny_params.pool.phi_k = np.asfortranarray(tiny_params.pool.phi_k)
        tiny_params.pool.phi_k[0, 0] += 0.5
        # a read-only array: the identity check alone catches it
        swapped = tiny_params.resampler.w_k + 0.25
        swapped.setflags(write=False)
        tiny_params.resampler.w_k = swapped
        got = infer_forward(tiny_bundle, tiny_params, mode).tokens
        assert got.tobytes() == \
            unfolded(tiny_bundle, tiny_params, mode, monkeypatch).tobytes()
        assert tiny_params._fold[0] == fold_sources(tiny_params)
        assert not tiny_params.pool.phi_k.flags.writeable
        # the same array, made writeable and written
        tiny_params.pool.q2d.setflags(write=True)
        tiny_params.pool.q2d[1] = 0.0
        got = infer_forward(tiny_bundle, tiny_params, mode).tokens
        assert got.tobytes() == \
            unfolded(tiny_bundle, tiny_params, mode, monkeypatch).tobytes()

    def test_deepcopy_of_folded_params(self, tiny_bundle, tiny_params,
                                       monkeypatch):
        mode = ("topk", 3)
        base = infer_forward(tiny_bundle, tiny_params, mode).tokens
        twin = copy.deepcopy(tiny_params)
        twin.resampler.queries[0, 0] += 1.0
        twin.pool.q2d[2, 1] -= 1.0
        got = infer_forward(tiny_bundle, twin, mode).tokens
        assert got.tobytes() == \
            unfolded(tiny_bundle, twin, mode, monkeypatch).tobytes()
        assert not np.array_equal(got, base)
        assert infer_forward(tiny_bundle, tiny_params, mode).tokens.tobytes() \
            == base.tobytes()

    def test_train_toy_on_unpickled_folded_params(self, tiny_bundle,
                                                  tiny_params, tiny_target):
        # protocol 5 unpickles a read-only array as a view of read-only
        # bytes, which numpy cannot make writeable again
        infer_forward(tiny_bundle, tiny_params, ("topk", 3))
        twin = pickle.loads(pickle.dumps(tiny_params, protocol=5))
        assert not twin.pool.q2d.flags.writeable
        config = TrainConfig(stage=1, steps=2, lr=0.1, seed=0,
                             bundles=[tiny_bundle], targets=[tiny_target],
                             final_grad_check=False)
        want = train_toy(copy.deepcopy(tiny_params), config).params_digest
        assert train_toy(twin, config).params_digest == want
        assert all(a.flags.writeable for a in fold_sources(twin))

    def test_infer_branches_go_through_run_branch(self, tiny_bundle,
                                                  tiny_params, monkeypatch):
        # span tracers name a branch's span from `_run_branch`'s first
        # argument; the fold rides along as its last
        seen = []
        real = pipeline._run_branch

        def spy(*args):
            seen.append((args[0], args[-1] is tiny_params._fold[1]))
            return real(*args)

        monkeypatch.setattr(pipeline, "_run_branch", spy)
        for _ in range(2):
            infer_forward(tiny_bundle, tiny_params, ("topk", 3))
        assert seen == [(name, True) for name in BRANCHES] * 2


class TestParamsVector:
    def test_layout_covers_vector(self, tiny_params):
        vec, layout = params_to_vector(tiny_params)
        total = sum(sl.stop - sl.start for sl, _ in layout.values())
        assert total == vec.size


def test_init_rejects_inconsistent_geometry():
    with pytest.raises(ShapeError):
        init_projector_params(4, 4, 8, 6, 8, m_tokens=5, stride=2)
    with pytest.raises(ShapeError):
        init_projector_params(5, 4, 8, 6, 8, m_tokens=4, stride=2)


@pytest.mark.parametrize("dims,router_hidden", [
    ((4, 4, 8, 6, 8, 4, 2), None),
    ((4, 4, 8, 6, 11, 4, 2), 3),
    ((6, 6, 5, 2, 8, 4, 3), None)], ids=["tiny", "hidden-3", "6x6"])
def test_params_nbytes_counts_the_drawn_weights(dims, router_hidden):
    params = init_projector_params(*dims, router_hidden=router_hidden)
    c, c2, d_llm, m = dims[2:6]

    def weight_bytes(head, in_head):
        # every tensor but the zero biases, in the head or out of it
        return sum(arr.nbytes for name, arr in params.named_tensors(head)
                   if name.startswith("stage1_mlp.") == in_head
                   and not name.split(".")[1].startswith("b"))

    rest = params_nbytes(c, c2, d_llm, m, router_hidden, head_itemsize=0)
    assert rest == weight_bytes(params.digest_head(), False)
    assert params_nbytes(c, c2, d_llm, m, router_hidden, 4) == (
        rest + weight_bytes(params.digest_head(), True))
    assert params_nbytes(c, c2, d_llm, m, router_hidden, 8) == (
        rest + weight_bytes(params.stage1_mlp, True))
