import copy
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from qmop import (branches, init_projector_params, pipeline, router,
                  stage1_forward, synth_bundle, trainer)
from qmop.linalg import ShapeError, grad_check, seeded_fill
from qmop.pipeline import forward
from qmop.router import BRANCHES
from qmop.trainer import (
    DIGEST_CHUNK,
    AnnealSchedule,
    DivergenceError,
    GradDict,
    TrainConfig,
    backward,
    float32_digest,
    gradcheck_params,
    gumbel_scale_at,
    params_digest,
    tau_at,
    train_toy,
)

TOL = 1e-4
# the tensors each mode's backward reaches, by name prefix
STAGE1_REACHES = ("resampler.", "pool.", "stage1_mlp.")
TRAIN_REACHES = ("resampler.", "pool.", "router.", "out_mlp.")


def make_params(seed=0):
    return init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=seed)


def make_batch(seed, n=4):
    bundles = [synth_bundle(seed * 100 + i, 4, 4, 8, 6) for i in range(n)]
    targets = [seeded_fill(seed * 100 + 50 + i, 4, 8) for i in range(n)]
    return bundles, targets


def batch_gradcheck(bundles, params, targets, mode):
    """`gradcheck_params` over a batch: per-tensor `grad_check` of the
    batch-mean loss against `backward`'s batch gradients, every tensor
    checked (an unreached one against zeros) on a deep copy of `params`."""
    grads = GradDict()
    backward(bundles, params, targets, mode, grads)
    work = copy.deepcopy(params)

    def loss():
        return trainer._residual_loss(forward(bundles, work, mode).tokens,
                                      targets)

    return {name: grad_check(loss, arr, grads.get(name, np.zeros(arr.shape)))
            for name, arr in work.named_tensors()}


class TestSchedules:
    def test_tau_step_zero(self):
        s = AnnealSchedule(tau0=2.0, tau_min=0.1, decay=0.5)
        assert tau_at(s, 0) == 2.0

    def test_tau_floor(self):
        s = AnnealSchedule(tau0=2.0, tau_min=0.1, decay=0.5)
        assert tau_at(s, 10) == pytest.approx(0.1)
        assert tau_at(s, 10_000) == pytest.approx(0.1)

    def test_tau_monotone(self):
        s = AnnealSchedule()
        vals = [tau_at(s, k) for k in range(500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert min(vals) >= s.tau_min

    def test_gumbel_step_zero(self):
        s = AnnealSchedule(gumbel0=1.0, gumbel_decay=0.9)
        assert gumbel_scale_at(s, 0) == 1.0

    def test_gumbel_hand_value(self):
        s = AnnealSchedule(gumbel0=1.0, gumbel_decay=0.9)
        assert gumbel_scale_at(s, 22) == pytest.approx(0.0985, abs=5e-4)

    def test_gumbel_monotone(self):
        s = AnnealSchedule()
        vals = [gumbel_scale_at(s, k) for k in range(500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            AnnealSchedule(tau0=0.1, tau_min=0.5)
        with pytest.raises(ValueError):
            AnnealSchedule(decay=1.5)
        with pytest.raises(ValueError):
            AnnealSchedule(gumbel0=-1.0)
        assert AnnealSchedule(gumbel0=0.0).gumbel0 == 0.0


def loss_of(output, target):
    """`_residual_loss` of one sample, on a copy of `output`, which the
    loss turns into its gradient."""
    return trainer._residual_loss(output.copy(), [target])


class TestLoss:
    def test_zero_at_target(self):
        t = seeded_fill(0, 3, 3)
        assert loss_of(t, t) == 0.0

    def test_unit_offset(self):
        t = seeded_fill(0, 3, 3)
        assert loss_of(t + 1.0, t) == pytest.approx(1.0)

    def test_hand_mse(self):
        # diffs (0.1, 0.2, 0.3, 0.4): mean of squares = 0.3 / 4
        out = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert loss_of(out, np.zeros((2, 2))) == pytest.approx(0.075)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_of(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_batch_mean_of_sample_losses(self):
        # each sample's mean of squares, summed in batch order over 3
        targets = [seeded_fill(10 + i, 4, 5) for i in range(3)]
        tokens = seeded_fill(20, 12, 5)
        want = sum(float(np.mean((out - t) * (out - t))) for out, t in
                   zip(np.split(tokens, 3), targets)) / 3
        assert trainer._residual_loss(tokens.copy(), targets) == want

    def test_last_target_shape_checked_before_any_write(self):
        targets = [seeded_fill(10 + i, 4, 5) for i in range(2)]
        targets.append(np.zeros((4, 6)))
        tokens = seeded_fill(20, 12, 5)
        before = tokens.copy()
        with pytest.raises(ShapeError):
            trainer._residual_loss(tokens, targets)
        assert tokens.tobytes() == before.tobytes()


class TestBackward:
    def test_zero_gradient_at_target(self, tiny_bundle, tiny_params):
        target = stage1_forward([tiny_bundle], tiny_params).tokens
        grads = GradDict()
        loss, _ = backward([tiny_bundle], tiny_params, [target], ("stage1",),
                           grads)
        assert loss <= 1e-20
        for g in grads.values():
            assert np.max(np.abs(g)) <= 1e-10

    def test_stage1_router_grads_exactly_zero(self, tiny_bundle, tiny_params,
                                              tiny_target):
        # a tensor the mode does not reach has no gradient entry at all
        grads = GradDict()
        _, gate = backward([tiny_bundle], tiny_params, [tiny_target],
                           ("stage1",), grads)
        assert gate is None
        assert set(grads) == {name for name, _ in tiny_params.named_tensors()
                              if name.startswith(STAGE1_REACHES)}

    def test_train_stage1_mlp_grads_zero(self, tiny_bundle, tiny_params,
                                         tiny_target):
        grads = GradDict()
        _, gate = backward([tiny_bundle], tiny_params, [tiny_target],
                           ("train", 1.0, 0.0, 0), grads)
        assert gate.alpha.shape == (1, len(BRANCHES))
        assert set(grads) == {name for name, _ in tiny_params.named_tensors()
                              if name.startswith(TRAIN_REACHES)}

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 0)])
    def test_reached_grads_own_their_memory(self, tiny_bundle, tiny_params,
                                            tiny_target, mode):
        # train_toy computes each new tensor in its gradient's array
        grads = GradDict()
        _, gate = backward([tiny_bundle], tiny_params, [tiny_target], mode,
                           grads)
        tensors = dict(tiny_params.named_tensors())
        held = list(tensors.values()) + [
            tiny_bundle.patches, tiny_bundle.cls_token, tiny_bundle.eos_token,
            tiny_target]
        if gate is not None:
            held += [gate.alpha, gate.f, gate.h1, gate.a1]
        reached = list(grads.values())
        for name, grad in grads.items():
            assert grad.shape == tensors[name].shape, name
            assert grad.flags.writeable, name
            others = held + [g for g in reached if g is not grad]
            assert not any(np.shares_memory(grad, o) for o in others), name

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 0)])
    def test_gradcheck_covers_unreached_tensors(self, tiny_bundle,
                                                tiny_params, tiny_target,
                                                mode):
        # a tensor backward does not reach is checked against zeros
        report = gradcheck_params(tiny_bundle, tiny_params, tiny_target, mode)
        assert list(report) == [n for n, _ in tiny_params.named_tensors()]
        assert max(report.values()) <= TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_gradcheck_stage1(self, seed):
        params = make_params(seed)
        bundle = synth_bundle(seed, 4, 4, 8, 6)
        target = seeded_fill(seed + 500, 4, 8)
        report = gradcheck_params(bundle, params, target, ("stage1",))
        assert max(report.values()) <= TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_gradcheck_train(self, seed):
        params = make_params(seed)
        bundle = synth_bundle(seed, 4, 4, 8, 6)
        target = seeded_fill(seed + 500, 4, 8)
        report = gradcheck_params(bundle, params, target,
                                  ("train", 1.3, 0.7, seed))
        assert max(report.values()) <= TOL

    def test_gradcheck_shared_phi(self):
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=1,
                                       shared_pool_phi=True)
        bundle = synth_bundle(1, 4, 4, 8, 6)
        target = seeded_fill(42, 4, 8)
        report = gradcheck_params(bundle, params, target,
                                  ("train", 1.0, 0.0, 0))
        assert max(report.values()) <= TOL

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 6)])
    def test_gradcheck_stride3(self, mode):
        # 6x6 grid at stride 3: nine cells per pool window
        params = init_projector_params(6, 6, 8, 6, 8, 4, 3, seed=6)
        bundle = synth_bundle(6, 6, 6, 8, 6)
        target = seeded_fill(506, 4, 8)
        report = gradcheck_params(bundle, params, target, mode)
        assert max(report.values()) <= TOL

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 8)])
    def test_gradcheck_resampler_6x6(self, mode):
        # 6x6 grid at stride 2: nine queries over 36 tokens
        params = init_projector_params(6, 6, 8, 6, 8, 9, 2, seed=8)
        bundle = synth_bundle(8, 6, 6, 8, 6)
        target = seeded_fill(508, 9, 8)
        grads = GradDict()
        backward([bundle], params, [target], mode, grads)

        def loss():
            tokens = forward([bundle], params, mode).tokens
            return trainer._residual_loss(tokens, [target])

        for attr in ("queries", "w_k", "w_v"):
            err = grad_check(loss, getattr(params.resampler, attr),
                             grads[f"resampler.{attr}"])
            assert err <= TOL, attr

    def test_gradcheck_relu(self):
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=2,
                                       activation="relu")
        bundle = synth_bundle(2, 4, 4, 8, 6)
        target = seeded_fill(43, 4, 8)
        report = gradcheck_params(bundle, params, target, ("stage1",))
        assert max(report.values()) <= TOL

    @staticmethod
    def assert_every_mutation_caught(bundle, params, target, monkeypatch,
                                     mode, mutate):
        # a backward that applies `mutate` to every reached tensor's
        # gradient while every loss stays finite: each tensor's residual
        # reads only its own analytic gradient, so one check covers them all
        real = trainer.backward
        reached = set()

        def mutated_backward(*args):
            loss, gate = real(*args)
            for name, grad in args[-1].items():
                mutate(grad)
                reached.add(name)
            return loss, gate

        monkeypatch.setattr(trainer, "backward", mutated_backward)
        report = gradcheck_params(bundle, params, target, mode)
        prefixes = STAGE1_REACHES if mode[0] == "stage1" else TRAIN_REACHES
        assert reached == {n for n in report if n.startswith(prefixes)}
        assert trainer.over_bound(report) == sorted(reached)
        assert all(report[n] == 0.0 for n in report if n not in reached)

    def test_gradcheck_never_draws_the_callers_head(self, tiny_bundle,
                                                    tiny_params, tiny_target):
        gradcheck_params(tiny_bundle, tiny_params, tiny_target, ("stage1",))
        assert "stage1_mlp" not in vars(tiny_params)

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 4)])
    def test_gradcheck_fails_a_nan_gradient(self, tiny_bundle, tiny_params,
                                            tiny_target, monkeypatch, mode):
        def nan_one(grad):
            grad.flat[grad.size // 2] = np.nan

        self.assert_every_mutation_caught(tiny_bundle, tiny_params,
                                          tiny_target, monkeypatch, mode,
                                          nan_one)

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 4)])
    def test_gradcheck_fails_a_sign_flipped_gradient(
            self, tiny_bundle, tiny_params, tiny_target, monkeypatch, mode):
        self.assert_every_mutation_caught(tiny_bundle, tiny_params,
                                          tiny_target, monkeypatch, mode,
                                          lambda grad: np.negative(grad,
                                                                   out=grad))

    def test_gradcheck_fortran_order_tensor(self, tiny_bundle, tiny_params,
                                            tiny_target):
        # the check perturbs each tensor through `arr.flat`, which writes
        # through a Fortran-order tensor where a reshaped copy would not
        tiny_params.pool.phi_k = np.asfortranarray(tiny_params.pool.phi_k)
        before = copy.deepcopy(tiny_params)
        for mode in (("stage1",), ("train", 1.3, 0.7, 4)):
            report = gradcheck_params(tiny_bundle, tiny_params, tiny_target,
                                      mode)
            for name, err in report.items():
                assert err <= TOL, (mode, name)
        for (name, old), (_, new) in zip(before.named_tensors(),
                                         tiny_params.named_tensors()):
            assert np.array_equal(old, new), name
        assert tiny_params.pool.phi_k.flags.f_contiguous

    @pytest.mark.parametrize("check", [
        lambda b, p, t, mode: backward([b], p, [t], mode, GradDict()),
        gradcheck_params],
        ids=["backward", "gradcheck_params"])
    @pytest.mark.parametrize("mode", [("topk", 2), ("threshold", 0.3),
                                      ("bogus",)])
    def test_unknown_backward_mode(self, tiny_bundle, tiny_params,
                                   tiny_target, branch_calls, check, mode):
        # the infer modes have a forward but no backward
        with pytest.raises(ValueError, match="unknown backward mode"):
            check(tiny_bundle, tiny_params, tiny_target, mode)
        assert branch_calls == {}

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 3)])
    def test_layers_called_through_module_attributes(
            self, tiny_bundle, tiny_params, tiny_target, spy, branch_calls,
            mode):
        # span tracers time a layer by patching its module attribute; a
        # call that bypassed the attribute would time that layer as zero
        pool = spy(trainer, "_pool_backward")
        res = spy(trainer, "_resample_backward")
        attend = spy(branches, "_attend")   # pool's and resample's one core
        # and their one backward onto the query, key and value weights
        weights = spy(trainer, "_attend_params_backward")
        backward([tiny_bundle], tiny_params, [tiny_target], mode, GradDict())
        assert branch_calls == dict.fromkeys(BRANCHES, 1)
        assert pool["_pool_backward"] == 1
        assert res["_resample_backward"] == 1
        assert attend["_attend"] == 2
        assert weights["_attend_params_backward"] == 2

        # one train_toy step over a batch of 3 is one forward and one
        # backward, with each branch and (stage 2) the gate run once over
        # the stacked batch
        stage = 1 if mode[0] == "stage1" else 2
        forward = spy(pipeline, "stage1_forward" if stage == 1
                      else "train_forward")
        step = spy(trainer, "backward")
        gate = spy(router, "gate_forward")
        for calls in (branch_calls, pool, res, attend, weights):
            calls.clear()
        bundles, targets = make_batch(3, n=3)
        train_toy(tiny_params, TrainConfig(
            stage=stage, steps=1, lr=0.1, seed=3, bundles=bundles,
            targets=targets, final_grad_check=False))
        assert sum(forward.values()) == 1
        assert step["backward"] == 1
        assert gate["gate_forward"] == (stage == 2)
        assert branch_calls == dict.fromkeys(BRANCHES, 1)
        assert pool["_pool_backward"] == 1
        assert res["_resample_backward"] == 1
        assert attend["_attend"] == 2
        assert weights["_attend_params_backward"] == 2

        # infer runs `_attend` once per active pool or resample branch
        for k in range(1, len(BRANCHES) + 1):
            attend.clear()
            active = pipeline.infer_forward(tiny_bundle, tiny_params,
                                            ("topk", k)).active
            assert attend["_attend"] == len({"pool", "resample"}
                                            & set(active.members))

    @pytest.mark.parametrize("stage", [1, 2])
    def test_gradcheck_batch_of_three(self, stage):
        # the stacking and the batch sums over d_qk only run when B > 1
        params = make_params(10)
        bundles, targets = make_batch(10, n=3)
        mode = ("stage1",) if stage == 1 else ("train", 1.3, 0.7, 4)
        report = batch_gradcheck(bundles, params, targets, mode)
        assert max(report.values()) <= TOL

    def test_gradcheck_batch_shared_phi(self):
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=11,
                                       shared_pool_phi=True)
        bundles, targets = make_batch(11, n=2)
        report = batch_gradcheck(bundles, params, targets,
                                 ("train", 1.0, 0.3, 1))
        assert max(report.values()) <= TOL

    @pytest.mark.parametrize("mode", [("stage1",), ("train", 1.3, 0.7, 0)])
    def test_wrong_target_shape_raises(self, tiny_bundle, tiny_params, mode):
        # a (1, D) target would broadcast against the (M, D) output
        with pytest.raises(ShapeError):
            backward([tiny_bundle], tiny_params, [np.zeros((1, 8))], mode,
                     GradDict())

    def test_batch_needs_one_target_per_bundle(self, tiny_params):
        bundles, targets = make_batch(12, n=2)
        with pytest.raises(ShapeError):
            backward(bundles, tiny_params, targets[:1], ("stage1",),
                     GradDict())

    def test_loss_smooth_below_score_gap(self, tiny_bundle, tiny_params,
                                         tiny_target):
        # perturbations too small to flip kept indices change loss smoothly;
        # the gradcheck above is exactly that consistency, so just confirm a
        # small parameter nudge moves the loss by O(delta)
        base, _ = backward([tiny_bundle], tiny_params, [tiny_target],
                           ("stage1",), GradDict())
        tiny_params.resampler.queries[0, 0] += 1e-7
        nudged, _ = backward([tiny_bundle], tiny_params, [tiny_target],
                             ("stage1",), GradDict())
        assert abs(nudged - base) < 1e-5


class TestTrainToy:
    @pytest.mark.parametrize("n_bundles,n_targets", [(2, 1), (1, 2), (0, 0)])
    def test_needs_equal_nonzero_bundles_and_targets(self, n_bundles,
                                                     n_targets):
        bundles, targets = make_batch(0, n=2)
        with pytest.raises(ValueError, match="equal, nonzero"):
            train_toy(make_params(), TrainConfig(
                stage=1, steps=1, lr=0.1, seed=0, bundles=bundles[:n_bundles],
                targets=targets[:n_targets], final_grad_check=False))

    def test_zero_lr_constant_loss(self):
        bundles, targets = make_batch(0)
        report = train_toy(make_params(), TrainConfig(
            stage=1, steps=5, lr=0.0, seed=0, bundles=bundles,
            targets=targets, final_grad_check=False))
        assert len(set(report.losses)) == 1

    def test_stage1_halves_loss(self):
        bundles, targets = make_batch(0)
        report = train_toy(make_params(), TrainConfig(
            stage=1, steps=200, lr=0.1, seed=0, bundles=bundles,
            targets=targets, final_grad_check=False))
        assert report.losses[-1] < 0.5 * report.losses[0]
        assert len(report.losses) == 200

    def test_deterministic_digests(self):
        reports = []
        for _ in range(2):
            bundles, targets = make_batch(3)
            reports.append(train_toy(make_params(3), TrainConfig(
                stage=2, steps=20, lr=0.1, seed=3, bundles=bundles,
                targets=targets, final_grad_check=False)))
        assert reports[0].params_digest == reports[1].params_digest
        assert reports[0].losses == reports[1].losses

    def test_stage1_never_touches_router(self):
        params = make_params(5)
        router_before = [t.copy() for n, t in params.named_tensors()
                         if n.startswith("router.")]
        bundles, targets = make_batch(5)
        train_toy(params, TrainConfig(
            stage=1, steps=30, lr=0.1, seed=5, bundles=bundles,
            targets=targets, final_grad_check=False))
        router_after = [t for n, t in params.named_tensors()
                        if n.startswith("router.")]
        for a, b in zip(router_before, router_after):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stage,untrained", [
        (1, ("router.", "out_mlp.", "relevance.")),
        (2, ("stage1_mlp.", "relevance."))])
    def test_untrained_tensors_bit_identical(self, stage, untrained):
        params = make_params(6)
        before = {n: t.copy() for n, t in params.named_tensors()}
        bundles, targets = make_batch(6, n=3)
        train_toy(params, TrainConfig(
            stage=stage, steps=4, lr=0.1, seed=6, bundles=bundles,
            targets=targets, final_grad_check=False))
        for name, arr in params.named_tensors():
            if name.startswith(untrained):
                assert arr.tobytes() == before[name].tobytes(), name
            else:
                assert not np.array_equal(arr, before[name]), name

    @pytest.mark.parametrize("stage", [1, 2])
    def test_trains_read_only_params(self, stage):
        # training first replaces each read-only tensor it updates by a
        # writeable copy, so params whose every tensor is read-only train
        # as a writeable twin does
        frozen, twin = make_params(8), make_params(8)
        for _, arr in frozen.named_tensors():
            arr.setflags(write=False)
        bundles, targets = make_batch(8, n=2)
        config = TrainConfig(stage=stage, steps=3, lr=0.1, seed=8,
                             bundles=bundles, targets=targets,
                             final_grad_check=True)
        report = train_toy(frozen, config)
        assert report.params_digest == train_toy(twin, config).params_digest
        assert report.grad_check_max_rel_err <= TOL

    @pytest.mark.parametrize("stage", [1, 2])
    def test_read_only_mlp_weight_keeps_its_values(self, stage):
        # an MLP weight is updated in place, a row block at a time: the
        # caller's writeable w_in is the array trained, while its read-only
        # w_out is first replaced, once, by a writeable copy and keeps its
        # values
        params, twin = make_params(17), make_params(17)
        mlp = params.stage1_mlp if stage == 1 else params.out_mlp
        frozen, held = mlp.w_out, mlp.w_in
        frozen.setflags(write=False)
        values = frozen.copy(), held.copy()
        bundles, targets = make_batch(17, n=2)
        config = TrainConfig(stage=stage, steps=1, lr=0.1, seed=17,
                             bundles=bundles, targets=targets,
                             final_grad_check=False)
        train_toy(params, config)
        copied = mlp.w_out
        train_toy(params, config)
        assert frozen.tobytes() == values[0].tobytes()
        assert not frozen.flags.writeable
        assert mlp.w_out is copied and copied is not frozen
        assert mlp.w_in is held
        assert not np.array_equal(held, values[1])
        for _ in range(2):
            train_toy(twin, config)
        assert params_digest(params) == params_digest(twin)

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_trains_every_tensor_in_place(self, stage, shared):
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=18,
                                       shared_pool_phi=shared)
        bundles, targets = make_batch(18, n=2)
        config = TrainConfig(stage=stage, steps=2, lr=0.1, seed=18,
                             bundles=bundles, targets=targets,
                             final_grad_check=False)
        reached = GradDict()
        backward(bundles, copy.deepcopy(params), targets,
                 step_mode(stage, 18), reached)
        held = {name: (arr, arr.copy()) for name, arr in
                params.named_tensors()}
        train_toy(params, config)
        for name, arr in params.named_tensors():
            assert arr is held[name][0], name
            assert np.array_equal(arr, held[name][1]) != (name in reached), \
                name
        # inference leaves the four fold sources read-only: the next step
        # trains one writeable copy of each, and the caller's arrays keep
        # their values and flags
        mode = ("topk", 2)
        pipeline.infer_forward(bundles[0], params, mode)
        sources = {name: (arr, arr.copy()) for name, arr in
                   params.named_tensors() if not arr.flags.writeable}
        assert sorted(sources) == ["pool.phi_k", "pool.q2d",
                                   "resampler.queries", "resampler.w_k"]
        train_toy(params, config)
        copies = dict(params.named_tensors())
        for name, (arr, values) in sources.items():
            assert copies[name] is not arr and copies[name].flags.writeable
            assert arr.tobytes() == values.tobytes(), name
            assert not arr.flags.writeable, name
        train_toy(params, config)
        for name, arr in params.named_tensors():
            assert arr is copies[name], name
        # the next inference folds the trained copies afresh
        got = pipeline.infer_forward(bundles[0], params, mode).tokens
        fresh = copy.deepcopy(params)
        assert fresh._fold is None
        want = pipeline.infer_forward(bundles[0], fresh, mode).tokens
        assert got.tobytes() == want.tobytes()

    def test_stage2_tau_trace_matches_schedule(self):
        bundles, targets = make_batch(1)
        sched = AnnealSchedule()
        report = train_toy(make_params(1), TrainConfig(
            stage=2, steps=25, lr=0.05, seed=1, bundles=bundles,
            targets=targets, schedule=sched, final_grad_check=False))
        assert report.tau_trace == [tau_at(sched, k) for k in range(25)]
        assert report.gumbel_trace == [gumbel_scale_at(sched, k)
                                       for k in range(25)]

    def test_final_grad_check_reported(self):
        bundles, targets = make_batch(2, n=1)
        report = train_toy(make_params(2), TrainConfig(
            stage=2, steps=5, lr=0.05, seed=2, bundles=bundles,
            targets=targets, final_grad_check=True))
        assert report.grad_check_max_rel_err is not None
        assert report.grad_check_max_rel_err <= TOL

    def test_divergence_raises_with_step(self):
        bundles, targets = make_batch(4)
        with pytest.raises(DivergenceError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            train_toy(make_params(4), TrainConfig(
                stage=1, steps=50, lr=1e9, seed=4, bundles=bundles,
                targets=targets, final_grad_check=False))
        assert err.value.step >= 1

    @pytest.mark.parametrize("stage", [1, 2])
    def test_vector_targets_raise(self, stage):
        bundles, _ = make_batch(13, n=2)
        targets = [seeded_fill(70 + i, 1, 8)[0] for i in range(2)]  # (D,)
        with pytest.raises(ShapeError):
            train_toy(make_params(13), TrainConfig(
                stage=stage, steps=1, lr=0.1, seed=13, bundles=bundles,
                targets=targets, final_grad_check=False))

    def test_entropy_mostly_nonincreasing(self):
        wins = 0
        for seed in range(10):
            bundles, targets = make_batch(seed)
            report = train_toy(make_params(seed), TrainConfig(
                stage=2, steps=200, lr=0.1, seed=seed, bundles=bundles,
                targets=targets, final_grad_check=False))
            wins += report.final_gate_entropy <= report.first_gate_entropy
        assert wins >= 8


def step_mode(stage, seed):
    """The mode train_toy's step 0 runs a batch in."""
    sched = AnnealSchedule()
    return ("stage1",) if stage == 1 else (
        "train", tau_at(sched, 0), gumbel_scale_at(sched, 0), seed * 1000003)


def summed_backwards(params, bundles, targets, stage, seed):
    """Step 0's losses and gradients as batch-of-one backward() calls,
    summed over the batch, sample i at the batch's gate-noise seed plus i,
    as train_toy's batch draws it."""
    loss_sum, total = 0.0, {}
    for i, (bundle, target) in enumerate(zip(bundles, targets)):
        mode = step_mode(stage, seed)
        if stage == 2:
            mode = mode[:3] + (mode[3] + i,)
        grads = GradDict()
        loss, _ = backward([bundle], params, [target], mode, grads)
        loss_sum += loss
        for name in grads:
            if name in total:
                total[name] += grads[name]
            else:
                total[name] = grads[name]
    return loss_sum, total


def reference_step(params, bundles, targets, stage, lr, seed):
    """Step 0 of train_toy written out: sum the per-sample gradients that
    backward() hands over, then scale and subtract them."""
    tensors = dict(params.named_tensors())
    _, total = summed_backwards(params, bundles, targets, stage, seed)
    for name, acc in total.items():
        acc *= lr
        acc /= len(bundles)
        tensors[name] -= acc


class TestOneGradientSet:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_step_bit_identical_to_summed_backwards(self, stage, shared):
        # a batch of one runs exactly the arithmetic of one sample
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=9,
                                       shared_pool_phi=shared)
        expected = copy.deepcopy(params)
        bundles, targets = make_batch(9, n=1)
        train_toy(params, TrainConfig(
            stage=stage, steps=1, lr=0.1, seed=9, bundles=bundles,
            targets=targets, final_grad_check=False))
        reference_step(expected, bundles, targets, stage, 0.1, 9)
        for (name, got), (_, want) in zip(params.named_tensors(),
                                          expected.named_tensors()):
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_step_matches_summed_backwards(self, stage, shared):
        # B > 1 sums over the stacked rows in another order than summing
        # per-sample gradients, so the two agree to rounding, not to the bit
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=9,
                                       shared_pool_phi=shared)
        bundles, targets = make_batch(9, n=3)
        grads = GradDict()
        loss, _ = backward(bundles, params, targets, step_mode(stage, 9),
                           grads)
        loss_sum, total = summed_backwards(params, bundles, targets, stage, 9)
        assert set(grads) == set(total)
        assert loss == pytest.approx(loss_sum / 3, rel=1e-12, abs=0)
        for name, acc in total.items():
            want = acc / 3
            err = np.max(np.abs(grads[name] - want))
            assert err <= 1e-12 * np.max(np.abs(want)), name
        # the step subtracts exactly lr times that gradient, and leaves the
        # tensors the stage does not reach as they were
        before = {name: arr.copy() for name, arr in params.named_tensors()}
        train_toy(params, TrainConfig(
            stage=stage, steps=1, lr=0.1, seed=9, bundles=bundles,
            targets=targets, final_grad_check=False))
        for name, arr in params.named_tensors():
            want = before[name] - grads[name] * 0.1 if name in grads \
                else before[name]
            assert np.array_equal(arr, want), name

    @pytest.mark.parametrize("stage", [1, 2])
    def test_traced_peak_grows_by_activations_only(self, stage):
        # a step traced from its start holds the new tensors its update
        # builds and the batch's stacked activations: one more sample may
        # add its own rows to those, but never a gradient set of its own
        m, d, c, c2, n = 16, 512, 128, 96, 64
        bundles = [synth_bundle(i, 8, 8, c, c2) for i in range(4)]
        targets = [seeded_fill(50 + i, m, d) for i in range(4)]

        def step_peak(batch):
            params = init_projector_params(8, 8, c, c2, d, m, 2, seed=0)
            config = TrainConfig(
                stage=stage, steps=1, lr=0.1, seed=0, bundles=bundles[:batch],
                targets=targets[:batch], final_grad_check=False)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train_toy(params, config)
                return tracemalloc.get_traced_memory()[1] - base, params
            finally:
                tracemalloc.stop()

        peak1, params = step_peak(1)
        # float64 bytes one sample adds to the stacked activations: its M
        # rows through the MLP (input, hidden, activation) and at its output
        # (tokens, target, residual, d_y), its N patches twice (pool windows,
        # prune's stacked input), their text projection and resample's
        # M x N attention
        width = c * len(BRANCHES) if stage == 1 else c
        per_sample = 8 * (3 * m * width + 4 * m * d + 2 * n * c + n * c2
                          + m * n)
        mode = ("stage1",) if stage == 1 else ("train", 1.0, 0.0, 0)
        grads = GradDict()
        backward(bundles[:1], params, targets[:1], mode, grads)
        grad_set = sum(grad.nbytes for grad in grads.values())
        assert per_sample < grad_set
        assert step_peak(4)[0] - peak1 <= 3 * per_sample

    def test_stage2_peak_stays_below_the_float64_head(self):
        # the head is most of the params at these dims. Fresh params and a
        # stage-2 step on them, whose report hashes the head's float32
        # image (half its bytes) and never draws the head, peak at less
        # than the head's bytes beyond the other tensors
        m, d, c, c2 = 16, 8192, 128, 96
        config = TrainConfig(
            stage=2, steps=1, lr=0.1, seed=0,
            bundles=[synth_bundle(0, 8, 8, c, c2)],
            targets=[seeded_fill(50, m, d)], final_grad_check=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            params = init_projector_params(8, 8, c, c2, d, m, 2, seed=0)
            train_toy(params, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        sizes = {name: arr.nbytes for name, arr in params.named_tensors()}
        head = sum(v for name, v in sizes.items()
                   if name.startswith("stage1_mlp."))
        assert head > 24 << 20
        assert peak < sum(sizes.values())

    @pytest.mark.parametrize("stage", [1, 2])
    def test_step_peak_stays_below_its_gradient_set(self, stage):
        # backward hands each gradient to the update once its tensor's last
        # read is done, so a step never holds every gradient at once. The
        # first step is traced too, so that the tensors the second replaces
        # count as freed; it also draws the head (stage 1) or hashes the
        # head's float32 image (stage 2), which the second reuses
        m, d, c, c2 = 16, 2048, 256, 192
        bundles = [synth_bundle(i, 8, 8, c, c2) for i in range(2)]
        targets = [seeded_fill(50 + i, m, d) for i in range(2)]
        params = init_projector_params(8, 8, c, c2, d, m, 2, seed=0)
        grads = GradDict()
        backward(bundles, params, targets, step_mode(stage, 0), grads)
        grad_set = sum(grad.nbytes for grad in grads.values())
        del grads
        config = TrainConfig(stage=stage, steps=1, lr=0.1, seed=0,
                             bundles=bundles, targets=targets,
                             final_grad_check=False)
        tracemalloc.start()
        try:
            train_toy(params, config)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_toy(params, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < grad_set

    @pytest.mark.parametrize("stage", [1, 2])
    def test_residual_holds_no_second_output(self, stage, monkeypatch):
        # backward turns the forward's output tokens into the residual, and
        # then into d loss / d tokens, in their own buffer, a sample's rows
        # at a time: from forward's return to the MLP backward it never
        # holds another B*M x D_llm array beside them
        m, d, c, c2, batch = 16, 8192, 16, 12, 2
        params = init_projector_params(8, 8, c, c2, d, m, 2, seed=0)
        bundles = [synth_bundle(i, 8, 8, c, c2) for i in range(batch)]
        targets = [seeded_fill(50 + i, m, d) for i in range(batch)]
        run_forward, mlp_backward = pipeline.forward, trainer._mlp_backward
        seen = {}

        def forward_then_reset(*args):
            out = run_forward(*args)
            seen["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return out

        def read_peak(*args):
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return mlp_backward(*args)

        monkeypatch.setattr(pipeline, "forward", forward_then_reset)
        monkeypatch.setattr(trainer, "_mlp_backward", read_peak)
        tracemalloc.start()
        try:
            backward(bundles, params, targets, step_mode(stage, 0),
                     GradDict())
        finally:
            tracemalloc.stop()
        assert seen["peak"] - seen["base"] < 8 * batch * m * d

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_each_gradient_follows_its_tensors_last_read(self, stage,
                                                         shared, n,
                                                         monkeypatch):
        # a sink that writes NaNs into each tensor, in place, once its
        # gradient arrives, and into an MLP weight's rows as each of their
        # blocks arrives: a read of those later in the backward, through
        # the params or through a local alias, would carry the NaNs into a
        # gradient recorded after it
        class Poison:
            def __init__(self, params):
                self.params, self.grads = params, GradDict()

            def __setitem__(self, key, grad):
                self.grads[key] = grad.copy()
                name, rows = key
                record, attr = name.split(".")
                getattr(getattr(self.params, record), attr)[rows] = np.nan

        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=14,
                                       shared_pool_phi=shared)
        bundles, targets = make_batch(14, n=n)
        mode = step_mode(stage, 14)
        want = GradDict()
        loss, _ = backward(bundles, copy.deepcopy(params), targets, mode,
                           want)
        # the poisoned backward hands each 8-row MLP weight in blocks of
        # 2 or 3 rows, where the reference took it whole
        monkeypatch.setattr(trainer, "GRAD_BLOCK", 1)
        sink = Poison(params)
        assert backward(bundles, params, targets, mode, sink)[0] == loss
        assert sink.grads.keys() == want.keys()
        for name, grad in want.items():
            assert sink.grads[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_each_gradient_is_dropped_at_hand_over(self, stage, shared, n,
                                                   monkeypatch):
        # a sink that keeps only a weak reference to each array it is
        # handed, whole or as a row block: the backward keeps none either,
        # so each is freed by the next hand-over and the last one by the
        # backward's return
        class Weak:
            def __init__(self):
                self.last, self.held = None, []

            def alive(self):
                return self.last is not None and self.last[1]() is not None

            def __setitem__(self, key, grad):
                if self.alive():
                    self.held.append(self.last[0])
                self.last = key, weakref.ref(grad)

        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=19,
                                       shared_pool_phi=shared)
        bundles, targets = make_batch(19, n=n)
        monkeypatch.setattr(trainer, "GRAD_BLOCK", 1)
        sink = Weak()
        backward(bundles, params, targets, step_mode(stage, 19), sink)
        assert sink.held == []
        assert not sink.alive(), sink.last[0]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_branch_backwards_get_only_what_they_read(self, stage, n,
                                                      monkeypatch):
        # prune's scores are detached, so a stage-2 backward scales d(fused)
        # by the gate for pool and resample only; and pool's record is freed
        # before resample's backward starts
        params = init_projector_params(4, 4, 8, 6, 8, 4, 2, seed=20)
        bundles, targets = make_batch(20, n=n)
        run_forward, scale = pipeline.forward, pipeline.scale_samples
        pool_backward = trainer._pool_backward
        resample_backward = trainer._resample_backward
        seen = {}

        def forward_then_count(*args):
            out = run_forward(*args)
            seen["scaled"] = 0
            return out

        def count(*args):
            seen["scaled"] = seen.get("scaled", 0) + 1
            return scale(*args)

        def pool(params, out, *rest):
            seen["pool"] = weakref.ref(out)
            return pool_backward(params, out, *rest)

        def resample(*args):
            seen["pool alive"] = seen["pool"]() is not None
            return resample_backward(*args)

        monkeypatch.setattr(pipeline, "forward", forward_then_count)
        monkeypatch.setattr(pipeline, "scale_samples", count)
        monkeypatch.setattr(trainer, "_pool_backward", pool)
        monkeypatch.setattr(trainer, "_resample_backward", resample)
        backward(bundles, params, targets, step_mode(stage, 20), GradDict())
        assert seen["scaled"] == (0 if stage == 1 else 2)
        assert seen["pool alive"] is False

    # stage -> GRAD_BLOCK at BLOCK_DIMS: nominal blocks of 4 rows of the
    # head's 21 columns, and of 3 rows of out_mlp's 7 columns, so that each
    # MLP weight (21 or 13 rows in stage 1, 7 or 13 in stage 2) spans three
    # or more, with one row over a whole number of them
    BLOCK_DIMS = (4, 4, 7, 6, 13, 4, 2)
    SMALL_BLOCK = {1: 4 * 21, 2: 3 * 7}

    def blocked_train_toy(self, monkeypatch, params, config, grad_block):
        """`train_toy` at `GRAD_BLOCK = grad_block`: its report, and the row
        slices each MLP weight's gradient came in, by name."""
        blocks = {}
        apply = trainer._Update.__setitem__

        def record(sink, key, grad):
            name, rows = key
            if rows != slice(None):
                blocks.setdefault(name, []).append(rows)
            apply(sink, key, grad)

        with monkeypatch.context() as patch:
            patch.setattr(trainer._Update, "__setitem__", record)
            patch.setattr(trainer, "GRAD_BLOCK", grad_block)
            report = train_toy(params, config)
        return report, blocks

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_blocked_step_bit_identical_to_reference(self, stage, shared,
                                                     monkeypatch):
        # the reference takes every gradient whole; the step takes each MLP
        # weight's in blocks that cover its rows in order, none one row
        params = init_projector_params(*self.BLOCK_DIMS, seed=15,
                                       shared_pool_phi=shared)
        expected = copy.deepcopy(params)
        bundles = [synth_bundle(15, 4, 4, 7, 6)]
        targets = [seeded_fill(65, 4, 13)]
        reference_step(expected, bundles, targets, stage, 0.1, 15)
        _, blocks = self.blocked_train_toy(monkeypatch, params, TrainConfig(
            stage=stage, steps=1, lr=0.1, seed=15, bundles=bundles,
            targets=targets, final_grad_check=False), self.SMALL_BLOCK[stage])
        mlp = "stage1_mlp" if stage == 1 else "out_mlp"
        assert set(blocks) == {f"{mlp}.w_in", f"{mlp}.w_out"}
        for name, rows in blocks.items():
            n, cols = dict(params.named_tensors())[name].shape
            assert n % (self.SMALL_BLOCK[stage] // cols) == 1, name
            assert len(rows) >= 3, name
            assert rows[0].start == 0 and rows[-1].stop == n, name
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
            assert min(r.stop - r.start for r in rows) >= 2, name
        for (name, got), (_, want) in zip(params.named_tensors(),
                                          expected.named_tensors()):
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_blocked_steps_bit_identical_to_whole(self, stage, shared,
                                                  monkeypatch):
        # three steps over a batch of 3, whole and at the floor of three
        # rows a block, which GRAD_BLOCK = 1 asks to go below
        bundles = [synth_bundle(16 + i, 4, 4, 7, 6) for i in range(3)]
        targets = [seeded_fill(66 + i, 4, 13) for i in range(3)]
        config = TrainConfig(stage=stage, steps=3, lr=0.1, seed=16,
                             bundles=bundles, targets=targets,
                             final_grad_check=False)
        whole, blocked = (init_projector_params(*self.BLOCK_DIMS, seed=16,
                                                shared_pool_phi=shared)
                          for _ in range(2))
        want = train_toy(whole, config)
        got, _ = self.blocked_train_toy(monkeypatch, blocked, config, 1)
        assert got.losses == want.losses
        for (name, a), (_, b) in zip(blocked.named_tensors(),
                                     whole.named_tensors()):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("stage", [1, 2])
    def test_step_peak_stays_below_the_reached_w_out(self, stage):
        # at these dims the reached MLP's w_out is the largest tensor a
        # step updates (8 MiB in stage 2, the head's 24 MiB in stage 1);
        # applied in row blocks, its gradient never exists whole, so a
        # steady-state step peaks below it
        m, d, c, c2 = 16, 8192, 128, 96
        bundles = [synth_bundle(i, 8, 8, c, c2) for i in range(2)]
        targets = [seeded_fill(50 + i, m, d) for i in range(2)]
        params = init_projector_params(8, 8, c, c2, d, m, 2, seed=0)
        config = TrainConfig(stage=stage, steps=1, lr=0.1, seed=0,
                             bundles=bundles, targets=targets,
                             final_grad_check=False)
        tracemalloc.start()
        try:
            train_toy(params, config)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_toy(params, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        w_out = (params.stage1_mlp if stage == 1 else params.out_mlp).w_out
        assert w_out.nbytes == d * c * (3 if stage == 1 else 1) * 8
        assert peak < w_out.nbytes


def params_to_vector(params):
    """Flatten all learnable tensors; returns (vector, {name: (slice, shape)}).
    The digest tests' reference: `params_digest` must hash this vector's
    float32 bytes."""
    chunks, layout, pos = [], {}, 0
    for name, arr in params.named_tensors():
        flat = arr.ravel()
        layout[name] = (slice(pos, pos + flat.size), arr.shape)
        chunks.append(flat)
        pos += flat.size
    return np.concatenate(chunks), layout


def test_params_digest_changes_with_params(tiny_params):
    before = params_digest(tiny_params)
    tiny_params.router.b2[0] += 1.0
    assert params_digest(tiny_params) != before


def test_params_digest_hashes_the_float32_vector(tiny_params):
    tiny_params.pool.phi_k = np.asfortranarray(tiny_params.pool.phi_k)
    vec, _ = params_to_vector(tiny_params)
    expected = hashlib.sha256(vec.astype("<f4").tobytes()).hexdigest()
    assert params_digest(tiny_params) == expected


def test_params_digest_across_chunk_boundaries(tiny_params):
    rng = np.random.default_rng(0)
    # C order over two chunk boundaries with a remainder, and Fortran order
    # over one boundary
    tiny_params.out_mlp.w_out = rng.standard_normal(2 * DIGEST_CHUNK + 5)
    tiny_params.stage1_mlp.w_out = np.asfortranarray(
        rng.standard_normal((3, DIGEST_CHUNK // 2 + 41)))
    vec, _ = params_to_vector(tiny_params)
    expected = hashlib.sha256(vec.astype("<f4").tobytes()).hexdigest()
    assert params_digest(tiny_params) == expected


@pytest.mark.filterwarnings("error")
def test_float32_digest_hashes_out_of_range_values_as_inf():
    # the format is the float32 cast, which takes 1e300 to inf
    want = hashlib.sha256(
        np.array([np.inf, -np.inf], dtype="<f4").tobytes()).hexdigest()
    assert float32_digest([np.array([1e300, -1e300])]) == want


def test_float32_digest_hashes_float32_in_place():
    # 4.3 MiB of C-contiguous float32: no chunk is copied
    arr = np.random.default_rng(0).standard_normal((1024, 1100)) \
        .astype(np.float32)
    want = hashlib.sha256(arr.tobytes()).hexdigest()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = float32_digest([arr])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 64 << 10


# Fixed values: a change to the order, subseeds or shapes of the init draws,
# or to when they run, must not move them.
@pytest.mark.parametrize("dims,seed,digest", [
    ((4, 4, 8, 6, 8, 4, 2), 0,
     "8e4dbcca499218d5170b0b6fc6ec02fe9e229c0c86b68d824ce7909294f2d754"),
    ((4, 4, 8, 6, 8, 4, 2), 2**64 - 1,
     "deb5a87702150e11e1e80555dd05b024033c16b8a3b7a2572ff6529e51ceb273"),
    ((24, 24, 1024, 768, 4096, 144, 2), 0,     # paper dims, about 1 s
     "76a76f27533159d857b000702754b7dceb858477e0bacb3295ecf92660bd9e7f")],
    ids=["desk", "desk-max-seed", "paper"])
def test_params_digest_is_pinned(dims, seed, digest):
    assert params_digest(init_projector_params(*dims, seed=seed)) == digest


def test_trained_params_digest_is_pinned():
    # four stage-2 steps at batch 3 under the default schedule's Gumbel
    # noise: a change to which seed a sample's gate noise is drawn at, or
    # to any gradient, moves this fixed value
    bundles, targets = make_batch(3, n=3)
    report = train_toy(make_params(3), TrainConfig(
        stage=2, steps=4, lr=0.1, seed=3, bundles=bundles, targets=targets,
        final_grad_check=False))
    assert report.gumbel_trace[0] > 0
    assert report.params_digest == (
        "7aacdbc34cd67910e1648fe60d829996e6b8a88c3fae4036f39fea3eaafbcc98")
