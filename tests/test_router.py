import numpy as np
import pytest

from qmop.linalg import DomainError, ShapeError, seeded_fill, softmax_rows
from qmop.router import (
    GateWeights,
    RouterParams,
    build_context,
    gate_entropy,
    gate_forward,
    select_threshold,
    select_topk,
)


def router_with_logits(logits):
    """Params whose MLP outputs exactly the given logits for any input."""
    d = 2
    return RouterParams(
        w1=np.zeros((d, 4)), b1=np.zeros(d),
        w2=np.zeros((3, d)), b2=np.asarray(logits, dtype=float),
    )


def random_router(seed, width=10):
    d = 4
    return RouterParams(
        w1=seeded_fill(seed, d, width), b1=seeded_fill(seed + 1, 1, d)[0],
        w2=seeded_fill(seed + 2, 3, d), b2=seeded_fill(seed + 3, 1, 3)[0],
    )


def gw(alpha):
    alpha = np.asarray(alpha, dtype=float)
    return GateWeights(alpha, 1.0, False)


class TestBuildContext:
    def test_concatenation(self):
        out = build_context(np.array([1.0, 2.0]), np.array([3.0]))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_empty_half_rejected(self):
        with pytest.raises(ShapeError):
            build_context(np.array([]), np.array([1.0]))

    def test_length(self):
        assert build_context(np.zeros(4), np.zeros(3)).shape == (7,)


class TestGateForward:
    def test_zero_logits_uniform(self):
        params = router_with_logits([0.0, 0.0, 0.0])
        for tau in (0.3, 1.0, 7.0):
            g = gate_forward(seeded_fill(0, 1, 4)[0], params, tau=tau)
            assert np.allclose(g.alpha, 1 / 3, atol=1e-12)

    def test_closed_form_softmax(self):
        g = gate_forward(np.zeros(4), router_with_logits([2.0, 1.0, 0.0]))
        assert np.allclose(g.alpha, [0.66524, 0.24473, 0.09003], atol=1e-5)

    def test_low_temperature_sharpens(self):
        g = gate_forward(np.zeros(4), router_with_logits([2.0, 1.0, 0.0]),
                         tau=0.05)
        assert g.alpha[0] >= 0.999

    def test_bad_tau(self):
        with pytest.raises(DomainError):
            gate_forward(np.zeros(4), router_with_logits([0, 0, 0]), tau=0.0)

    def test_deterministic_for_seed(self):
        params = random_router(0)
        f = seeded_fill(5, 1, 10)[0]
        a = gate_forward(f, params, gumbel_scale=1.0, seed=42)
        b = gate_forward(f, params, gumbel_scale=1.0, seed=42)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.gumbel_applied

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            params = random_router(trial)
            f = rng.normal(size=10)
            g = gate_forward(f, params, tau=float(rng.uniform(0.1, 10)),
                             gumbel_scale=float(rng.uniform(0, 2)),
                             seed=trial)
            assert abs(g.alpha.sum() - 1.0) <= 1e-9
            # sharp temperatures can underflow losers to exactly 0.0
            assert (g.alpha >= 0).all() and (g.alpha <= 1).all()

    def test_argmax_invariant_in_tau(self):
        for trial in range(30):
            params = random_router(trial + 100)
            f = seeded_fill(trial, 1, 10)[0]
            winners = {int(np.argmax(gate_forward(f, params, tau=t).alpha))
                       for t in (0.1, 1.0, 10.0)}
            assert len(winners) == 1

    def test_relu_activation(self):
        params = random_router(3)
        params.activation = "relu"
        g = gate_forward(seeded_fill(1, 1, 10)[0], params)
        assert abs(g.alpha.sum() - 1.0) <= 1e-12


class TestSelectTopk:
    def test_hand_renormalization(self):
        active = select_topk(gw([0.5, 0.3, 0.2]), 2)
        assert active.members == ("pool", "resample")
        assert np.allclose(active.renorm_weights, [0.625, 0.375], atol=1e-12)

    def test_k3_identity(self):
        alpha = [0.2, 0.5, 0.3]
        active = select_topk(gw(alpha), 3)
        assert active.members == ("pool", "resample", "prune")
        assert np.allclose(active.renorm_weights, alpha, atol=1e-12)

    def test_tie_break_branch_order(self):
        active = select_topk(gw([1 / 3, 1 / 3, 1 / 3]), 2)
        assert active.members == ("pool", "resample")
        assert np.allclose(active.renorm_weights, [0.5, 0.5])

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(DomainError):
                select_topk(gw([0.5, 0.3, 0.2]), k)

    def test_preserves_relative_order(self):
        active = select_topk(gw([0.1, 0.6, 0.3]), 2)
        assert active.members == ("resample", "prune")
        assert active.renorm_weights[0] > active.renorm_weights[1]
        assert abs(active.renorm_weights.sum() - 1.0) <= 1e-9


class TestSelectThreshold:
    def test_hand_renormalization(self):
        active = select_threshold(gw([0.5, 0.3, 0.2]), 0.25)
        assert active.members == ("pool", "resample")
        assert np.allclose(active.renorm_weights, [0.625, 0.375], atol=1e-12)

    def test_zero_threshold_keeps_all(self):
        alpha = [0.5, 0.3, 0.2]
        active = select_threshold(gw(alpha), 0.0)
        assert active.members == ("pool", "resample", "prune")
        assert np.allclose(active.renorm_weights, alpha)

    def test_single_survivor(self):
        active = select_threshold(gw([0.98, 0.01, 0.01]), 0.5)
        assert active.members == ("pool",)
        assert active.renorm_weights[0] == pytest.approx(1.0)

    def test_empty_set_falls_back_to_argmax(self):
        active = select_threshold(gw([0.4, 0.35, 0.25]), 0.9)
        assert active.members == ("pool",)

    def test_theta_out_of_range(self):
        for theta in (-0.1, 1.0):
            with pytest.raises(DomainError):
                select_threshold(gw([0.5, 0.3, 0.2]), theta)


class TestGumbelMax:
    def test_frequency_matches_softmax(self):
        logits = [0.7, 0.1, -0.4]
        params = router_with_logits(logits)
        probs = softmax_rows(np.array([logits]))[0]
        f = np.zeros(4)
        counts = np.zeros(3)
        n = 100_000
        for seed in range(n):
            g = gate_forward(f, params, tau=1.0, gumbel_scale=1.0, seed=seed)
            counts[int(np.argmax(g.alpha))] += 1
        assert np.abs(counts / n - probs).max() <= 0.02


def test_gate_entropy():
    assert gate_entropy(np.array([1 / 3, 1 / 3, 1 / 3])) == \
        pytest.approx(np.log(3))
    assert gate_entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)
