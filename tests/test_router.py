import signal

import numpy as np
import pytest

from qmop.bundle import FeatureBundle
from qmop.linalg import DomainError, ShapeError, seeded_fill, softmax_rows
from qmop.router import (
    RouterParams,
    build_context,
    gate_entropy,
    gate_forward,
    hidden_width,
    sample_gumbel,
    select_threshold,
    select_topk,
)


def router_with_logits(logits):
    """Params whose MLP outputs exactly the given logits for any input."""
    d = 2
    return RouterParams(
        w1=np.zeros((d, 4)), b1=np.zeros(d),
        w2=np.zeros((3, d)), b2=np.asarray(logits, dtype=float),
        activation="gelu",
    )


def random_router(seed, width=10):
    d = 4
    return RouterParams(
        w1=seeded_fill(seed, d, width), b1=seeded_fill(seed + 1, 1, d)[0],
        w2=seeded_fill(seed + 2, 3, d), b2=seeded_fill(seed + 3, 1, 3)[0],
        activation="gelu",
    )


def gate(f, params, tau=1.0, gumbel_scale=0.0, seed=0):
    """The gate of one context vector `f`: a batch of one."""
    return gate_forward(np.asarray(f, dtype=float)[None], params, tau,
                        gumbel_scale, seed)


def gw(alpha):
    return np.asarray(alpha, dtype=float)


def context_bundle(cls_token, eos_token):
    """A 1x1-grid bundle that carries the given context halves."""
    cls_token, eos_token = np.asarray(cls_token), np.asarray(eos_token)
    return FeatureBundle(1, 1, cls_token.size, eos_token.size,
                         np.zeros((1, cls_token.size)), cls_token, eos_token,
                         np.ones(1))


class TestBuildContext:
    def test_concatenation(self):
        out = build_context([context_bundle([1.0, 2.0], [3.0]),
                             context_bundle([4.0, 5.0], [6.0])])
        assert np.array_equal(out, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_empty_half_rejected(self):
        with pytest.raises(ShapeError):
            build_context([context_bundle([], [1.0])])

    def test_length(self):
        bundle = context_bundle(np.zeros(4), np.zeros(3))
        assert build_context([bundle]).shape == (1, 7)
        assert build_context([bundle] * 3).shape == (3, 7)


class TestGateForward:
    def test_zero_logits_uniform(self):
        params = router_with_logits([0.0, 0.0, 0.0])
        for tau in (0.3, 1.0, 7.0):
            g = gate(seeded_fill(0, 1, 4)[0], params, tau=tau)
            assert np.allclose(g.alpha, 1 / 3, atol=1e-12)

    def test_closed_form_softmax(self):
        g = gate(np.zeros(4), router_with_logits([2.0, 1.0, 0.0]))
        assert np.allclose(g.alpha, [[0.66524, 0.24473, 0.09003]], atol=1e-5)

    def test_low_temperature_sharpens(self):
        g = gate(np.zeros(4), router_with_logits([2.0, 1.0, 0.0]), tau=0.05)
        assert g.alpha[0, 0] >= 0.999

    def test_bad_tau(self):
        with pytest.raises(DomainError):
            gate(np.zeros(4), router_with_logits([0, 0, 0]), tau=0.0)

    def test_bad_gumbel_scale(self):
        with pytest.raises(DomainError, match="gumbel_scale"):
            gate(np.zeros(4), router_with_logits([0, 0, 0]),
                 gumbel_scale=-0.5)

    def test_deterministic_for_seed(self):
        params = random_router(0)
        f = seeded_fill(5, 1, 10)[0]
        a = gate(f, params, gumbel_scale=1.0, seed=42)
        b = gate(f, params, gumbel_scale=1.0, seed=42)
        assert np.array_equal(a.alpha, b.alpha)
        assert a.gumbel_applied

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            params = random_router(trial)
            f = rng.normal(size=10)
            g = gate(f, params, tau=float(rng.uniform(0.1, 10)),
                     gumbel_scale=float(rng.uniform(0, 2)), seed=trial)
            assert abs(g.alpha.sum() - 1.0) <= 1e-9
            # sharp temperatures can underflow losers to exactly 0.0
            assert (g.alpha >= 0).all() and (g.alpha <= 1).all()

    def test_argmax_invariant_in_tau(self):
        for trial in range(30):
            params = random_router(trial + 100)
            f = seeded_fill(trial, 1, 10)[0]
            winners = {int(np.argmax(gate(f, params, tau=t).alpha))
                       for t in (0.1, 1.0, 10.0)}
            assert len(winners) == 1

    def test_relu_activation(self):
        params = random_router(3)
        params.activation = "relu"
        g = gate(seeded_fill(1, 1, 10)[0], params)
        assert abs(g.alpha.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("context", [8 + 6, 1024 + 768], ids=["desk", "paper"])
@pytest.mark.parametrize("gumbel_scale", [0.0, 0.7])
def test_batch_rows_equal_one_row_calls(context, gumbel_scale):
    # each row must equal the sample's batch-of-one gate bit for bit, so a
    # sample's gate, and every digest after it, does not depend on its
    # batch: row i of a batch gated at seed s is a batch of one at s + i
    d = hidden_width(context, None)
    params = RouterParams(
        w1=seeded_fill(1, d, context) * context ** -0.5,
        b1=seeded_fill(2, 1, d)[0], w2=seeded_fill(3, 3, d) * d ** -0.5,
        b2=seeded_fill(4, 1, 3)[0], activation="gelu")
    f = seeded_fill(5, 3, context)
    batch = gate_forward(f, params, 1.3, gumbel_scale, 7)
    assert batch.gumbel_applied == (gumbel_scale > 0)
    for i in range(len(f)):
        row = gate_forward(f[i:i + 1], params, 1.3, gumbel_scale, 7 + i)
        for field in ("alpha", "f", "h1", "a1"):
            assert np.array_equal(getattr(batch, field)[i],
                                  getattr(row, field)[0]), (i, field)


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
        n = 100_000
        # one batch of n rows, row i's noise drawn at seed i
        g = gate_forward(np.zeros((n, 4)), params, 1.0, 1.0, 0)
        counts = np.bincount(np.argmax(g.alpha, axis=1), minlength=3)
        assert np.abs(counts / n - probs).max() <= 0.02


def test_gate_entropy():
    assert gate_entropy(np.array([1 / 3, 1 / 3, 1 / 3])) == \
        pytest.approx(np.log(3))
    assert gate_entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)


class ScriptedRng:
    """Stands in for a `Generator`: `random(n)` returns the next of the
    given draws, which must hold n values, and raises once they run out."""

    def __init__(self, *draws):
        self.draws = [np.array(d) for d in draws]

    def random(self, n):
        draw = self.draws.pop(0)   # IndexError past the last one
        assert draw.shape == (n,)
        return draw


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs alarms")
def test_gumbel_redraws_each_zero():
    # only the zeros are drawn again, until none is left; a zero kept would
    # spin the redraw loop, so an alarm ends the call
    def stop(*_):
        raise TimeoutError("sample_gumbel kept a zero draw")

    rng = ScriptedRng([0.5, 0.0, 0.25, 0.0], [0.0, 0.75], [0.125])
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        got = sample_gumbel(rng, 4)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    want = -np.log(-np.log(np.array([0.5, 0.125, 0.25, 0.75])))
    assert got.tobytes() == want.tobytes()
    assert rng.draws == []
