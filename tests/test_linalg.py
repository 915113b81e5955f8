import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmop.linalg import (
    DomainError,
    NumericError,
    grad_check,
    seeded_fill,
    softmax_rows,
)

# closed-form softmax of (2, 1, 0) at tau = 1
SOFTMAX_210 = np.exp([2.0, 1.0, 0.0]) / np.exp([2.0, 1.0, 0.0]).sum()


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(np.zeros((1, 3)))
        assert np.allclose(out, 1 / 3, atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(np.array([[2.0, 1.0, 0.0]]))
        assert np.allclose(out[0], [0.66524, 0.24473, 0.09003], atol=1e-5)
        assert np.allclose(out[0], SOFTMAX_210, atol=1e-12)

    def test_low_temperature_limit(self):
        out = softmax_rows(np.array([[2.0, 1.0, 0.0]]), temperature=0.01)
        assert out[0].max() >= 0.999

    def test_nonpositive_temperature(self):
        for tau in (0.0, -1.0):
            with pytest.raises(DomainError):
                softmax_rows(np.zeros((1, 2)), temperature=tau)

    @settings(max_examples=50)
    @given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)),
           st.floats(0.01, 100.0))
    def test_rows_sum_to_one(self, x, tau):
        assert np.allclose(softmax_rows(x, tau).sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=50)
    @given(arrays(np.float64, (2, 4), elements=st.floats(-50, 50)),
           st.floats(-100, 100))
    def test_shift_invariant(self, x, c):
        assert np.allclose(softmax_rows(x), softmax_rows(x + c), atol=1e-12)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            row = rng.normal(size=(1, 6))
            row[0, rng.integers(6)] += 10.0  # ensure a strict unique max
            for tau in (0.1, 1.0, 10.0):
                assert (np.argmax(softmax_rows(row, tau))
                        == np.argmax(row))


class TestGradCheck:
    def test_quadratic_exact(self):
        x = seeded_fill(0, 1, 5)[0]
        err = grad_check(lambda v: 0.5 * float(v @ v), x, x)
        assert err <= 1e-8

    def test_softmax_cross_entropy(self):
        target = 1

        def f(logits):
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            return -math.log(p[target])

        x = np.array([0.3, -0.2, 0.9])
        e = np.exp(x - x.max())
        p = e / e.sum()
        analytic = p.copy()
        analytic[target] -= 1.0
        assert grad_check(f, x, analytic) <= 1e-6

    def test_detects_doubled_gradient(self):
        x = seeded_fill(0, 1, 5)[0]
        err = grad_check(lambda v: 0.5 * float(v @ v), x, 2.0 * x)
        assert err == pytest.approx(1.0, abs=0.2)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            grad_check(lambda v: float("nan"), np.ones(2), np.ones(2))


class TestSeededFill:
    def test_deterministic(self):
        assert np.array_equal(seeded_fill(3, 5, 5), seeded_fill(3, 5, 5))

    def test_seeds_differ(self):
        assert not np.array_equal(seeded_fill(3, 5, 5), seeded_fill(4, 5, 5))

    def test_gaussian_mean(self):
        samples = seeded_fill(0, 100, 100)
        assert abs(samples.mean()) < 0.05

