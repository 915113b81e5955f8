import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmop.linalg import (
    ACT_CHUNK,
    FILL_CHUNK,
    DomainError,
    NumericError,
    ShapeError,
    draw_into,
    erf,
    float32_image,
    gelu,
    gelu_grad,
    grad_check,
    rng_for,
    seeded_fill,
    seeded_fills,
    softmax_rows,
)
from conftest import on_cpus, watch_draws

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


def ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Units in the last place between float64 arrays, elementwise: the
    distance of their bit patterns mapped onto one ordered integer line
    (+0 and -0 meet at zero); two NaNs are 0 apart."""
    def ordered(x):
        bits = x.view(np.int64)
        mag = bits & np.int64(0x7FFF_FFFF_FFFF_FFFF)
        return np.where(bits < 0, -mag, mag)
    both_nan = np.isnan(a) & np.isnan(b)
    return np.where(both_nan, 0, np.abs(ordered(a) - ordered(b)))


def erf_sweep() -> np.ndarray:
    """A seeded sweep of [-30, 30], denser where the fits change, and the
    edge cases: +-0, +-1, +-8, +-inf and nan."""
    rng = np.random.default_rng(2023)
    edges = [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, np.inf, -np.inf, np.nan,
             np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 5e-324, 1e300]
    return np.concatenate([rng.uniform(-30.0, 30.0, 40_000),
                           rng.uniform(-1.0, 1.0, 20_000),
                           rng.uniform(-8.0, 8.0, 20_000), edges])


class TestErf:
    @pytest.mark.filterwarnings("error")
    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = erf_sweep()
        got, want = erf(x), special.erf(x)
        inner = np.abs(x) <= 1.0
        assert got[inner].tobytes() == want[inner].tobytes()
        assert ulps(got, want).max() <= 1
        assert np.isnan(got[np.isnan(x)]).all()

    def test_within_4_ulp_of_math_erf(self):
        x = erf_sweep()
        finite = x[~np.isnan(x)]
        want = np.array([math.erf(v) for v in finite])
        assert ulps(erf(finite), want).max() <= 4

    def test_odd_bit_for_bit(self):
        x = erf_sweep()
        assert erf(-x).tobytes() == (-erf(x)).tobytes()
        assert np.signbit(erf(np.array([-0.0, 0.0]))).tolist() == [True, False]

    def test_keeps_shape(self):
        x = erf_sweep()[:60].reshape(3, 4, 5)
        assert erf(x).tobytes() == erf(x.ravel()).tobytes()
        assert erf(x).shape == (3, 4, 5)
        assert erf(np.asfortranarray(x[0])).tobytes() == erf(x[0]).tobytes()


# three whole chunks and a remainder: flat, and as rows of 1024
@pytest.mark.parametrize("shape", [(3 * ACT_CHUNK + 777,),
                                   (3 * ACT_CHUNK // 1024 + 1, 1024)])
@pytest.mark.parametrize("fn", [gelu, gelu_grad], ids=["gelu", "gelu_grad"])
def test_activation_by_chunk_is_elementwise(shape, fn):
    x = np.random.default_rng(5).standard_normal(shape) * 2.0
    flat = x.ravel()
    by_chunk = np.concatenate([fn(flat[i:i + ACT_CHUNK])
                               for i in range(0, flat.size, ACT_CHUNK)])
    got = fn(x)
    assert got.shape == shape
    assert got.tobytes() == by_chunk.tobytes()


class TestGradCheck:
    def test_quadratic_exact(self):
        x = seeded_fill(0, 1, 5)[0]
        err = grad_check(lambda: 0.5 * float(x @ x), x, x.copy())
        assert err <= 1e-8

    def test_softmax_cross_entropy(self):
        target = 1
        x = np.array([0.3, -0.2, 0.9])

        def f():
            e = np.exp(x - x.max())
            p = e / e.sum()
            return -math.log(p[target])

        e = np.exp(x - x.max())
        p = e / e.sum()
        analytic = p.copy()
        analytic[target] -= 1.0
        assert grad_check(f, x, analytic) <= 1e-6

    def test_detects_doubled_gradient(self):
        x = seeded_fill(0, 1, 5)[0]
        err = grad_check(lambda: 0.5 * float(x @ x), x, 2.0 * x)
        assert err == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_analytic_element_is_inf(self, bad):
        # a NaN residual compares false, so a max over it would drop it
        x = np.ones(3)
        assert grad_check(lambda: float(x @ x), x, np.full(3, bad)) \
            == math.inf
        analytic = 2.0 * x
        analytic[1] = bad
        assert grad_check(lambda: float(x @ x), x, analytic) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_overflowing_central_difference_is_inf(self):
        # both losses are finite, but their difference over 2 * FD_STEP is
        # not: inf / inf would be a NaN residual, and a warning
        x = np.zeros(1)
        assert grad_check(lambda: float(1.7e308 * np.tanh(1e10 * x[0])), x,
                          np.zeros(1)) == math.inf

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            grad_check(lambda: float("nan"), np.ones(2), np.ones(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            grad_check(lambda: 0.0, np.ones((2, 3)), np.ones(6))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_perturbs_in_c_order_and_restores(self, order):
        # element i of the C-order walk is the one moved for loss call 2i
        # and 2i + 1, whatever the memory order, and the tensor comes back
        # bit for bit
        x = np.asarray(seeded_fill(1, 3, 4), order=order)
        start = x.copy(order=order)
        seen = []

        def loss():
            seen.append(x - start)
            return float((x * x).sum())

        assert grad_check(loss, x, 2.0 * start) <= 1e-8
        assert len(seen) == 2 * x.size
        for i, moved in enumerate(seen):
            assert np.count_nonzero(moved) == 1
            assert np.flatnonzero(moved)[0] == i // 2
        assert x.tobytes(order="A") == start.tobytes(order="A")
        assert x.flags.f_contiguous == (order == "F")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_restores_after_nonfinite_loss(self, order):
        # a loss that turns NaN half-way through the walk, and one that
        # raises, still leave the tensor bit-identical
        x = np.asarray(seeded_fill(2, 3, 4), order=order)
        start = x.copy(order=order)
        calls = []

        def loss():
            calls.append(None)
            return float("nan") if len(calls) == 8 else float(x.sum())

        with pytest.raises(NumericError, match="coordinate 3"):
            grad_check(loss, x, np.ones(x.shape))
        assert x.tobytes(order="A") == start.tobytes(order="A")

        def failing():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            grad_check(failing, x, np.ones(x.shape))
        assert x.tobytes(order="A") == start.tobytes(order="A")


class TestSeededFill:
    def test_deterministic(self):
        assert np.array_equal(seeded_fill(3, 5, 5), seeded_fill(3, 5, 5))

    def test_seeds_differ(self):
        assert not np.array_equal(seeded_fill(3, 5, 5), seeded_fill(4, 5, 5))

    def test_gaussian_mean(self):
        samples = seeded_fill(0, 100, 100)
        assert abs(samples.mean()) < 0.05

    @pytest.mark.parametrize("sigma", [0.0, -0.3])
    def test_nonpositive_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            draw_into(np.empty((2, 3)), 0, sigma)
        with pytest.raises(DomainError, match="sigma"):
            seeded_fills([(1, 2, 3, 1.0), (0, 2, 3, sigma)])

    # rows x cols over several row chunks with a remainder, exactly two
    # chunks, one row per chunk, and a row wider than a chunk; then fixed
    # sizes, which at 2**15-element chunks give one row per chunk, exactly
    # four chunks, a row two chunks wide, and a row wider than two chunks
    @pytest.mark.parametrize("rows,cols", [
        (7, FILL_CHUNK // 3 + 5), (2 * 64, FILL_CHUNK // 64),
        (5, FILL_CHUNK), (3, FILL_CHUNK + 17),
        (7, 21850), (128, 1024), (5, 65536), (3, 65553)])
    def test_chunked_draw_is_one_full_draw(self, rows, cols):
        want = rng_for(9).standard_normal((rows, cols)) * 0.3
        got = draw_into(np.empty((rows, cols)), 9, 0.3)
        assert got.tobytes() == want.tobytes()
        image = draw_into(np.empty((rows, cols), dtype=np.float32), 9, 0.3)
        assert image.tobytes() == want.astype(np.float32).tobytes()
        assert seeded_fill(9, rows, cols).tobytes() == \
            rng_for(9).standard_normal((rows, cols)).tobytes()
        (both,) = seeded_fills([(9, rows, cols, 0.3)])
        assert both.dtype == np.float64
        assert both.tobytes() == want.tobytes()
        (both,) = seeded_fills([(9, rows, cols, 0.3)], np.float32)
        assert both.dtype == np.float32
        assert both.tobytes() == want.astype(np.float32).tobytes()

    def test_float32_draw_holds_one_chunk_buffer(self):
        # 20 chunks of 2 rows; the float64 buffer they share is the only
        # allocation beyond the result
        rows, cols = 40, FILL_CHUNK // 2
        out = np.empty((rows, cols), dtype=np.float32)
        tracemalloc.start()
        try:
            draw_into(out, 3, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert FILL_CHUNK * 8 <= peak < FILL_CHUNK * 8 + (1 << 14)


class TestSeededFills:
    # several chunks each, one row wider than a chunk, and tiny ones
    DRAWS = [(11, 300, 700, 0.5), (12, 3, FILL_CHUNK + 5, 2.0),
             (13, 1, 1, 1.0), (14, 40, 9, 0.1), (15, 600, 300, 0.25)]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_each_draw_is_its_serial_draw(self, monkeypatch, workers,
                                          dtype):
        on_cpus(monkeypatch, workers)
        seen = watch_draws(monkeypatch)
        outs = seeded_fills(self.DRAWS, dtype)
        for out, (seed, rows, cols, sigma) in zip(outs, self.DRAWS):
            want = rng_for(seed).standard_normal((rows, cols)) * sigma
            assert out.dtype == dtype and out.flags.c_contiguous
            assert out.tobytes() == want.astype(dtype).tobytes()
        # each once, on a pool thread, at most one thread per CPU; one
        # thread takes them largest first
        seeds = [s for s, _ in seen]
        assert sorted(seeds) == [11, 12, 13, 14, 15]
        if workers == 1:
            assert seeds == [d[0] for d in sorted(
                self.DRAWS, key=lambda d: -d[1] * d[2])]
        threads = {t for _, t in seen}
        assert threading.get_ident() not in threads
        assert 1 <= len(threads) <= workers

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate"), DomainError("bad sigma"),
        ZeroDivisionError()], ids=lambda e: type(e).__name__)
    def test_a_draw_error_surfaces_unchanged(self, monkeypatch, error):
        on_cpus(monkeypatch, 2)
        seen = watch_draws(monkeypatch, 11, error)
        before = threading.active_count()
        with pytest.raises(type(error)) as info:
            seeded_fills(self.DRAWS)
        assert info.value is error
        assert threading.active_count() == before
        assert threading.get_ident() not in {t for _, t in seen}

    def test_no_thread_outlives_the_call(self, monkeypatch):
        on_cpus(monkeypatch, 4)
        before = threading.active_count()
        seeded_fills(self.DRAWS)
        assert threading.active_count() == before


class TestFloat32Image:
    def test_c_contiguous_float32_is_not_copied(self):
        arr = np.arange(12, dtype="<f4").reshape(3, 4)
        assert float32_image(arr) is arr

    def test_any_layout_casts_to_c_order_float32(self):
        arr = np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7)
        image = float32_image(arr)
        assert image.dtype == np.dtype("<f4") and image.flags.c_contiguous
        assert image.tobytes() == arr.astype("<f4").tobytes(order="C")
        assert float32_image(arr[:, ::2]).tobytes() == \
            arr[:, ::2].astype("<f4").tobytes(order="C")

    @pytest.mark.filterwarnings("error")
    def test_values_beyond_range_become_inf(self):
        image = float32_image(np.array([1e39, -1e300, 3.0]))
        assert image.tolist() == [np.inf, -np.inf, 3.0]
