import os
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmop.bundle import (
    MAGIC,
    FeatureBundle,
    FormatError,
    TruncatedFileError,
    ValidationError,
    read_bundle,
    synth_bundle,
    write_bundle,
)
from conftest import quantized


def assert_bundles_equal(a: FeatureBundle, b: FeatureBundle):
    assert (a.grid_h, a.grid_w, a.c_vis, a.c_txt) == \
        (b.grid_h, b.grid_w, b.c_vis, b.c_txt)
    assert np.array_equal(a.patches, b.patches)
    assert np.array_equal(a.cls_token, b.cls_token)
    assert np.array_equal(a.eos_token, b.eos_token)
    assert np.array_equal(a.cls_attention, b.cls_attention)
    assert a.text_raw == b.text_raw


def read_through_fifo(tmp_path, payload: bytes) -> FeatureBundle:
    """`read_bundle` of `payload` fed through a FIFO by a writer thread. A
    pipe is not a regular file, so no read from it is capped at the bytes
    left."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_bundle(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestRoundTrip:
    def test_simple(self, tmp_path):
        b = synth_bundle(3, 4, 4, 8, 6)
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        assert_bundles_equal(read_bundle(path), quantized(b))

    def test_with_text(self, tmp_path):
        b = synth_bundle(3, 2, 2, 4, 3)
        b.text_raw = "what color is the sky?"
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        back = read_bundle(path)
        assert back.text_raw == b.text_raw

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_through_a_fifo(self, tmp_path):
        b = synth_bundle(3, 4, 4, 8, 6)
        write_bundle(b, tmp_path / "b.qmop")
        back = read_through_fifo(tmp_path, (tmp_path / "b.qmop").read_bytes())
        assert_bundles_equal(back, quantized(b))

    def test_rewrite_is_byte_identical(self, tmp_path):
        b = synth_bundle(5, 3, 3, 4, 3)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_bundle(b, p1)
        write_bundle(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_size_from_layout(self, tmp_path):
        # 28-byte header + float32 payloads: 2x2 grid, C=4, C2=3
        b = synth_bundle(7, 2, 2, 4, 3)
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        assert os.path.getsize(path) == 28 + 4 * (16 + 4 + 3 + 4)


class TestErrors:
    def test_bad_magic(self, tmp_path):
        b = synth_bundle(0, 2, 2, 4, 3)
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"QMOPFT00"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_bundle(path)

    def test_truncated_patches(self, tmp_path):
        b = synth_bundle(0, 2, 2, 4, 3)
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        path.write_bytes(path.read_bytes()[: 28 + 10])
        with pytest.raises(TruncatedFileError, match="expected"):
            read_bundle(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_truncated_fifo(self, tmp_path):
        # 28 header bytes, then 72 of the 4x4x8 float32 patches' 512
        write_bundle(synth_bundle(3, 4, 4, 8, 6), tmp_path / "b.qmop")
        head = (tmp_path / "b.qmop").read_bytes()[:100]
        with pytest.raises(TruncatedFileError, match=r"^truncated patches: "
                           r"expected 512 bytes, got 72$"):
            read_through_fifo(tmp_path, head)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "b.qmop"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TruncatedFileError):
            read_bundle(path)

    def test_zero_dim_header(self, tmp_path):
        path = tmp_path / "b.qmop"
        path.write_bytes(struct.pack("<8s5I", MAGIC, 0, 2, 4, 3, 0))
        with pytest.raises(FormatError):
            read_bundle(path)

    def test_unnormalized_attention(self, tmp_path):
        b = synth_bundle(0, 2, 2, 4, 3)
        b.cls_attention = b.cls_attention * 2.0
        path = tmp_path / "b.qmop"
        with pytest.raises(ValidationError):
            write_bundle(b, path)
        # write a valid file, then corrupt the attention payload on disk
        b2 = synth_bundle(0, 2, 2, 4, 3)
        write_bundle(b2, path)
        raw = bytearray(path.read_bytes())
        attn_off = 28 + 4 * (16 + 4 + 3)
        raw[attn_off:attn_off + 16] = np.full(4, 0.5, "<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="sums to"):
            read_bundle(path)


    def test_huge_header_on_tiny_file_fails_fast(self, tmp_path):
        # 128x128 patches of width 1536: the header claims ~100 MB of patches
        path = tmp_path / "b.qmop"
        path.write_bytes(struct.pack("<8s5I", MAGIC, 128, 128, 1536, 3, 0)
                         + bytes(16))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(TruncatedFileError, match="100663296"):
                read_bundle(path)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("field", range(1, 5))
    def test_high_bit_dimension_is_truncation(self, tmp_path, field):
        # a flipped top bit makes the claimed layout exceed any memory
        dims = [2, 2, 4, 3]
        dims[field - 1] |= 1 << 31
        path = tmp_path / "b.qmop"
        path.write_bytes(struct.pack("<8s5I", MAGIC, *dims, 0) + bytes(64))
        with pytest.raises(TruncatedFileError):
            read_bundle(path)

    def test_text_not_utf8(self, tmp_path):
        b = synth_bundle(0, 2, 2, 4, 3)
        b.text_raw = "ab"
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        raw = bytearray(path.read_bytes())
        raw[-2] = 0xFF  # never valid in UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            read_bundle(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A valid bundle file with multi-byte text, and a path for damaged
    copies of it."""
    work = tmp_path_factory.mktemp("fuzz")
    b = synth_bundle(3, 2, 3, 4, 3)
    b.text_raw = "naïve text"
    write_bundle(b, work / "valid.qmop")
    return work


def read_damaged(work, raw: bytes):
    path = work / "damaged.qmop"
    path.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a warning escapes as an exception
        return read_bundle(path)


class TestFuzz:
    """A damaged file reads as a valid bundle or fails with a bundle error;
    nothing else may escape `read_bundle`."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncation_is_truncated_file_error(self, fuzz_dir, data):
        raw = (fuzz_dir / "valid.qmop").read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        with pytest.raises(TruncatedFileError):
            read_damaged(fuzz_dir, raw[:cut])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_bit_flip(self, fuzz_dir, data):
        raw = bytearray((fuzz_dir / "valid.qmop").read_bytes())
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        try:
            bundle = read_damaged(fuzz_dir, bytes(raw))
        except (FormatError, TruncatedFileError, ValidationError):
            return
        bundle.validate(attn_tol=1e-3)


class TestSynth:
    def test_deterministic(self):
        a, b = synth_bundle(4, 3, 3, 5, 4), synth_bundle(4, 3, 3, 5, 4)
        assert_bundles_equal(a, b)

    def test_attention_normalized(self):
        b = synth_bundle(11, 4, 4, 8, 6)
        assert b.cls_attention.sum() == pytest.approx(1.0, abs=1e-12)
        assert (b.cls_attention >= 0).all()

    def test_golden_prng_value(self):
        # frozen once from the documented Philox subseed scheme
        b = synth_bundle(7, 2, 2, 4, 3)
        assert b.patches[0, 0] == pytest.approx(0.9887862565804074, abs=1e-15)

    def test_bad_dims(self):
        with pytest.raises(ValidationError):
            synth_bundle(0, 0, 2, 4, 3)


class TestValidate:
    def test_mismatched_patch_shape(self):
        b = synth_bundle(0, 2, 2, 4, 3)
        b.patches = b.patches[:3]
        with pytest.raises(ValidationError):
            b.validate()

    def test_negative_attention(self):
        b = synth_bundle(0, 2, 2, 4, 3)
        b.cls_attention = np.array([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValidationError):
            b.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("what", ["patches", "cls_token", "eos_token",
                                      "cls_attention"])
    def test_non_finite_entry(self, what, bad):
        b = synth_bundle(0, 2, 2, 4, 3)
        arr = getattr(b, what).copy()
        arr.flat[1] = bad
        setattr(b, what, arr)
        with pytest.raises(ValidationError, match="non-finite"):
            b.validate()

    def test_all_nan_attention(self):
        # NaN fails every comparison, so the sign and sum checks alone pass it
        b = synth_bundle(0, 2, 2, 4, 3)
        b.cls_attention = np.full(4, np.nan)
        with pytest.raises(ValidationError, match="non-finite"):
            b.validate()

    def test_non_finite_payload_on_disk(self, tmp_path):
        path = tmp_path / "b.qmop"
        write_bundle(synth_bundle(0, 2, 2, 4, 3), path)
        raw = bytearray(path.read_bytes())
        raw[28:32] = np.array([np.inf], "<f4").tobytes()  # patches[0, 0]
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="patches"):
            read_bundle(path)

    def test_signalling_nan_payload_rejected_without_warning(self, tmp_path):
        path = tmp_path / "b.qmop"
        write_bundle(synth_bundle(0, 2, 2, 4, 3), path)
        raw = bytearray(path.read_bytes())
        raw[28:32] = struct.pack("<I", 0x7F800001)  # patches[0, 0]
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="patches"):
                read_bundle(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("what", ["patches", "cls_token", "eos_token"])
def test_write_rejects_values_beyond_float32(tmp_path, what):
    # finite in float64, inf as float32: the file would not read back
    b = synth_bundle(0, 2, 2, 4, 3)
    arr = getattr(b, what).copy()
    arr.flat[1] = -1e39 if what == "eos_token" else 1e39
    setattr(b, what, arr)
    path = tmp_path / "b.qmop"
    with pytest.raises(ValidationError, match=f"{what} has entries beyond"):
        write_bundle(b, path)
    assert not path.exists()


def test_hundred_random_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(100):
        gh, gw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cv, ct = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        b = synth_bundle(i, gh, gw, cv, ct)
        if i % 3 == 0:
            b.text_raw = f"sample {i}"
        path = tmp_path / "b.qmop"
        write_bundle(b, path)
        assert_bundles_equal(read_bundle(path), quantized(b))


@pytest.mark.parametrize("changes,message", [
    (dict(c_txt=0, eos_token=np.zeros(0)), "dimensions must be >= 1"),
    (dict(cls_token=np.zeros(3)), "cls_token length"),
    (dict(eos_token=np.zeros(4)), "eos_token length"),
    (dict(cls_attention=np.full(3, 1 / 3)), "cls_attention length")],
    ids=["dims", "cls_token", "eos_token", "cls_attention"])
def test_write_rejects_an_invalid_bundle(tmp_path, changes, message):
    b = synth_bundle(0, 2, 2, 4, 3)
    for what, value in changes.items():
        setattr(b, what, value)
    path = tmp_path / "b.qmop"
    with pytest.raises(ValidationError, match=message):
        write_bundle(b, path)
    assert not path.exists()
