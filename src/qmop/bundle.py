"""Feature-bundle container: the inputs one sample carries into the projector.

A bundle holds pre-extracted encoder features (patch grid, class token, text
EOS token, class-attention vector) plus optional raw text for provenance. On
disk it is the QMOPFT01 binary container: a fixed little-endian header
followed by float32 payloads in a fixed order. In memory everything is
float64.

One table, `payload_shapes`, gives each payload's name, its shape from the
four header dims, and its place: the file order, which is also the order of
`synth_bundle`'s subseeds. Validation, writing, reading and synthesis all
walk it.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import float32_image, seeded_fill, softmax_rows

MAGIC = b"QMOPFT01"
_HEADER = struct.Struct("<8s5I")  # magic, grid_h, grid_w, c_vis, c_txt, flags
FLAG_TEXT = 1


def payload_shapes(grid_h: int, grid_w: int, c_vis: int,
                   c_txt: int) -> dict[str, tuple[int, ...]]:
    """{name: shape} of a bundle's payloads, in file order."""
    n = grid_h * grid_w
    return {"patches": (n, c_vis), "cls_token": (c_vis,),
            "eos_token": (c_txt,), "cls_attention": (n,)}


class FormatError(ValueError):
    """File does not carry the expected magic/layout."""


class TruncatedFileError(ValueError):
    """File ended before a payload was complete."""


class ValidationError(ValueError):
    """Payload contents violate a bundle invariant."""


@dataclass
class FeatureBundle:
    grid_h: int
    grid_w: int
    c_vis: int
    c_txt: int
    patches: np.ndarray       # N x C, raster order
    cls_token: np.ndarray     # C
    eos_token: np.ndarray     # C2
    cls_attention: np.ndarray  # N, nonnegative, sums to 1
    text_raw: str | None = None

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(grid_h, grid_w, c_vis, c_txt), the header's dims."""
        return (self.grid_h, self.grid_w, self.c_vis, self.c_txt)

    def validate(self, attn_tol: float = 1e-6) -> None:
        if min(self.dims) < 1:
            raise ValidationError("all bundle dimensions must be >= 1")
        shapes = payload_shapes(*self.dims)
        for what, shape in shapes.items():
            got = getattr(self, what).shape
            if got != shape:
                raise ValidationError(f"{what} shape {got} != {shape}")
        for what in shapes:
            if not np.isfinite(getattr(self, what)).all():
                raise ValidationError(f"{what} has non-finite entries")
        if np.any(self.cls_attention < 0):
            raise ValidationError("cls_attention has negative entries")
        s = float(self.cls_attention.sum())
        if abs(s - 1.0) > attn_tol:
            raise ValidationError(f"cls_attention sums to {s}, expected 1")


def write_bundle(bundle: FeatureBundle, path) -> None:
    """Validate `bundle` and write it as QMOPFT01, each payload as its
    `float32_image`. A payload value beyond float32 range raises
    `ValidationError` before the file is opened, since `read_bundle` would
    reject the inf it becomes; so does text that does not encode as UTF-8
    (a lone surrogate, say). Every check runs before the open, so a bundle
    it rejects leaves no file, and a file already at `path` keeps its
    bytes."""
    bundle.validate()
    payloads = {what: float32_image(getattr(bundle, what))
                for what in payload_shapes(*bundle.dims)}
    for what, image in payloads.items():
        if not np.isfinite(image).all():
            raise ValidationError(f"{what} has entries beyond float32 range")
    flags, text = 0, b""
    if bundle.text_raw is not None:
        try:
            raw = bundle.text_raw.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"text is not UTF-8: {exc}") from exc
        flags, text = FLAG_TEXT, struct.pack("<I", len(raw)) + raw
    with open(path, "wb") as fh:
        fh.writelines([_HEADER.pack(MAGIC, *bundle.dims, flags),
                       *payloads.values(), text])


def _read_exact(fh, nbytes: int, what: str) -> bytes:
    # A corrupt header must not make read() allocate the size it claims:
    # cap a regular file's read at the bytes it has left, and read a pipe
    # 1 MiB at a time until the count or EOF.
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        buf = fh.read(min(nbytes, max(st.st_size - fh.tell(), 0)))
    else:
        chunks, left = [], nbytes
        while left and (chunk := fh.read(min(left, 1 << 20))):
            chunks.append(chunk)
            left -= len(chunk)
        buf = b"".join(chunks)
    if len(buf) != nbytes:
        raise TruncatedFileError(
            f"truncated {what}: expected {nbytes} bytes, got {len(buf)}"
        )
    return buf


def read_bundle(path) -> FeatureBundle:
    with open(path, "rb") as fh:
        magic, *dims, flags = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, "header")
        )
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if min(dims) < 1:
            raise FormatError("header carries a zero dimension")
        payloads = []
        for what, shape in payload_shapes(*dims).items():
            raw = _read_exact(fh, 4 * math.prod(shape), what)
            # a signalling-NaN pattern warns in the cast; validate rejects it
            with np.errstate(invalid="ignore"):
                payloads.append(np.frombuffer(raw, dtype="<f4")
                                .astype(np.float64).reshape(shape))
        text = None
        if flags & FLAG_TEXT:
            (tlen,) = struct.unpack("<I", _read_exact(fh, 4, "text length"))
            try:
                text = _read_exact(fh, tlen, "text").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"text is not UTF-8: {exc}") from exc
    bundle = FeatureBundle(*dims, *payloads, text)
    bundle.validate(attn_tol=1e-3)
    return bundle


def synth_bundle(seed: int, grid_h: int, grid_w: int,
                 c_vis: int, c_txt: int) -> FeatureBundle:
    """Deterministic gaussian stand-in for encoder features.

    Payload k of `payload_shapes` (file order) is drawn as one row of its
    element count from Philox key `seed * 8 + k`, so golden values are
    reproducible: patches 0, cls_token 1, eos_token 2, and cls_attention 3,
    the softmax of its draw. The stream does not depend on the row split,
    so the (1, rows * cols) draw reshaped is the (rows, cols) draw."""
    dims = (grid_h, grid_w, c_vis, c_txt)
    if min(dims) < 1:
        raise ValidationError("all bundle dimensions must be >= 1")
    payloads = {
        what: seeded_fill(seed * 8 + k, 1, math.prod(shape)).reshape(shape)
        for k, (what, shape) in enumerate(payload_shapes(*dims).items())}
    payloads["cls_attention"] = softmax_rows(payloads["cls_attention"][None])[0]
    bundle = FeatureBundle(*dims, **payloads)
    bundle.validate()
    return bundle
