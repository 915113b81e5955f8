"""Feature-bundle container: the inputs one sample carries into the projector.

A bundle holds pre-extracted encoder features (patch grid, class token, text
EOS token, class-attention vector) plus optional raw text for provenance. On
disk it is the QMOPFT01 binary container: a fixed little-endian header
followed by float32 payloads in a fixed order. In memory everything is
float64.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import float32_image, seeded_fill, softmax_rows

MAGIC = b"QMOPFT01"
_HEADER = struct.Struct("<8s5I")  # magic, grid_h, grid_w, c_vis, c_txt, flags
FLAG_TEXT = 1
PAYLOADS = ("patches", "cls_token", "eos_token", "cls_attention")  # file order


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

    def validate(self, attn_tol: float = 1e-6) -> None:
        if min(self.grid_h, self.grid_w, self.c_vis, self.c_txt) < 1:
            raise ValidationError("all bundle dimensions must be >= 1")
        n = self.n_tokens
        if self.patches.shape != (n, self.c_vis):
            raise ValidationError(
                f"patches shape {self.patches.shape} != ({n}, {self.c_vis})"
            )
        if self.cls_token.shape != (self.c_vis,):
            raise ValidationError("cls_token length mismatch")
        if self.eos_token.shape != (self.c_txt,):
            raise ValidationError("eos_token length mismatch")
        if self.cls_attention.shape != (n,):
            raise ValidationError("cls_attention length mismatch")
        for what in PAYLOADS:
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
    reject the inf it becomes."""
    bundle.validate()
    payloads = {what: float32_image(getattr(bundle, what))
                for what in PAYLOADS}
    for what, image in payloads.items():
        if not np.isfinite(image).all():
            raise ValidationError(f"{what} has entries beyond float32 range")
    flags = FLAG_TEXT if bundle.text_raw is not None else 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            MAGIC, bundle.grid_h, bundle.grid_w, bundle.c_vis, bundle.c_txt, flags
        ))
        for image in payloads.values():
            fh.write(image)
        if bundle.text_raw is not None:
            raw = bundle.text_raw.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


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
        magic, gh, gw, cv, ct, flags = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, "header")
        )
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if min(gh, gw, cv, ct) < 1:
            raise FormatError("header carries a zero dimension")
        n = gh * gw

        def payload(count, what):
            raw = _read_exact(fh, 4 * count, what)
            # a signalling-NaN pattern warns in the cast; validate rejects it
            with np.errstate(invalid="ignore"):
                return np.frombuffer(raw, dtype="<f4").astype(np.float64)

        patches = payload(n * cv, "patches").reshape(n, cv)
        cls_token = payload(cv, "cls_token")
        eos_token = payload(ct, "eos_token")
        cls_attention = payload(n, "cls_attention")
        text = None
        if flags & FLAG_TEXT:
            (tlen,) = struct.unpack("<I", _read_exact(fh, 4, "text length"))
            try:
                text = _read_exact(fh, tlen, "text").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"text is not UTF-8: {exc}") from exc
    bundle = FeatureBundle(gh, gw, cv, ct, patches, cls_token,
                           eos_token, cls_attention, text)
    bundle.validate(attn_tol=1e-3)
    return bundle


# Per-field subseed offsets for synth_bundle; documented so golden values are
# reproducible: field k of seed s draws from Philox key s*8+k.
_FIELD_PATCHES, _FIELD_CLS, _FIELD_EOS, _FIELD_ATTN = 0, 1, 2, 3


def synth_bundle(seed: int, grid_h: int, grid_w: int,
                 c_vis: int, c_txt: int) -> FeatureBundle:
    """Deterministic gaussian stand-in for encoder features."""
    if min(grid_h, grid_w, c_vis, c_txt) < 1:
        raise ValidationError("all bundle dimensions must be >= 1")
    n = grid_h * grid_w
    patches = seeded_fill(seed * 8 + _FIELD_PATCHES, n, c_vis)
    cls_token = seeded_fill(seed * 8 + _FIELD_CLS, 1, c_vis)[0]
    eos_token = seeded_fill(seed * 8 + _FIELD_EOS, 1, c_txt)[0]
    attn_logits = seeded_fill(seed * 8 + _FIELD_ATTN, 1, n)
    cls_attention = softmax_rows(attn_logits)[0]
    bundle = FeatureBundle(grid_h, grid_w, c_vis, c_txt,
                           patches, cls_token, eos_token, cls_attention)
    bundle.validate()
    return bundle
