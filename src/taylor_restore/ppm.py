"""Binary PPM (P6) image files.

Written header is exactly ``P6\\n{width} {height}\\n255\\n`` followed by
height*width RGB byte triples in row-major order. Floats in [0, 1] are
quantized with round-half-up: byte = floor(v * 255 + 0.5). Reading returns
the bytes themselves as (3, H, W) uint8 samples, an eighth of their float64
size; a consumer that computes on them divides by 255.0, so byte b stands for
b / 255. The reader tolerates '#' comments and arbitrary whitespace between
header tokens, but only magic P6 with maxval 255.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import FormatError

CHANNELS = 3  # P6 stores RGB triples: every image and every model has three channels


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    """Write a (3, H, W) array with values in [0, 1]."""
    if image.ndim != 3 or image.shape[0] != CHANNELS:
        raise FormatError(f"PPM image must have shape (3, H, W), got {image.shape}")
    if not np.isfinite(image).all():
        raise FormatError("PPM values must be finite")
    if image.min() < 0.0 or image.max() > 1.0:
        raise FormatError(
            f"PPM values must lie in [0, 1], got range [{image.min()!r}, {image.max()!r}]"
        )
    _, height, width = image.shape
    quantized = np.floor(image * 255.0 + 0.5).astype(np.uint8)
    payload = quantized.transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(payload)


def _read_header_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated tokens, skipping # comments."""
    tokens: list[bytes] = []
    pos = 0
    size = len(blob)
    while len(tokens) < count:
        while pos < size and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < size and blob[pos:pos + 1] == b"#":
            while pos < size and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < size and not blob[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise FormatError("PPM header ended before all fields were read")
        tokens.append(blob[start:pos])
    if pos >= size:
        raise FormatError("PPM header not followed by pixel data")
    return tokens, pos + 1  # single whitespace byte separates header from payload


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a P6 file into its (3, H, W) uint8 samples, a C-contiguous array of its own."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P"):
        raise FormatError(f"{path}: not a PPM file")
    tokens, payload_start = _read_header_tokens(blob, 4)
    magic, width_tok, height_tok, maxval_tok = tokens
    if magic != b"P6":
        raise FormatError(f"{path}: unsupported magic {magic.decode('ascii', 'replace')!r}, need P6")
    try:
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric PPM header field") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}, need 255")
    expected = CHANNELS * width * height
    payload = memoryview(blob)[payload_start:payload_start + expected]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: truncated pixel data ({len(payload)} of {expected} bytes)"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, CHANNELS)
    return np.ascontiguousarray(pixels.transpose(2, 0, 1))
