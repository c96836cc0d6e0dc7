"""Grayscale image container, binary PGM (P5) I/O, helpers."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "GrayImage",
    "PgmError",
    "read_pgm",
    "write_pgm",
    "rescale_to_bytes",
    "synthetic_test_image",
]

class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, pixels row-major."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {px.shape}")
        if px.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {px.dtype}")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _read_header_tokens(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    i = start
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise PgmError("truncated PGM header")
        tokens.append(data[i:j])
        i = j
    return tokens, i


def read_pgm(path: Union[str, Path]) -> GrayImage:
    """Read a binary PGM (magic P5, maxval 255); comments permitted."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise PgmError("not a binary PGM (missing P5 magic)")
    try:
        tokens, pos = _read_header_tokens(data, 3, start=2)
    except PgmError:
        raise PgmError(f"{path}: truncated PGM header") from None
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmError(f"{path}: non-numeric PGM header field") from None
    if width <= 0 or height <= 0:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"{path}: unsupported maxval {maxval} (must be 255)")
    # Exactly one whitespace byte separates the header from the payload.
    pos += 1
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmError(f"{path}: truncated pixel payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.copy())


def write_pgm(img: GrayImage, path: Union[str, Path]) -> None:
    """Write a binary PGM; write-then-read is the identity."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def rescale_to_bytes(values: np.ndarray) -> np.ndarray:
    """Affine rescale of a real matrix to [0, 255]; constant input -> 128."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 128, dtype=np.uint8)
    scaled = (values - lo) / (hi - lo) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def synthetic_test_image(n: int = 256, seed: int = 7) -> np.ndarray:
    """Deterministic natural-looking grayscale image.

    Low-frequency sinusoidal shading plus fine-grained texture; adjacent
    pixels correlate around 0.9, like a photographic test image.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n), indexing="ij")
    base = (
        0.5 * np.sin(2 * np.pi * (1.3 * xx + 0.6 * yy))
        + 0.3 * np.cos(2 * np.pi * (0.8 * xx - 1.7 * yy + 0.2))
        + 0.2 * np.sin(2 * np.pi * (3.1 * xx * yy))
    )
    base /= base.std()
    texture = 0.3 * rng.standard_normal((n, n))
    return rescale_to_bytes(base + texture)
