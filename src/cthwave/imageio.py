"""Grayscale image container, binary PGM (P5) I/O, helpers."""

from __future__ import annotations

import os
import re
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

# One header field after optional whitespace and # comments.  A comment runs
# to the end of its line (or of the data): the lookahead stops backtracking
# from splitting it into a token.
_HEADER_FIELD = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


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


def read_pgm(path: Union[str, Path]) -> GrayImage:
    """Read a binary PGM (magic P5, maxval 255); comments permitted.

    write_pgm overwrites in place, so a read racing a write may mix bytes.
    """
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise PgmError("not a binary PGM (missing P5 magic)")
    tokens, pos = [], 2
    for _ in range(3):
        m = _HEADER_FIELD.match(data, pos)
        if m is None:
            raise PgmError(f"{path}: truncated PGM header")
        tokens.append(m.group(1))
        pos = m.end()
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
    if len(data) - pos < width * height:
        raise PgmError(f"{path}: truncated pixel payload")
    pixels = np.frombuffer(data, np.uint8, width * height, pos)
    return GrayImage(pixels.reshape(height, width).copy())


def write_pgm(img: GrayImage, path: Union[str, Path]) -> None:
    """Write a binary PGM; write-then-read is the identity.

    An old file is overwritten in place and trimmed if longer, never emptied
    first (on ext4 that starts writeback at close).  It is not atomic.
    """
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    # O_BINARY (Windows only) stops text mode turning \n into \r\n.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(img.pixels))
        # Devices and pipes report size 0, and truncate() fails on them.
        if os.fstat(fd).st_size > f.tell():
            f.truncate()


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
