"""Grayscale image container, binary PGM (P5) I/O, helpers."""

from __future__ import annotations

import errno
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from cthwave.chaos import _integer, _shown

# P5, then three fields, each after optional whitespace and # comments (a
# comment runs to the end of its line or of the data).  Nothing after the
# magic can fail to match: a field that the data ends before matches empty.
_HEADER = re.compile(rb"P5(?![^\s#])" + rb"(?:\s|#[^\n]*)*(\S*)" * 3)

# Rows per block of synthetic_test_image.  A multiple of 8, so every block
# starts on a multiple of 8 elements and numpy's SIMD sin and cos group the
# elements in the same lanes as one call on the whole image would.
_SYNTH_ROWS = 64

# Windows only: without it os.open gives text mode, which turns \n into
# \r\n on write and \r\n into \n, stopping at byte 0x1A, on read.
_O_BINARY = getattr(os, "O_BINARY", 0)

# Compared with instead of np.uint8, which numpy converts on every comparison.
_UINT8 = np.dtype(np.uint8)


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


def byte_image(x: object, name: str, like: Optional[np.ndarray] = None) -> np.ndarray:
    """np.asarray(x) if it is a byte image, a non-empty 2-D uint8 array, of
    like's shape when like is given; else a ValueError naming name."""
    x = np.asarray(x)
    if x.ndim != 2 or x.dtype != _UINT8 or not x.size:
        raise ValueError(f"{name} must be a non-empty 2-D uint8 array, "
                         f"got {x.dtype} of shape {x.shape}")
    if like is not None and x.shape != like.shape:
        raise ValueError(f"shape mismatch: {like.shape} vs {x.shape}")
    return x


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale image, pixels row-major; read_pgm's are read-only."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", byte_image(self.pixels, "pixels"))


def _read_file(path: Union[str, Path]) -> bytes:
    """All of a file's bytes in four system calls when it reports its size."""
    fd = os.open(path, os.O_RDONLY | _O_BINARY)
    try:
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):  # os.read would not name the file
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        size = st.st_size
        data = os.read(fd, size) if size else b""
        if len(data) < size or not size:
            # Pipes, devices and /proc report size 0, and Linux caps one
            # read near 2 GiB: read on to end of file, into one buffer.
            with open(fd, "rb", buffering=0, closefd=False) as rest:
                data += rest.readall()
    finally:
        os.close(fd)
    return data


def read_pgm(path: Union[str, Path]) -> GrayImage:
    """Read a binary PGM (magic P5, maxval 255); comments permitted.

    write_pgm overwrites in place, so a read racing a write may mix bytes.
    """
    data = _read_file(path)
    if (m := _HEADER.match(data)) is None:  # P5, then whitespace or #
        raise PgmError(f"{path}: not a binary PGM (missing P5 magic)")
    if not m[3]:
        raise PgmError(f"{path}: truncated PGM header")
    try:
        # int() would also take a sign and "_" digit groups.
        if not all(map(bytes.isdigit, m.groups())):
            raise ValueError
        width, height, maxval = map(int, m.groups())
    except ValueError:  # so does int() of over 4,300 digits
        raise PgmError(f"{path}: non-numeric PGM header field") from None
    if width <= 0 or height <= 0:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"{path}: unsupported maxval {maxval} (must be 255)")
    # Exactly one whitespace byte separates the header from the payload.
    pos = m.end() + 1
    if len(data) - pos < width * height:
        raise PgmError(f"{path}: truncated pixel payload")
    return GrayImage(np.ndarray((height, width), np.uint8, data, pos))


def write_pgm(img: GrayImage, path: Union[str, Path]) -> None:
    """Write a binary PGM; write-then-read is the identity.

    An old file is overwritten in place and trimmed if longer, never emptied
    first (on ext4 that starts writeback at close).  It is not atomic.
    """
    height, width = img.pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    data = b"".join((header, np.ascontiguousarray(img.pixels)))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | _O_BINARY, 0o666)
    try:
        view = memoryview(data)
        while view:  # a pipe may take less than asked
            view = view[os.write(fd, view):]
        # Devices and pipes report size 0, and ftruncate fails on them.
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def rescale_to_bytes(values: np.ndarray) -> np.ndarray:
    """Affine rescale of a real matrix to [0, 255]; constant input -> 128.

    Works in place on one float temporary; values is not changed.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 128, dtype=np.uint8)
    scaled = values - lo
    scaled /= hi - lo
    scaled *= 255.0
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    return scaled.astype(np.uint8)


def synthetic_test_image(n: int = 256, seed: int = 7) -> np.ndarray:
    """Deterministic natural-looking n x n grayscale image, n >= 2.

    Low-frequency sinusoidal shading plus fine-grained texture; adjacent
    pixels correlate around 0.9, like a photographic test image.  The
    shading and the texture are made _SYNTH_ROWS rows at a time, so
    temporaries stay small; the shading's standard deviation is taken over
    the whole image.
    """
    if (side := _integer(n)) is None or side < 2:
        raise ValueError(f"n must be an integer >= 2, got {_shown(n)}")
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, side)
    base = np.empty((side, side))
    for r in range(0, side, _SYNTH_ROWS):
        xx, yy = t, t[r:r + _SYNTH_ROWS, None]
        np.add(
            0.5 * np.sin(2 * np.pi * (1.3 * xx + 0.6 * yy))
            + 0.3 * np.cos(2 * np.pi * (0.8 * xx - 1.7 * yy + 0.2)),
            0.2 * np.sin(2 * np.pi * (3.1 * xx * yy)),
            out=base[r:r + _SYNTH_ROWS],
        )
    base /= base.std()
    noise = np.empty((min(side, _SYNTH_ROWS), side))
    for r in range(0, side, _SYNTH_ROWS):
        texture = noise[:side - r]
        rng.standard_normal(out=texture)
        texture *= 0.3
        base[r:r + _SYNTH_ROWS] += texture
    return rescale_to_bytes(base)
