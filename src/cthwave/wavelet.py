"""Sloped Haar butterfly transforms and 2-D sub-band coding.

The sloped variant replaces the flat scaling step by a line of slope
lambda in [-2, 2], which makes the scaling coefficients

    p0 = lambda^2/24 - lambda/4 + 1
    p1 = lambda^2/24 + lambda/4 + 1

key-dependent.  A single-level transform matrix is a permuted block
diagonal of 2x2 butterflies, each pairing two input samples with four such
coefficients built from its slopes; it is stored as those n/2 blocks and
applied in O(n^2) per 2-D transform with no BLAS.  Every block's
coefficients are positive, so its |det| is at least (8/9) s^2 (s^2 = 1
raw, 1/2 normalized) and the matrix is invertible by construction.
Multilevel behaviour comes from recursive application to the LL quadrant,
in place on one n x n array (the pyramid layout of Mallat, 1989).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterator, Sequence

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _scaling_pair(lam):
    """(p0, p1) of a slope or, elementwise, of an array of slopes."""
    q = lam * lam / 24.0 + 1.0
    return q - lam / 4.0, q + lam / 4.0


@dataclass(frozen=True, eq=False)
class ButterflyMatrix:
    """Single-stage n x n sloped-Haar matrix built from its 2n slopes, held
    as its n/2 2x2 blocks.

    Block r maps columns 2r, 2r+1 to rows r and n/2 + r through
    [[a0, a1], [d1, -d0]]: row r averages with weights p~0, p~1 of slopes
    lam[2r], lam[2r+1], and row n/2 + r differences with weights p~1, -p~0
    of slopes lam[n+2r], lam[n+2r+1].  p~ = p / sqrt(2) when normalized,
    p~ = p when raw.  p0, p1 lie in [2/3, 5/3] on [-2, 2], so every block
    has |det| = a0*d0 + a1*d1 >= (8/9) s^2 and the matrix is invertible by
    construction.  Only the coefficient vectors are kept, as read-only
    copies, so a matrix can be shared between calls.
    """

    lam: InitVar[np.ndarray]
    normalized: bool = False
    a0: np.ndarray = field(init=False, repr=False)
    a1: np.ndarray = field(init=False, repr=False)
    d1: np.ndarray = field(init=False, repr=False)
    d0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, lam: np.ndarray) -> None:
        lam = np.asarray(lam, dtype=float)
        n = lam.size // 2
        if lam.ndim != 1 or lam.size != 2 * n or n < 2 or n % 2:
            raise ValueError(f"need a 1-D array of 2n slopes with n even and >= 2, "
                             f"got shape {lam.shape}")
        # The |det| bound above holds only for slopes in [-2, 2]; NaN is refused too.
        outside = ~(np.abs(lam) <= 2.0)
        if outside.any():
            raise ValueError(f"lambda must lie in [-2, 2], got {lam[outside][0]}")
        scale = _INV_SQRT2 if self.normalized else 1.0
        p0, p1 = _scaling_pair(lam)
        p0, p1 = scale * p0, scale * p1
        coeffs = dict(a0=p0[0:n:2], a1=p1[1:n:2], d1=p1[n::2], d0=p0[n + 1::2])
        for k, c in coeffs.items():
            c = np.ascontiguousarray(c)  # the transforms read these fastest
            c.flags.writeable = False
            object.__setattr__(self, k, c)

    @property
    def n(self) -> int:
        return 2 * self.a0.size

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, built on demand."""
        half = self.a0.size
        r = np.arange(half)
        m = np.zeros((self.n, self.n))
        m[r, 2 * r] = self.a0
        m[r, 2 * r + 1] = self.a1
        m[half + r, 2 * r] = self.d1
        m[half + r, 2 * r + 1] = -self.d0
        return m


def build_level_matrix(
    n: int, lambdas: Iterator[float], normalized: bool = False
) -> ButterflyMatrix:
    """Single-stage n x n sloped-Haar butterfly from the next 2n slopes of a
    source.

    Slopes are consumed in a fixed order that is part of the key contract:
    averaging rows top to bottom (p~0 slot first), then differencing rows
    top to bottom (p~1 slot first); see ButterflyMatrix.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return ButterflyMatrix(np.fromiter(lambdas, float, 2 * n), normalized)


def _analysis_rows(x: np.ndarray, h: ButterflyMatrix, out: np.ndarray,
                   scratch: np.ndarray) -> None:
    """H x into out: each pair of rows 2r, 2r+1 becomes rows r and n/2 + r.

    scratch has the shape of one half of out; out overlaps neither x nor
    scratch.  Each half takes the products and the sum or difference of the
    two-term formula, in that order.
    """
    half = h.a0.size
    even, odd = x[0::2], x[1::2]
    top, bottom = out[:half], out[half:]
    a0, a1, d1, d0 = (c[:, None] for c in (h.a0, h.a1, h.d1, h.d0))
    np.multiply(a0, even, out=top)
    np.multiply(a1, odd, out=scratch)
    top += scratch
    np.multiply(d1, even, out=bottom)
    np.multiply(d0, odd, out=scratch)
    bottom -= scratch


def _synthesis_rows(y: np.ndarray, h: ButterflyMatrix, out: np.ndarray,
                    scratch: np.ndarray) -> None:
    """H^-1 y into out, through the closed-form inverse of each 2x2 block;
    out and scratch as for _analysis_rows."""
    half = h.a0.size
    top, bottom = y[:half], y[half:]
    even, odd = out[0::2], out[1::2]
    a0, a1, d1, d0 = (c[:, None] for c in (h.a0, h.a1, h.d1, h.d0))
    det = a0 * d0 + a1 * d1
    np.multiply(d0, top, out=even)
    np.multiply(a1, bottom, out=scratch)
    even += scratch
    even /= det
    np.multiply(d1, top, out=odd)
    np.multiply(a0, bottom, out=scratch)
    odd -= scratch
    odd /= det


def _two_passes(rows, x: np.ndarray, h: ButterflyMatrix, out) -> np.ndarray:
    """rows over the rows of x, then over the columns, into out (a new array
    if None; x itself allowed).

    The row pass writes a C-ordered buffer; the column pass reads it
    transposed and writes out transposed, so each pass keeps the memory
    order of its input.  One half-size scratch serves both.  Integer
    inputs are cast to float by the first pass's ufuncs, exactly.
    """
    x = np.asarray(x)
    n = h.n
    if x.shape != (n, n):
        raise ValueError(f"matrix shape {x.shape} does not match n={n}")
    if out is None:
        out = np.empty((n, n))
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (n, n)):
        raise ValueError(f"out must be a float64 array of shape {(n, n)}")
    work = np.empty((n, n))
    scratch = np.empty(n * n // 2)
    rows(x, h, work, scratch.reshape(n // 2, n))
    rows(work.T, h, out.T, scratch.reshape(n, n // 2).T)
    return out


def forward_2d(m: np.ndarray, h: ButterflyMatrix, *, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Two-dimensional transform F = H M H^T (rows, then columns), into
    out if given; out may be m itself."""
    return _two_passes(_analysis_rows, m, h, out)


def inverse_2d(f: np.ndarray, h: ButterflyMatrix, *, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Inverse transform M = H^-1 F H^-T (rows, then columns), through each
    block's closed-form inverse, into out if given; out may be f itself."""
    return _two_passes(_synthesis_rows, f, h, out)


def split_subbands(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Copies of the (LL, HL, LH, HH) quadrants of an even square matrix."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 2:
        raise ValueError(f"expected an even square matrix, got shape {f.shape}")
    h = f.shape[0] // 2
    return f[:h, :h].copy(), f[:h, h:].copy(), f[h:, :h].copy(), f[h:, h:].copy()


def merge_subbands(bands: Sequence[np.ndarray]) -> np.ndarray:
    """Exact inverse placement of split_subbands; the quadrants must share
    one shape."""
    shapes = [np.shape(b) for b in bands]
    if len(set(shapes)) != 1:
        raise ValueError(f"quadrants must share one shape, got {shapes}")
    ll, hl, lh, hh = bands
    return np.block([[ll, hl], [lh, hh]])


def _pyramid(x: np.ndarray, matrices: Sequence[ButterflyMatrix]) -> np.ndarray:
    """A float copy of x, refused unless square with matrix sides n, n/2,
    n/4, ...; a butterfly's side is even, so 2^levels divides n."""
    x = np.array(x, dtype=float)
    n = x.shape[0] if x.ndim == 2 and x.shape[0] == x.shape[1] else 0
    sides = [h.n for h in matrices]
    if not sides or sides != [n >> k for k in range(len(sides))]:
        raise ValueError(f"image shape {x.shape} does not fit matrix sides {sides}; "
                         f"they must run n, n/2, n/4, ...")
    return x


def decompose(image: np.ndarray, matrices: Sequence[ButterflyMatrix]) -> np.ndarray:
    """Multilevel decomposition in the pyramid layout, one matrix per level.

    Level k transforms the top-left n/2^(k-1) square in place with
    matrices[k-1].  Level k's LH / HL / HH sit in the quadrants of that
    square; the deepest approximation is the top-left n/2^levels square.
    """
    f = _pyramid(image, matrices)
    for h in matrices:
        forward_2d(f[:h.n, :h.n], h, out=f[:h.n, :h.n])
    return f


def reconstruct(f: np.ndarray, matrices: Sequence[ButterflyMatrix]) -> np.ndarray:
    """Invert decompose with the same matrices, deepest level first."""
    m = _pyramid(f, matrices)
    for h in reversed(matrices):
        inverse_2d(m[:h.n, :h.n], h, out=m[:h.n, :h.n])
    return m
