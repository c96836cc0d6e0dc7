"""Image encryption pipeline: 2-level chaotic Haar transform, spiral
swapping, inverse transform, quantization, XOR combine.

Two modes are supported.  Literal mode derives the mask image F from the
plaintext itself (the published pipeline; useful for transform statistics,
not invertible from ciphertext alone).  Keystream mode derives F from a
key-generated pseudorandom image instead, which makes decryption exact;
the diffusion audit applies to keystream mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from cthwave.chaos import ChaosParams, LambdaStream
from cthwave.wavelet import (
    SubBands,
    build_level_matrix,
    forward_2d,
    inverse_2d,
    merge_subbands,
    split_subbands,
)

__all__ = [
    "KeySchedule",
    "SwapRecord",
    "CipherModeError",
    "spiral_swap",
    "chaotic_image",
    "quantize",
    "xor_combine",
    "keystream_image",
    "encrypt",
    "decrypt",
    "verify_literal_roundtrip",
]

# Smallest quadrant side the spiral swap is defined for.
MIN_SWAP_SIDE = 4

# Extra burn-in applied to the keystream generator so its orbit segment is
# disjoint from the one driving the stage-1 transform matrix.
KEYSTREAM_BURN_OFFSET = 1000

MODES = ("literal", "keystream")

# Keystream masks kept per (key, side); each is one read-only uint8 image.
# Keep it below 32: the bench self-test replays 32 keys and needs each to miss.
MASK_CACHE_SIZE = 8


class CipherModeError(ValueError):
    """Operation invoked in a cipher mode that does not support it."""


@dataclass(frozen=True)
class KeySchedule:
    """Four chaotic parameter sets (one per transform stage) plus settings.

    Stage order: level-1 forward, level-2 forward, level-2 inverse,
    level-1 inverse.
    """

    stages: tuple[ChaosParams, ChaosParams, ChaosParams, ChaosParams]
    burn_in: int = 64
    normalized: bool = False
    mode: str = "keystream"

    def __post_init__(self) -> None:
        if len(self.stages) != 4:
            raise ValueError(f"expected 4 stage parameter sets, got {len(self.stages)}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SwapRecord:
    """Ordered swaps executed by spiral_swap, with 1-based indices.

    Each entry is (band_id, (ll_row, ll_col), (partner_row, partner_col)).
    The swapped cells are pairwise disjoint, so replaying the record (in any
    order) is an involution on the four quadrants.
    """

    swaps: tuple[tuple[str, tuple[int, int], tuple[int, int]], ...]


def _spiral_order(n: int) -> list[tuple[int, int]]:
    """Visit every cell of an n x n grid once, spiralling outward.

    Starts at 1-based (n/2, n/2+1); run lengths 1, 1, 2, 2, 3, 3, ... with
    directions cycling left, down, right, up (this matches the published
    anchor swaps).  Cells falling outside the grid are skipped.
    """
    r, c = n // 2 - 1, n // 2  # 0-based start
    cells = [(r, c)]
    seen = 1
    directions = ((0, -1), (1, 0), (0, 1), (-1, 0))  # left, down, right, up
    run, d = 1, 0
    while seen < n * n:
        dr, dc = directions[d]
        for _ in range(run):
            r += dr
            c += dc
            if 0 <= r < n and 0 <= c < n:
                cells.append((r, c))
                seen += 1
                if seen == n * n:
                    break
        d = (d + 1) % 4
        if d in (0, 2):
            run += 1
    return cells


def _band_scan(
    n: int, anchor_col: int, step: int, rows: list[int], count: int
) -> list[tuple[int, int]]:
    """Stride-3 column scan of a detail band, row by row.

    Within each row the columns move by ``step`` (+3 or -3) starting from
    anchor_col (1-based); when a row is exhausted the scan wraps to the next
    row in ``rows`` at the anchor column.  If all rows are exhausted the
    sweep restarts with the anchor shifted by one toward the interior, which
    keeps every generated cell distinct (the three sweeps cover disjoint
    column residue classes).
    """
    out: list[tuple[int, int]] = []
    for sweep in range(3):
        start = anchor_col - sweep if step < 0 else anchor_col + sweep
        for row in rows:
            col = start
            while 1 <= col <= n:
                out.append((row, col))
                if len(out) == count:
                    return out
                col += step
    raise ValueError(f"band scan exhausted before {count} cells (n={n})")


@lru_cache(maxsize=None)
def _swap_pairs(n: int) -> tuple[tuple[str, tuple[int, int], tuple[int, int]], ...]:
    """Full swap sequence for quadrant side n, 1-based indices."""
    order = _spiral_order(n)
    counts = {
        "lh": (len(order) + 2) // 3,
        "hl": (len(order) + 1) // 3,
        "hh": len(order) // 3,
    }
    # Column anchors n, 2, 3 reproduce the published first swaps
    # (1, n'), (n', 2), (1, 3); LH descends, HL and HH ascend.
    scans = {
        "lh": _band_scan(n, n, -3, list(range(1, n + 1)), counts["lh"]),
        "hl": _band_scan(n, 2, 3, list(range(n, 0, -1)), counts["hl"]),
        "hh": _band_scan(n, 3, 3, list(range(1, n + 1)), counts["hh"]),
    }
    pairs = []
    cursors = {"lh": 0, "hl": 0, "hh": 0}
    bands = ("lh", "hl", "hh")
    for i, (r, c) in enumerate(order):
        band = bands[i % 3]
        partner = scans[band][cursors[band]]
        cursors[band] += 1
        pairs.append((band, (r + 1, c + 1), partner))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _swap_indices(n: int) -> tuple[tuple[str, np.ndarray, np.ndarray], ...]:
    """Per band, flat row-major LL sources and band destinations of
    _swap_pairs(n), as read-only index arrays."""
    pairs = _swap_pairs(n)
    out = []
    for band in ("lh", "hl", "hh"):
        src = np.array([(p[1][0] - 1) * n + p[1][1] - 1 for p in pairs if p[0] == band])
        dst = np.array([(p[2][0] - 1) * n + p[2][1] - 1 for p in pairs if p[0] == band])
        src.flags.writeable = dst.flags.writeable = False
        out.append((band, src, dst))
    return tuple(out)


def spiral_swap(sb: SubBands) -> tuple[SubBands, SwapRecord]:
    """Exchange LL cells (spiral order) with detail-band cells in rotation.

    Partner bands cycle LH -> HL -> HH per visited LL cell; partner
    positions follow per-band stride-3 scans anchored at the published
    swap positions.  Values are permuted, never modified.
    """
    n = sb.ll.shape[0]
    if sb.ll.shape != (n, n) or n < MIN_SWAP_SIDE or n % 2:
        raise ValueError(
            f"spiral swap needs square quadrants with even side >= "
            f"{MIN_SWAP_SIDE}, got {sb.ll.shape}"
        )
    ll = sb.ll.copy()
    targets = {"lh": sb.lh.copy(), "hl": sb.hl.copy(), "hh": sb.hh.copy()}
    flat_ll = ll.reshape(-1)
    for band, src, dst in _swap_indices(n):
        flat_band = targets[band].reshape(-1)
        tmp = flat_ll[src]
        flat_ll[src] = flat_band[dst]
        flat_band[dst] = tmp
    swapped = SubBands(ll=ll, lh=targets["lh"], hl=targets["hl"],
                       hh=targets["hh"], level=sb.level)
    return swapped, SwapRecord(_swap_pairs(n))


def chaotic_image(m: np.ndarray, ks: KeySchedule) -> np.ndarray:
    """Produce the real-valued mask image F from an input image.

    Two forward decomposition levels (stages 1-2), spiral swapping on the
    level-2 then level-1 quadrants, then two inverse levels with fresh
    matrices (stages 3-4).  Quadrants too small for the spiral (side < 4)
    pass through unswapped.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n) or n % 4:
        raise ValueError(f"image must be square with side divisible by 4, got {m.shape}")
    s1, s2, s3, s4 = (LambdaStream(p, ks.burn_in) for p in ks.stages)

    h1 = build_level_matrix(n, s1, ks.normalized)
    bands1 = split_subbands(forward_2d(m, h1), level=1)
    h2 = build_level_matrix(n // 2, s2, ks.normalized)
    bands2 = split_subbands(forward_2d(bands1.ll, h2), level=2)

    if n // 4 >= MIN_SWAP_SIDE:
        bands2, _ = spiral_swap(bands2)
    bands1 = replace(bands1, ll=merge_subbands(bands2))
    if n // 2 >= MIN_SWAP_SIDE:
        bands1, _ = spiral_swap(bands1)

    g2 = build_level_matrix(n // 2, s3, ks.normalized)
    ll1 = inverse_2d(bands1.ll, g2)
    g1 = build_level_matrix(n, s4, ks.normalized)
    return inverse_2d(merge_subbands(replace(bands1, ll=ll1)), g1)


def quantize(f: np.ndarray) -> np.ndarray:
    """Round half away from zero, then reduce modulo 256 into [0, 255]."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("cannot quantize non-finite values")
    out = np.abs(f)
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, f, out=out)
    np.mod(out, 256.0, out=out)
    return out.astype(np.uint8)


def xor_combine(f_bytes: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Bitwise XOR per pixel."""
    f_bytes = np.asarray(f_bytes, dtype=np.uint8)
    m = np.asarray(m, dtype=np.uint8)
    if f_bytes.shape != m.shape:
        raise ValueError(f"shape mismatch: {f_bytes.shape} vs {m.shape}")
    return np.bitwise_xor(f_bytes, m)


def keystream_image(ks: KeySchedule, n: int) -> np.ndarray:
    """Key-derived pseudorandom byte image, filled row-major.

    Driven by a dedicated stream on the stage-1 parameters with an extra
    burn-in offset; each pixel is floor(frac(x) * 256) clamped to [0, 255].
    """
    if n <= 0 or n % 4:
        raise ValueError(f"side must be positive and divisible by 4, got {n}")
    stream = LambdaStream(ks.stages[0], ks.burn_in + KEYSTREAM_BURN_OFFSET)
    x = np.frombuffer(stream.orbit(n * n), dtype=float)
    b = np.floor(x)
    np.subtract(x, b, out=b)
    b *= 256.0
    # frac(x) < 1, so b < 256 and truncation already lands in [0, 255].
    return b.astype(np.uint8).reshape(n, n)


def _check_image(x: np.ndarray, name: str) -> np.ndarray:
    """Refuse anything but a square uint8 image with side divisible by 4."""
    x = np.asarray(x)
    if x.dtype != np.uint8:
        raise ValueError(f"{name} must have dtype uint8, got {x.dtype}")
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] == 0 or x.shape[0] % 4:
        raise ValueError(
            f"{name} must be square with a positive side divisible by 4, "
            f"got shape {x.shape}"
        )
    return x


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _keystream_mask(ks: KeySchedule, n: int) -> np.ndarray:
    """Read-only keystream-mode mask quantize(F) for key ks at side n."""
    mask = quantize(chaotic_image(keystream_image(ks, n), ks))
    mask.flags.writeable = False
    return mask


def encrypt(m: np.ndarray, ks: KeySchedule) -> np.ndarray:
    """Encrypt a byte image: E = quantize(F) XOR M.

    F comes from the plaintext (literal mode) or from a key-derived
    pseudorandom image (keystream mode), whose quantized mask is cached
    per (key, side).
    """
    m = _check_image(m, "plaintext")
    if ks.mode == "literal":
        mask = quantize(chaotic_image(m, ks))
    else:
        mask = _keystream_mask(ks, m.shape[0])
    return xor_combine(mask, m)


def decrypt(e: np.ndarray, ks: KeySchedule) -> np.ndarray:
    """Invert encrypt; only keystream mode is invertible from E alone."""
    if ks.mode != "keystream":
        raise CipherModeError(
            "literal mode cannot be decrypted without the plaintext; "
            "use keystream mode"
        )
    e = _check_image(e, "ciphertext")
    return xor_combine(e, _keystream_mask(ks, e.shape[0]))


def verify_literal_roundtrip(e: np.ndarray, m: np.ndarray, ks: KeySchedule) -> bool:
    """Check a literal-mode ciphertext against its known plaintext."""
    e = _check_image(e, "ciphertext")
    m = _check_image(m, "plaintext")
    return bool(np.array_equal(xor_combine(e, quantize(chaotic_image(m, ks))), m))
