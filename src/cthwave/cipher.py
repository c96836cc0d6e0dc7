"""Image encryption pipeline: 2-level chaotic Haar transform, spiral
swapping, inverse transform, quantization, XOR combine.

Two modes are supported.  Literal mode derives the mask image F from the
plaintext itself (the published pipeline; useful for transform statistics,
not invertible from ciphertext alone).  Keystream mode derives F from a
key-generated pseudorandom image instead, which makes decryption exact;
the diffusion audit applies to keystream mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cthwave.chaos import (_BURN_CHUNK, DEFAULT_BURN_IN, MAX_BURN_IN, ChaosParams,
                           LambdaStream, _integer, _shown, nonnegative_int)
from cthwave.imageio import _UINT8, byte_image
from cthwave.wavelet import ButterflyMatrix, build_level_matrix, forward_2d, inverse_2d
# Unused here; bench/tracer.py wraps them by name in this module.
from cthwave.wavelet import merge_subbands, split_subbands  # noqa: F401

# Smallest quadrant side the spiral swap is defined for; smaller ones stay in
# place.  Swapped ones need an even side, so a side is 4, 12 or a multiple of 8.
MIN_SWAP_SIDE = 4

# Largest side an image may have.  A side s costs s**2 orbit steps (2 minutes
# at 0.44 us each for 2**14) and a fresh-key encrypt peaks near 22 bytes per
# pixel (5.5 GiB); the swap gather's int32 index would wrap from side 46,344.
MAX_SIDE = 2**14

# Extra burn-in of the keystream's stream on the stage-1 parameters.  Its
# pixels start at iterate burn_in + 1001, and stage 1's 2n slopes take
# iterates burn_in + 1 .. burn_in + 2n, so from side 504 on the first
# 2n - 1000 pixels share their iterates with stage 1's last slopes (v1 keys).
KEYSTREAM_BURN_OFFSET = 1000

MODES = ("literal", "keystream")

# Entries in each of the process's four caches: keystream masks and stage
# matrices per (key, side) and swap gathers per side, each read-only, and
# parsed keys per key-file text (keyfile.parse_key_file).
# Keep it below 32: the bench self-test replays 32 keys and needs each to miss.
MASK_CACHE_SIZE = 8

# Elements per block of quantize's mod-256 step: 128 KiB of float64.
_QUANTIZE_BLOCK = 2**14


class CipherModeError(ValueError):
    """Operation invoked in a cipher mode that does not support it."""


@dataclass(frozen=True)
class KeySchedule:
    """Four chaotic parameter sets (one per transform stage) plus settings.

    Stage order: level-1 forward, level-2 forward, level-2 inverse,
    level-1 inverse.

    The hash is computed once, when the key is built, from the stages,
    burn-in and normalization, so each cache lookup by key reads one stored
    integer.  It leaves out the mode, whose string hash would depend on
    PYTHONHASHSEED: an unpickled key still hashes like an equal fresh one.
    """

    stages: tuple[ChaosParams, ChaosParams, ChaosParams, ChaosParams]
    burn_in: int = DEFAULT_BURN_IN
    normalized: bool = False
    mode: str = "keystream"

    def __post_init__(self) -> None:
        if not (isinstance(self.stages, tuple) and len(self.stages) == 4
                and all(isinstance(p, ChaosParams) for p in self.stages)):
            raise ValueError(
                f"stages must be a tuple of 4 ChaosParams, got {self.stages!r}"
            )
        object.__setattr__(self, "burn_in", nonnegative_int("burn_in", self.burn_in))
        if self.burn_in > MAX_BURN_IN:
            raise ValueError(f"burn_in must be <= 2**20, got {_shown(self.burn_in)}")
        if not isinstance(self.normalized, bool):
            raise ValueError(f"normalization must be a bool, got {self.normalized!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "_hash", hash((self.stages, self.burn_in,
                                                self.normalized)))

    def __hash__(self) -> int:
        return self._hash


def _spiral(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (rows, cols) of every cell of an n x n grid, spiralling outward.

    Starts at 1-based (n/2, n/2+1); run lengths 1, 1, 2, 2, 3, 3, ... with
    directions cycling left, down, right, up (this matches the published
    anchor swaps).  Runs up to length n + 1 reach every cell; steps falling
    outside the grid are dropped.
    """
    seg = np.arange(2 * n + 2)
    runs, d = seg // 2 + 1, seg % 4
    r = np.repeat(np.array([0, 1, 0, -1])[d], runs)  # left, down, right, up
    c = np.repeat(np.array([-1, 0, 1, 0])[d], runs)
    r = np.cumsum(np.concatenate(([n // 2 - 1], r)))
    c = np.cumsum(np.concatenate(([n // 2], c)))
    inside = (r >= 0) & (r < n) & (c >= 0) & (c < n)
    return r[inside], c[inside]


def _swap_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the cells one spiral swap exchanges in a 2n x 2n
    array of quadrant side n: the LL cells in spiral order, and their
    partners.

    LL visits pair with LH, HL, HH in rotation.  Each band is scanned row
    by row with columns moving by 3 from an anchor; after the last row the
    scan restarts with the anchor moved one column toward the interior, so
    its three sweeps cover disjoint column residue classes.
    """
    stride = 2 * n
    ll_r, ll_c = _spiral(n)
    partner = np.empty_like(ll_r)
    down, up = np.arange(n), np.arange(n - 1, -1, -1)
    # Band origin, 0-based column anchor, column step, row order.  Anchors
    # n-1, 1, 2 reproduce the published first swaps (1, n'), (n', 2), (1, 3);
    # LH descends, HL and HH ascend.
    scans = (
        (n * stride, n - 1, -3, down),
        (n, 1, 3, up),
        (n * stride + n, 2, 3, down),
    )
    for k, (origin, anchor, step, rows) in enumerate(scans):
        end, shift = (-1, -1) if step < 0 else (n, 1)
        sweeps = [
            (rows[:, None] * stride + np.arange(anchor + s * shift, end, step)).ravel()
            for s in range(3)
        ]
        visits = partner[k::3]
        visits[:] = origin + np.concatenate(sweeps)[: visits.size]
    return ll_r * stride + ll_c, partner


def spiral_swap(f: np.ndarray) -> np.ndarray:
    """One level's spiral swap: a copy of the 2q x 2q array f, any dtype,
    with its LL cells (spiral order) exchanged with detail-band cells.

    Partner bands cycle LH -> HL -> HH per visited LL cell; partner
    positions follow per-band stride-3 scans anchored at the published
    swap positions.  The swapped cells are pairwise disjoint, so the swap
    is an involution.
    """
    f = np.asarray(f)
    m = f.shape[0] if f.ndim == 2 and f.shape[0] == f.shape[1] else 0
    q = m // 2
    if m % 4 or q < MIN_SWAP_SIDE:
        raise ValueError(f"spiral swap needs a square array whose quadrant side is "
                         f"even and >= {MIN_SWAP_SIDE}, got shape {f.shape}")
    ll, partner = _swap_index(q)
    out = f.copy()
    flat = out.reshape(-1)
    flat[ll], flat[partner] = flat[partner], flat[ll]
    return out


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _mask_perm(n: int) -> np.ndarray:
    """Read-only flat gather index of both spiral swaps of an n x n two-level
    decomposition: spiral_swap of an int32 arange's top-left n/2 square
    (level 2), then of all of it (level 1); smaller quadrants stay put."""
    perm = np.arange(n * n, dtype=np.int32).reshape(n, n)
    h = n // 2
    if h // 2 >= MIN_SWAP_SIDE:
        perm[:h, :h] = spiral_swap(perm[:h, :h])
    if h >= MIN_SWAP_SIDE:
        perm = spiral_swap(perm)
    perm = perm.reshape(-1)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _stage_matrices(ks: KeySchedule, n: int) -> tuple[ButterflyMatrix, ...]:
    """The four read-only stage matrices of key ks at side n, one per stage:
    level 1 (stages 1 and 4) at side n, level 2 (stages 2 and 3) at n/2.
    Each at side s is built from the first 2s slopes of a fresh stream on
    its stage's parameters, with ks's burn-in and normalization."""
    sides = (n, n // 2, n // 2, n)
    return tuple(build_level_matrix(s, LambdaStream(p, ks.burn_in).lambdas(2 * s),
                                    ks.normalized) for p, s in zip(ks.stages, sides))


def _analysis(m: np.ndarray, ks: KeySchedule) -> np.ndarray:
    """Both forward levels of key ks on a square image m whose side n 4
    divides, as a new float array: stage 1 at side n, then stage 2 in place
    on the top-left n/2 square.  forward_2d is looked up in this module,
    where the benchmark wraps it by name."""
    n, h = m.shape[0], m.shape[0] // 2
    h1, h2 = _stage_matrices(ks, n)[:2]
    f = forward_2d(m, h1)
    forward_2d(f[:h, :h], h2, out=f[:h, :h])
    return f


def chaotic_image(m: np.ndarray, ks: KeySchedule) -> np.ndarray:
    """Produce the real-valued mask image F from an input image.

    _analysis's two forward levels (stages 1-2), the level-2 then level-1
    spiral swaps as one cached gather, then two inverse levels with their
    own matrices (stages 3-4), level 2 in place on the top-left quadrant
    first.  Quadrants too small for the spiral (side < 4) pass through
    unswapped.  The four stage matrices depend on the key and side only and
    are cached per (key, side).  The inverse calls stay inline, like
    _analysis's forward ones, because the benchmark wraps inverse_2d by
    name in this module.

    A uint8 image is read as it is (the first pass's ufuncs cast it to
    float exactly), and every transform after the first writes in place, so
    besides the transforms' own buffers the chain holds at most two n x n
    float arrays, both during the gather.
    """
    m = np.asarray(m)
    _check_side(m.shape, "image")
    n, h = m.shape[0], m.shape[0] // 2
    f = _analysis(m, ks)
    # Indexing, not np.take: np.take copies a read-only index array first.
    f = f.reshape(-1)[_mask_perm(n)].reshape(n, n)
    _, _, h3, h4 = _stage_matrices(ks, n)
    inverse_2d(f[:h, :h], h3, out=f[:h, :h])
    return inverse_2d(f, h4, out=f)


def quantize(f: np.ndarray) -> np.ndarray:
    """Round half away from zero, then reduce modulo 256 into [0, 255]."""
    f = np.asarray(f, dtype=float)
    out = np.abs(f, order="C")
    # max propagates NaN, so one reduction finds NaN and inf alike.
    if not np.isfinite(np.max(out, initial=0.0)):
        raise ValueError("cannot quantize non-finite values")
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, f, out=out)
    # out is integral, so out - 256 floor(out / 256) is exact and equals mod.
    flat = out.reshape(-1)
    q = np.empty(min(flat.size, _QUANTIZE_BLOCK))
    for i in range(0, flat.size, _QUANTIZE_BLOCK):
        block = flat[i:i + _QUANTIZE_BLOCK]
        t = q[:block.size]
        np.multiply(block, 1.0 / 256.0, out=t)
        np.floor(t, out=t)
        t *= 256.0
        block -= t
    return out.astype(np.uint8)


def xor_combine(f_bytes: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Bitwise XOR per pixel of two uint8 arrays; other dtypes are refused."""
    f_bytes, m = np.asarray(f_bytes), np.asarray(m)
    if f_bytes.dtype != _UINT8 or m.dtype != _UINT8:
        raise ValueError(f"xor_combine needs uint8, got {f_bytes.dtype} and {m.dtype}")
    if f_bytes.shape != m.shape:
        raise ValueError(f"shape mismatch: {f_bytes.shape} vs {m.shape}")
    return np.bitwise_xor(f_bytes, m)


def keystream_image(ks: KeySchedule, n: int) -> np.ndarray:
    """Key-derived pseudorandom byte image, filled row-major.

    Driven by a dedicated stream on the stage-1 parameters with an extra
    burn-in offset; each pixel is floor(frac(x) * 256) for one iterate x.
    Its orbit segment overlaps stage 1's from side 504 on: the first
    2n - 1000 pixels come from the iterates of stage 1's last 2n - 1000
    slopes (KEYSTREAM_BURN_OFFSET).  The orbit is folded _BURN_CHUNK
    iterates at a time, so it is never held whole.
    """
    # (n,) is not a square shape, so a side that is not an integer is refused.
    _check_side((n, n) if _integer(n) is not None else (n,), "side")
    stream = LambdaStream(ks.stages[0], ks.burn_in + KEYSTREAM_BURN_OFFSET)
    image = np.empty(n * n, dtype=np.uint8)
    for i in range(0, image.size, _BURN_CHUNK):
        x = np.frombuffer(stream.orbit(min(_BURN_CHUNK, image.size - i)), dtype=float)
        b = np.floor(x)
        np.subtract(x, b, out=b)
        b *= 256.0
        # frac(x) < 1, so b < 256 and truncation already lands in [0, 255].
        image[i:i + b.size] = b
    return image.reshape(n, n)


def _check_side(shape: tuple[int, ...], name: str) -> None:
    """Refuse any shape but a square one of side 4, 12 or a multiple of 8 up
    to MAX_SIDE."""
    n = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if n not in (4, 12) and (n <= 0 or n % 8 or n > MAX_SIDE):
        raise ValueError(f"{name} must be square, at most {MAX_SIDE} pixels wide, "
                         f"with side 4, 12 or a multiple of 8, got shape {shape}")


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
    m = byte_image(m, "plaintext")
    _check_side(m.shape, "plaintext")
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
    e = byte_image(e, "ciphertext")
    _check_side(e.shape, "ciphertext")
    return xor_combine(e, _keystream_mask(ks, e.shape[0]))


def verify_literal_roundtrip(e: np.ndarray, m: np.ndarray, ks: KeySchedule) -> bool:
    """Check a literal-mode ciphertext against its known plaintext; a
    keystream key is refused (decrypt inverts its ciphertexts)."""
    if ks.mode != "literal":
        raise CipherModeError("verify_literal_roundtrip needs a literal-mode key")
    e = byte_image(e, "ciphertext")
    _check_side(e.shape, "ciphertext")
    m = byte_image(m, "plaintext")
    _check_side(m.shape, "plaintext")
    return bool(np.array_equal(xor_combine(e, quantize(chaotic_image(m, ks))), m))
