"""The v1 specification of the cipher, and the suite's reference data.

The specification computes the whole pipeline again from the paper's
definitions, for reading, not speed: the coupled map's orbit as a plain
loop, the scaling coefficients p0 and p1 of the sloped scaling function,
dense stage matrices built entry by entry, both spiral swaps walked cell by
cell, two dense forward and two dense inverse levels, quantization and the
XOR.  It imports none of the library pieces it mirrors, only the key's data
types, so a digest it recomputes is a second witness of the pinned bytes,
and tests/test_oracles.py checks each of its pieces against the library
piece it mirrors.  The sloped scaling function, its wavelet and the classic
Haar matrix live here too; the cipher uses only their coefficients.

Float operation order is part of v1's contract, and each piece below uses
the library's: p0, p1 = (lambda * lambda / 24 + 1) -+ lambda / 4 (the
paper's lambda^2/24 - lambda/4 + 1 gives other bits of p0 for 37% of 10^6
uniform slopes), f2's denominator ((t * t) * a2) * a2, and
(1 - eps) * y1 + eps * y2.

The file also holds the published 4x4 worked example and the whole-array
forms of the kernels that now work in bounded buffers.  It needs numpy,
math and cthwave only, so scripts/reproduce_worked_matrix.py imports it
without pytest; the tests import it the same way.
"""

import math

import numpy as np

from cthwave.chaos import ChaosParams

# Twelve published slope values of the 4x4 worked example, in slot order
# (H1 averaging rows, H1 differencing rows, H2 averaging row, H2
# differencing row; two draws per row).
REFERENCE_LAMBDAS = [
    1.469, -0.351, -0.075, 0.027,
    -0.070, 0.033, -0.028, 0.156,
    0.674, 0.147, 0.570, 0.834,
]

# Printed entries of the worked 4x4 chaotic transform matrix.
REFERENCE_MATRIX = np.array(
    [
        [0.614, 0.780, 1.057, 1.044],
        [0.835, 1.061, -0.836, -0.826],
        [0.983, -0.992, 0.0, 0.0],
        [0.0, 0.0, 0.993, -0.962],
    ]
)

# Published worked-example control parameters.
REFERENCE_PARAMS = ChaosParams(x0=0.2, n1=3, n2=4, a1=2.0, a2=2.5, eps=0.4)


# v1's constants.
POLE_TOL = 1e-9  # radians between an angle and a tan/cot pole that count as a pole
PERTURBATION = 1e-6  # added to the state once when a step meets a pole
KEYSTREAM_BURN_OFFSET = 1000  # the keystream's extra burn-in on stage 1
MIN_SWAP_SIDE = 4  # smaller quadrants are not spiral-swapped


# 1. The orbit of the coupled map
#    x' = (1 - eps) f1(x) + eps f2(x),
#    f1(x) = tan^2(N1 atan(sqrt x)) / a1^2,  f2(x) = cot^2(N2 atan(1/sqrt x)) / a2^2.

def f1(x, a, n):
    """tan^2(n atan(sqrt x)) / a^2, or None when the angle lies within
    POLE_TOL of a tan pole."""
    theta = n * math.atan(math.sqrt(x))
    if abs(math.fmod(theta, math.pi) - math.pi / 2) < POLE_TOL:
        return None
    t = math.tan(theta)
    return t * t / (a * a)


def f2(x, a, n):
    """cot^2(n atan(1/sqrt x)) / a^2, or None when the angle lies within
    POLE_TOL of a cot pole; inf when the denominator underflows to 0."""
    theta = n * math.atan(1.0 / math.sqrt(x))
    r = math.fmod(theta, math.pi)
    if min(r, math.pi - r) < POLE_TOL:
        return None
    t = math.tan(theta)
    d = t * t * a * a
    return 1.0 / d if d else math.inf


def coupled_map(x, p):
    """One iterate of the coupled map, or None when x is not positive, an
    angle lies within POLE_TOL of a pole or a map value is not finite."""
    if not x > 0.0:
        return None
    y1, y2 = f1(x, p.a1, p.n1), f2(x, p.a2, p.n2)
    if y1 is None or y2 is None or not (math.isfinite(y1) and math.isfinite(y2)):
        return None
    return (1.0 - p.eps) * y1 + p.eps * y2


def orbit(p, skip, count):
    """The count iterates that follow the first skip of the orbit from p.x0.

    A step that meets a pole is taken again from the state plus
    PERTURBATION; meeting one again raises RuntimeError.
    """
    x, out = p.x0, []
    for i in range(skip + count):
        nxt = coupled_map(x, p)
        if nxt is None:
            nxt = coupled_map(x + PERTURBATION, p)
            if nxt is None:
                raise RuntimeError(f"orbit degenerate near x={x}")
        x = nxt
        if i >= skip:
            out.append(x)
    return out


def frac(x):
    return x - math.floor(x)


def slopes(p, burn_in, count):
    """The first count slopes after burn_in iterates: lambda = 4 frac(x) - 2."""
    return [4.0 * frac(x) - 2.0 for x in orbit(p, burn_in, count)]


def keystream_image(ks, n):
    """The n x n keystream image, row-major: one byte floor(frac(x) * 256)
    per iterate of stage 1's orbit after burn_in + KEYSTREAM_BURN_OFFSET."""
    xs = orbit(ks.stages[0], ks.burn_in + KEYSTREAM_BURN_OFFSET, n * n)
    return np.array([int(frac(x) * 256.0) for x in xs], dtype=np.uint8).reshape(n, n)


# 2. The sloped scaling function, its wavelet, and the stage matrices.

def scaling_pair(lam):
    """The sloped scaling coefficients (p0, p1) = lambda^2/24 -+ lambda/4 + 1,
    in the library's operation order."""
    q = lam * lam / 24.0 + 1.0
    return q - lam / 4.0, q + lam / 4.0


def phi(x, lam):
    """Sloped scaling function: lam*(x - 1/2) + 1 on [0, 1), 0 elsewhere;
    nonnegative for lam in [-2, 2]."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x < 1.0)
    out = np.where(inside, lam * (x - 0.5) + 1.0, 0.0)
    return out if out.ndim else float(out)


def psi(x, lam):
    """Sloped Haar wavelet, piecewise linear on [0, 1/2) and [1/2, 1)."""
    x = np.asarray(x, dtype=float)
    p0, p1 = scaling_pair(lam)
    left = p1 * (2.0 * lam * x - lam / 2.0 + 1.0)
    right = -p0 * (2.0 * lam * x - 3.0 * lam / 2.0 + 1.0)
    out = np.where(
        (x >= 0.0) & (x < 0.5),
        left,
        np.where((x >= 0.5) & (x < 1.0), right, 0.0),
    )
    return out if out.ndim else float(out)


def classic_haar_matrix(n):
    """Standard orthonormal Haar transform matrix.

    Built by the Kronecker recursion H_{2m} = (1/sqrt 2) [H_m (x) (1, 1);
    I_m (x) (1, -1)]; for n = 4 this is exactly the textbook matrix with
    rows (1/2, 1/2, 1/2, 1/2), (1/2, 1/2, -1/2, -1/2), (1/sqrt2, -1/sqrt2,
    0, 0), (0, 0, 1/sqrt2, -1/sqrt2).  n must be a power of two >= 2.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    top = np.kron(classic_haar_matrix(n // 2), [1.0, 1.0]) if n > 2 else np.ones((1, 2))
    bottom = np.kron(np.eye(n // 2), [1.0, -1.0])
    return 1.0 / math.sqrt(2.0) * np.vstack([top, bottom])


def stage_matrix(lams, normalized):
    """The dense n x n stage matrix of 2n slopes, entry by entry.

    Averaging row r (top to bottom) holds s p0 and s p1 of the next two
    slopes in columns 2r and 2r + 1; then differencing row n/2 + r holds
    s p1 and -s p0 of the next two in the same columns.  s = 1/sqrt(2)
    normalized, 1 raw.
    """
    n = len(lams) // 2
    s = 1.0 / math.sqrt(2.0) if normalized else 1.0
    slope = iter(lams)
    h = np.zeros((n, n))
    for r in range(n // 2):
        h[r, 2 * r] = s * scaling_pair(next(slope))[0]
        h[r, 2 * r + 1] = s * scaling_pair(next(slope))[1]
    for r in range(n // 2):
        h[n // 2 + r, 2 * r] = s * scaling_pair(next(slope))[1]
        h[n // 2 + r, 2 * r + 1] = -s * scaling_pair(next(slope))[0]
    return h


# 3. The spiral swaps.

def spiral(q):
    """The 0-based cells of a q x q grid, spiralling outward from 1-based
    (q/2, q/2 + 1): runs of 1, 1, 2, 2, 3, 3, ... steps going left, down,
    right, up in turn; steps outside the grid are skipped."""
    r, c = q // 2 - 1, q // 2
    cells = [(r, c)]
    run, turn = 1, 0
    while len(cells) < q * q:
        dr, dc = ((0, -1), (1, 0), (0, 1), (-1, 0))[turn % 4]
        for _ in range(run):
            r, c = r + dr, c + dc
            if 0 <= r < q and 0 <= c < q:
                cells.append((r, c))
        turn += 1
        run += turn % 2 == 0
    return cells


def band_scan(q, anchor, step, rows):
    """0-based cells of a q x q detail band, row by row in the order of
    rows, each row's columns going from anchor by step (+3 or -3) while
    inside the band.  After the last row the scan starts over with the
    anchor one column toward the interior, three times in all, so the
    sweeps cover disjoint column residue classes."""
    toward = 1 if step > 0 else -1
    cells = []
    for sweep in range(3):
        for row in rows:
            col = anchor + sweep * toward
            while 0 <= col < q:
                cells.append((row, col))
                col += step
    return cells


def swap_pairs(q):
    """(LL cell, partner cell) pairs of one spiral swap of a 2q x 2q array,
    0-based in that array: the LL cells in spiral order, partnered with
    LH, HL and HH in turn, each band's partners taken in its scan order."""
    down, up = range(q), range(q - 1, -1, -1)
    # (band origin, scan).  Anchors q, 2, 3 (1-based) give the published
    # first swaps (1, q), (q, 2), (1, 3); LH descends, HL and HH ascend.
    bands = [((q, 0), band_scan(q, q - 1, -3, down)),  # LH
             ((0, q), band_scan(q, 1, 3, up)),  # HL
             ((q, q), band_scan(q, 2, 3, down))]  # HH
    pairs = []
    for i, cell in enumerate(spiral(q)):
        (r0, c0), scan = bands[i % 3]
        r, c = scan[i // 3]
        pairs.append((cell, (r0 + r, c0 + c)))
    return pairs


def spiral_swap(f):
    """A copy of the 2q x 2q array f with every swap pair exchanged."""
    out = np.array(f)
    for a, b in swap_pairs(out.shape[0] // 2):
        out[a], out[b] = f[b], f[a]
    return out


def spiral_swaps(f):
    """Both levels' swaps of an n x n two-level decomposition: level 2's on
    the top-left n/2 square, then level 1's on all of it; a level whose
    quadrant side is below MIN_SWAP_SIDE stays in place."""
    h = f.shape[0] // 2
    f = np.array(f)
    if h // 2 >= MIN_SWAP_SIDE:
        f[:h, :h] = spiral_swap(f[:h, :h])
    if h >= MIN_SWAP_SIDE:
        f = spiral_swap(f)
    return f


# 4. The pipeline.

def stage_matrices(ks, n):
    """The four stage matrices at side n: stages 1 and 4 at n, 2 and 3 at
    n/2, each from the first 2s slopes of its stage's orbit."""
    sides = (n, n // 2, n // 2, n)
    return [stage_matrix(slopes(p, ks.burn_in, 2 * s), ks.normalized)
            for p, s in zip(ks.stages, sides)]


def inverse_level(h, f):
    """H^-1 F H^-T."""
    return np.linalg.solve(h, np.linalg.solve(h, f).T).T


def chaotic_image(m, ks):
    """The mask image F: two forward levels H M H^T (level 2 on the top-left
    quadrant), both spiral swaps, then two inverse levels."""
    n = m.shape[0]
    h = n // 2
    h1, h2, h3, h4 = stage_matrices(ks, n)
    f = h1 @ np.asarray(m, dtype=float) @ h1.T
    f[:h, :h] = h2 @ f[:h, :h] @ h2.T
    f = spiral_swaps(f)
    f[:h, :h] = inverse_level(h3, f[:h, :h])
    return inverse_level(h4, f)


def encrypt(plain, ks):
    """The ciphertext quantize(F) XOR plain, F from the keystream image or,
    in literal mode, from plain itself."""
    source = plain if ks.mode == "literal" else keystream_image(ks, plain.shape[0])
    return quantize(chaotic_image(source, ks)) ^ plain


# The whole-array forms of the buffered kernels, as they were before those
# kernels wrote into bounded buffers.  tests/test_oracles.py checks the
# kernels against them byte for byte.

def analysis_rows(x, h):
    """H x, both halves concatenated (wavelet._analysis_rows)."""
    even, odd = x[0::2], x[1::2]
    a0, a1, d1, d0 = (c[:, None] for c in (h.a0, h.a1, h.d1, h.d0))
    return np.concatenate((a0 * even + a1 * odd, d1 * even - d0 * odd))


def synthesis_rows(y, h):
    """H^-1 y through each block's closed-form inverse (wavelet._synthesis_rows)."""
    half = h.a0.size
    top, bottom = y[:half], y[half:]
    a0, a1, d1, d0 = (c[:, None] for c in (h.a0, h.a1, h.d1, h.d0))
    det = a0 * d0 + a1 * d1
    x = np.empty_like(y)
    x[0::2] = (d0 * top + a1 * bottom) / det
    x[1::2] = (d1 * top - a0 * bottom) / det
    return x


def quantize(f):
    """cipher.quantize with an n^2 bool finiteness check and an n^2 temporary."""
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("cannot quantize non-finite values")
    out = np.abs(f)
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, f, out=out)
    q = out * (1.0 / 256.0)
    np.floor(q, out=q)
    q *= 256.0
    out -= q
    return out.astype(np.uint8)


def rescale_to_bytes(values):
    """imageio.rescale_to_bytes with a temporary per operation."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 128, dtype=np.uint8)
    scaled = (values - lo) / (hi - lo) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def synthetic_test_image(n=256, seed=7):
    """imageio.synthetic_test_image on whole n x n arrays."""
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
