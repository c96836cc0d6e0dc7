"""The published 4x4 worked example: its slopes, its matrix and its control
parameters; and the whole-array forms of the kernels that now work in
bounded buffers.  Needs numpy and cthwave only, so
scripts/reproduce_worked_matrix.py imports it without pytest; the tests
import it the same way."""

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
