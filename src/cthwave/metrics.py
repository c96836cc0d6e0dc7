"""Statistical audit battery: histogram, entropy, correlation, NPCR, UACI,
key-space sizing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from cthwave.chaos import _integer

__all__ = [
    "MetricsReport",
    "ZeroVarianceError",
    "histogram",
    "mean_intensity",
    "entropy_normalized",
    "correlation_adjacent",
    "npcr",
    "uaci",
    "key_space_bits",
    "analyze_image",
]

DIRECTIONS = {
    "horizontal": (0, 1),
    "vertical": (1, 0),
    "diagonal": (1, 1),
}

DEFAULT_PAIRS = 2000

# Pixel pairs per correlation in `cthwave analyze`, as in the criterion-7
# audit: exact for images up to 1000x1000, and sampled above that with noise
# well below criterion 7's 0.02 bound.  DEFAULT_PAIRS stays 2000:
# bench/reference.json pins analyze_image's output.
ANALYZE_PAIRS = 1_000_000

KEYSPACE_INSTANCES = 24  # six control parameters used in four stages

# Compared with instead of np.uint8, which numpy converts on every comparison.
_UINT8 = np.dtype(np.uint8)


class ZeroVarianceError(ArithmeticError):
    """A correlation marginal is constant, so the coefficient is undefined."""


@dataclass(frozen=True)
class MetricsReport:
    """Summary of the single-image audit battery."""

    histogram: np.ndarray
    mean_intensity: float
    entropy_normalized: float
    corr_horizontal: Optional[float]
    corr_vertical: Optional[float]
    corr_diagonal: Optional[float]


def _as_bytes(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype != _UINT8:
        raise ValueError(f"expected a uint8 image, got dtype {img.dtype}")
    return img


def histogram(img: np.ndarray) -> np.ndarray:
    """Counts per grey level, 256 bins."""
    return np.bincount(_as_bytes(img).ravel(), minlength=256)


def mean_intensity(img: np.ndarray) -> float:
    """Arithmetic mean of all pixels."""
    return float(np.mean(_as_bytes(img), dtype=np.float64))


def entropy_normalized(img: np.ndarray) -> float:
    """Shannon entropy of the grey-level histogram over log2(256) = 8 bits.

    Empty bins contribute zero (the x log(1/x) -> 0 limit).
    """
    counts = histogram(img)
    n = counts.sum()
    if n == 0:
        raise ValueError("empty image")
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum() / 8.0) + 0.0  # + 0.0 turns -0.0 into 0.0


def correlation_adjacent(
    img: np.ndarray, direction: str, n_pairs: int = DEFAULT_PAIRS
) -> float:
    """Correlation coefficient of adjacent pixel pairs; diagonal is (+1, +1).

    Exact over every pair when the image has at most n_pairs of them;
    otherwise estimated from n_pairs anchors drawn uniformly with replacement
    by a generator seeded with 0.  Uses population (1/N) variance and
    covariance estimators.
    """
    img = _as_bytes(img)
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {sorted(DIRECTIONS)}")
    if _integer(n_pairs) is None:
        raise ValueError(f"n_pairs must be an integer, got {n_pairs!r}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    dr, dc = DIRECTIONS[direction]
    h, w = img.shape
    if h - dr < 1 or w - dc < 1:
        raise ValueError("image too small to supply adjacent pairs")
    x, y = img[: h - dr, : w - dc], img[dr:, dc:]
    if x.size > n_pairs:
        rng = np.random.default_rng(0)
        rows = rng.integers(0, h - dr, size=n_pairs)
        cols = rng.integers(0, w - dc, size=n_pairs)
        x, y = x[rows, cols], y[rows, cols]
    x, y = x.astype(np.float64), y.astype(np.float64)
    ex, ey = x.mean(), y.mean()
    dx, dy = x - ex, y - ey
    vx, vy = (dx * dx).mean(), (dy * dy).mean()
    if vx == 0.0 or vy == 0.0:
        raise ZeroVarianceError(
            f"{direction} marginal is constant; correlation undefined"
        )
    return float((dx * dy).mean() / math.sqrt(vx * vy))


def npcr(c1: np.ndarray, c2: np.ndarray) -> float:
    """Number-of-pixels change rate between two images, in percent."""
    c1, c2 = _as_bytes(c1), _as_bytes(c2)
    if c1.shape != c2.shape:
        raise ValueError(f"shape mismatch: {c1.shape} vs {c2.shape}")
    return float(np.count_nonzero(c1 != c2) / c1.size * 100.0)


def uaci(c1: np.ndarray, c2: np.ndarray) -> float:
    """Unified average changing intensity, in percent.

    Uses the absolute pixel difference scaled by 255.
    """
    c1, c2 = _as_bytes(c1), _as_bytes(c2)
    if c1.shape != c2.shape:
        raise ValueError(f"shape mismatch: {c1.shape} vs {c2.shape}")
    diff = np.abs(c1.astype(np.int16) - c2.astype(np.int16))
    return float(diff.mean(dtype=np.float64) / 255.0 * 100.0)


def key_space_bits(precision: float) -> float:
    """Brute-force resistance in bits for parameters known to a precision.

    Each of the KEYSPACE_INSTANCES real parameters contributes
    log2(1/precision) bits.
    """
    if not 0.0 < precision < 1.0:
        raise ValueError(f"precision must lie in (0, 1), got {precision}")
    return KEYSPACE_INSTANCES * math.log2(1.0 / precision)


def analyze_image(img: np.ndarray, n_pairs: int = DEFAULT_PAIRS) -> MetricsReport:
    """Run the single-image battery; undefined correlations become None."""
    corrs = {}
    for direction in DIRECTIONS:
        try:
            corrs[direction] = correlation_adjacent(img, direction, n_pairs)
        except ZeroVarianceError:
            corrs[direction] = None
    return MetricsReport(
        histogram=histogram(img),
        mean_intensity=mean_intensity(img),
        entropy_normalized=entropy_normalized(img),
        corr_horizontal=corrs["horizontal"],
        corr_vertical=corrs["vertical"],
        corr_diagonal=corrs["diagonal"],
    )
