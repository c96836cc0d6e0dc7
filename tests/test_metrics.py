import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cthwave.imageio import synthetic_test_image
from cthwave.metrics import (
    ANALYZE_PAIRS,
    KEYSPACE_INSTANCES,
    ZeroVarianceError,
    analyze_image,
    correlation_adjacent,
    entropy_normalized,
    histogram,
    key_space_bits,
    mean_intensity,
    npcr,
    uaci,
)
from conftest import traced_peak_bytes

byte_images = arrays(np.uint8, (4, 4), elements=st.integers(0, 255))


def oracle_entropy(img):
    """Exhaustive histogram entropy, independent of the numpy path."""
    counts = {}
    for v in np.asarray(img).ravel().tolist():
        counts[v] = counts.get(v, 0) + 1
    n = sum(counts.values())
    h = sum(c / n * math.log2(n / c) for c in counts.values())
    return h / 8.0


def oracle_npcr(c1, c2):
    diff = sum(
        1
        for a, b in zip(np.asarray(c1).ravel().tolist(), np.asarray(c2).ravel().tolist())
        if a != b
    )
    return diff / c1.size * 100.0


def oracle_uaci(c1, c2):
    total = sum(
        abs(a - b) / 255.0
        for a, b in zip(np.asarray(c1).ravel().tolist(), np.asarray(c2).ravel().tolist())
    )
    return total / c1.size * 100.0


class TestHistogram:
    def test_constant_image(self):
        img = np.full((16, 16), 42, np.uint8)
        h = histogram(img)
        assert h[42] == 256 and h.sum() == 256

    def test_bins_sum_to_pixels(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (13, 7)).astype(np.uint8)
        assert histogram(img).sum() == img.size

    def test_ramp_is_uniform(self):
        img = np.tile(np.arange(256, dtype=np.uint8), (256, 1))
        assert np.all(histogram(img) == 256)


class TestMeanIntensity:
    def test_constant(self):
        assert mean_intensity(np.full((8, 8), 100, np.uint8)) == 100.0

    def test_half_and_half(self):
        img = np.zeros((2, 2), np.uint8)
        img[0] = 255
        assert mean_intensity(img) == 127.5


class TestEntropy:
    def test_uniform_is_one(self):
        img = np.tile(np.arange(256, dtype=np.uint8), (256, 1))
        assert entropy_normalized(img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_is_zero(self):
        assert entropy_normalized(np.full((8, 8), 7, np.uint8)) == 0.0

    def test_constant_is_unsigned_zero(self):
        # -0.0 == 0.0, so only the sign shows a printed "-0.000000".
        e = entropy_normalized(np.full((8, 8), 7, np.uint8))
        assert math.copysign(1.0, e) == 1.0

    def test_two_equiprobable_values(self):
        img = np.zeros((2, 2), np.uint8)
        img[0] = 200
        assert entropy_normalized(img) == pytest.approx(1.0 / 8.0, rel=1e-12)

    @given(byte_images)
    def test_permutation_invariance(self, img):
        rng = np.random.default_rng(1)
        shuffled = rng.permutation(img.ravel()).reshape(img.shape)
        assert entropy_normalized(shuffled) == pytest.approx(
            entropy_normalized(img), rel=1e-12
        )


class TestCorrelation:
    def test_perfect_correlation(self):
        img = np.repeat(np.arange(64, dtype=np.uint8)[:, None], 64, axis=1)
        # rows are constant, so horizontal neighbours satisfy y = x
        r = correlation_adjacent(img, "horizontal")
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_natural_image_is_strongly_correlated(self):
        img = synthetic_test_image(256)
        r = correlation_adjacent(img, "horizontal", n_pairs=2000)
        assert 0.85 <= r <= 0.95

    def test_zero_variance_is_distinct_outcome(self):
        with pytest.raises(ZeroVarianceError):
            correlation_adjacent(np.full((16, 16), 9, np.uint8), "vertical")

    def test_sampled_value_is_deterministic(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        a = correlation_adjacent(img, "diagonal")
        b = correlation_adjacent(img, "diagonal")
        assert a == b

    def test_random_image_correlation_small(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (256, 256)).astype(np.uint8)
        sampled = correlation_adjacent(img, "horizontal")
        exact = correlation_adjacent(img, "horizontal", n_pairs=img.size)
        assert abs(sampled) < 0.05
        assert abs(exact) < 0.01

    @pytest.mark.parametrize("shape, direction", [
        ((16, 16), "horizontal"),
        ((16, 16), "vertical"),
        ((16, 16), "diagonal"),
        ((1, 300), "horizontal"),
    ], ids=["16x16-h", "16x16-v", "16x16-d", "1x300-h"])
    def test_every_pair_is_used_within_the_budget(self, shape, direction):
        img = np.random.default_rng(5).integers(0, 256, shape, dtype=np.uint8)
        dr, dc = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}[direction]
        h, w = shape
        x, y = img[: h - dr, : w - dc], img[dr:, dc:]
        expected = np.corrcoef(x.ravel(), y.ravel())[0, 1]
        r = correlation_adjacent(img, direction, n_pairs=x.size)
        assert r == pytest.approx(expected, abs=1e-12)

    def test_sampled_values_are_pinned(self):
        # Above its 2000-pair budget the estimator draws rows, then columns,
        # from a generator seeded with 0; the benchmark's reference audit
        # compares these sampled values with ==.
        img = synthetic_test_image(512)
        got = {d: correlation_adjacent(img, d).hex()
               for d in ("horizontal", "vertical", "diagonal")}
        assert got == {
            "horizontal": "0x1.d3e6a04e60e0ep-1",
            "vertical": "0x1.d3ce7318ca119p-1",
            "diagonal": "0x1.d6812764ae3e0p-1",
        }

    def test_one_pair_is_enough_to_ask_for(self):
        # A single pair has constant marginals: the budget is valid, the
        # coefficient undefined.
        img = np.random.default_rng(4).integers(0, 256, (8, 8), dtype=np.uint8)
        with pytest.raises(ZeroVarianceError):
            correlation_adjacent(img, "horizontal", n_pairs=1)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            correlation_adjacent(np.zeros((8, 8), np.uint8), "antidiagonal")

    @pytest.mark.parametrize("n_pairs, message", [
        (0, "n_pairs must be >= 1, got 0"),
        (-1, "n_pairs must be >= 1, got -1"),
        (2.5, "n_pairs must be an integer, got 2.5"),
        (1e9, "n_pairs must be an integer, got 1000000000.0"),
        (True, "n_pairs must be an integer, got True"),
        ("5", "n_pairs must be an integer, got '5'"),
    ], ids=["0", "-1", "2.5", "1e9", "True", "str"])
    def test_fewer_than_one_pair_rejected(self, n_pairs, message):
        img = np.random.default_rng(4).integers(0, 256, (8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            correlation_adjacent(img, "horizontal", n_pairs=n_pairs)


class TestNpcrUaci:
    def test_equal_images(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert npcr(img, img) == 0.0
        assert uaci(img, img) == 0.0

    def test_all_pixels_changed(self):
        a = np.zeros((8, 8), np.uint8)
        b = np.full_like(a, 1)
        assert npcr(a, b) == 100.0

    def test_single_pixel(self):
        a = np.zeros((256, 256), np.uint8)
        b = a.copy()
        b[0, 0] = 1
        assert npcr(a, b) == pytest.approx(100.0 / 65536, rel=1e-12)

    def test_uaci_extremes(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.full((4, 4), 255, np.uint8)
        assert uaci(a, b) == 100.0

    def test_uaci_constant_offset(self):
        a = np.full((4, 4), 100, np.uint8)
        b = np.full((4, 4), 161, np.uint8)
        assert uaci(a, b) == pytest.approx(61 / 255 * 100, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            npcr(np.zeros((2, 2), np.uint8), np.zeros((4, 4), np.uint8))

    @given(byte_images, byte_images)
    @settings(max_examples=100)
    def test_symmetry_and_oracle_equivalence(self, c1, c2):
        assert npcr(c1, c2) == npcr(c2, c1)
        assert uaci(c1, c2) == pytest.approx(uaci(c2, c1), rel=1e-12)
        assert npcr(c1, c2) == pytest.approx(oracle_npcr(c1, c2), abs=1e-12)
        assert uaci(c1, c2) == pytest.approx(oracle_uaci(c1, c2), abs=1e-12)

    @given(byte_images)
    def test_entropy_oracle_equivalence(self, img):
        assert entropy_normalized(img) == pytest.approx(
            oracle_entropy(img), abs=1e-12
        )


@pytest.mark.parametrize("measure, images, message", [
    (partial(correlation_adjacent, direction="horizontal"), [np.zeros((1, 1), np.uint8)],
     "image too small to supply adjacent pairs"),
    (uaci, [np.zeros((2, 2), np.uint8), np.zeros((4, 4), np.uint8)],
     "shape mismatch: (2, 2) vs (4, 4)"),
], ids=["1x1", "uaci-shapes"])
def test_refuses_images_it_cannot_measure(measure, images, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        measure(*images)


# Peak bytes per unit of work on 512² images: a correlation holds its two
# float64 copies and one product (24 B per pair), uaci its int16 difference
# and numpy's cast buffers.
@pytest.mark.parametrize("measure, units, bound", [
    (lambda a, b: correlation_adjacent(a, "diagonal", ANALYZE_PAIRS), 511 * 511, 25),
    (lambda a, b: analyze_image(a, ANALYZE_PAIRS), 512 * 511, 25),
    (uaci, 512 * 512, 2.5),
], ids=["correlation", "analyze", "uaci"])
def test_peak_memory_per_unit(measure, units, bound):
    a = synthetic_test_image(512)
    b = np.flipud(a).copy()
    assert traced_peak_bytes(lambda: measure(a, b)) <= bound * units


class TestKeySpace:
    def test_single_bit(self):
        # one bit per parameter instance
        assert key_space_bits(0.5) == pytest.approx(KEYSPACE_INSTANCES, rel=1e-12)

    def test_reference_scale(self):
        bits = key_space_bits(1e-3)
        assert bits == pytest.approx(24 * math.log2(1000), rel=1e-12)
        assert bits > 200

    # 1/precision would overflow to inf below about 5.6e-309.
    @pytest.mark.parametrize("p, bits", [(1e-310, 24715.145025961978), (5e-324, 25776.0)])
    def test_subnormal_precision(self, p, bits):
        assert key_space_bits(p) == pytest.approx(bits, rel=1e-12)

    def test_monotone_in_precision(self):
        precisions = [10.0**-k for k in range(1, 9)]
        bits = [key_space_bits(p) for p in precisions]
        assert all(b2 > b1 for b1, b2 in zip(bits, bits[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_range_error(self, p):
        with pytest.raises(ValueError):
            key_space_bits(p)


class TestReport:
    def test_analyze_smoke(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        report = analyze_image(img)
        assert report.histogram.sum() == img.size
        assert 0.0 <= report.entropy_normalized <= 1.0
        assert report.corr_horizontal is not None

    def test_analyze_constant_image_has_undefined_corr(self):
        report = analyze_image(np.full((16, 16), 3, np.uint8))
        assert report.corr_horizontal is None
        assert report.entropy_normalized == 0.0
