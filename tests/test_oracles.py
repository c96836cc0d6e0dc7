"""The buffered kernels against the whole-array forms they replaced
(tests/reference.py), byte for byte.

Writing into destinations and blocks must keep the same IEEE operations in
the same order, so every output byte is unchanged.  These tests need no
pinned bytes, so they also hold on a platform whose libm misses the known
answers.
"""

import re

import numpy as np
import pytest

import reference as ref
from cthwave import wavelet
from cthwave.cipher import quantize
from cthwave.imageio import rescale_to_bytes, synthetic_test_image
from cthwave.wavelet import ButterflyMatrix, forward_2d, inverse_2d

SIDES = [2, 4, 6, 12, 63, 64, 100, 512]
EVEN_SIDES = [n for n in SIDES if n % 2 == 0]
SEEDS = [0, 7, 2024]


def _butterfly(n, seed, normalized):
    rng = np.random.default_rng([n, seed])
    return ButterflyMatrix(rng.uniform(-2.0, 2.0, 2 * n), normalized)


def _inputs(n, seed):
    """An n x n uint8 and float image, each C-ordered, F-ordered and as the
    bottom-right quadrant view of a 2n x 2n array."""
    rng = np.random.default_rng([seed, n])
    cases = {}
    for dtype, big in (("uint8", rng.integers(0, 256, (2 * n, 2 * n), dtype=np.uint8)),
                       ("float", rng.standard_normal((2 * n, 2 * n)) * 300.0)):
        c = big[:n, :n].copy()
        cases[f"{dtype}-C"] = c
        cases[f"{dtype}-F"] = np.asfortranarray(c)
        cases[f"{dtype}-quadrant"] = big[n:, n:]
    return cases


def _reference_2d(rows, x, h):
    x = np.asarray(x, dtype=float)
    return rows(rows(x, h).T, h).T


class TestTransformPasses:
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", EVEN_SIDES)
    def test_2d_transforms_match_the_concatenating_passes(self, n, seed, normalized):
        h = _butterfly(n, seed, normalized)
        for name, x in _inputs(n, seed).items():
            before = x.copy()
            for fn, rows in ((forward_2d, ref.analysis_rows),
                             (inverse_2d, ref.synthesis_rows)):
                want = _reference_2d(rows, x, h).tobytes()
                assert fn(x, h).tobytes() == want, (fn.__name__, name)
                out = np.full((2 * n, 2 * n), np.nan)[:n, n:]
                assert fn(x, h, out=out) is out
                assert out.tobytes() == want, (fn.__name__, name, "into a view")
                assert np.array_equal(x, before), name
                if x.dtype == np.float64:
                    quadrant = np.zeros((2 * n, 2 * n))[n:, n:]
                    quadrant[...] = x
                    for y in (x.copy(order="K"), quadrant):
                        assert fn(y, h, out=y) is y
                        assert y.tobytes() == want, (fn.__name__, name, "in place")

    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("cols", [1, 63, 64])
    @pytest.mark.parametrize("n", EVEN_SIDES)
    def test_row_passes_match_on_any_layout(self, n, cols, normalized):
        h = _butterfly(n, cols, normalized)
        rng = np.random.default_rng([n, cols])
        big = rng.standard_normal((2 * n, 2 * cols)) * 300.0
        c = big[:n, :cols].copy()
        views = {"C": c, "F": np.asfortranarray(c), "view": big[n:, cols:],
                 "uint8": rng.integers(0, 256, (n, cols), dtype=np.uint8)}
        for name, x in views.items():
            for rows, want in ((wavelet._analysis_rows, ref.analysis_rows),
                               (wavelet._synthesis_rows, ref.synthesis_rows)):
                out = np.empty_like(x, dtype=float)
                rows(x, h, out, np.empty((n // 2, cols)))
                expect = want(np.asarray(x, dtype=float), h)
                assert out.tobytes() == expect.tobytes(), (rows.__name__, name)

    def test_out_of_the_wrong_shape_or_dtype_refused(self):
        h = _butterfly(4, 0, False)
        for out in (np.empty((4, 5)), np.empty((4, 4), dtype=np.float32), [[0.0] * 4] * 4):
            for fn in (forward_2d, inverse_2d):
                with pytest.raises(ValueError, match=re.escape(
                        "out must be a float64 array of shape (4, 4)")):
                    fn(np.zeros((4, 4)), h, out=out)


class TestQuantize:
    TIES = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 127.5, -127.5, 255.5, -255.5,
            256.5, -256.5, 0.0, -0.0, 0.49999999999999994, -0.49999999999999994]
    LARGE = [2.0**52 + 0.5, -(2.0**52) - 0.5, 2.0**53, -(2.0**53), 2.0**63, -(2.0**63),
             1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324]

    @pytest.mark.parametrize("values", [TIES, LARGE], ids=["ties", "large"])
    def test_special_values(self, values):
        f = np.array(values)
        assert quantize(f).tobytes() == ref.quantize(f).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (7,), (128, 128), (300, 301), (64, 64, 5)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_random_arrays_across_block_edges(self, shape, order):
        rng = np.random.default_rng(len(shape))
        v = np.array(rng.standard_normal(shape) * 10.0**rng.integers(0, 12, shape))
        v.reshape(-1)[::5] = np.round(v.reshape(-1)[::5]) + 0.5  # ties
        f = np.asarray(v, order=order)
        got, want = quantize(f), ref.quantize(f)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 16383, 16384, 89999])
    def test_non_finite_refused_wherever_it_is(self, bad, where):
        f = np.zeros(90000)
        f[where] = bad
        for fn in (quantize, ref.quantize):
            with pytest.raises(ValueError, match="^cannot quantize non-finite values$"):
                fn(f)


class TestImageHelpers:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIDES)
    def test_synthetic_test_image_matches_the_whole_array_form(self, n, seed):
        assert (synthetic_test_image(n, seed).tobytes()
                == ref.synthetic_test_image(n, seed).tobytes())

    def test_synthetic_test_image_default_arguments(self):
        assert synthetic_test_image().tobytes() == ref.synthetic_test_image().tobytes()

    @pytest.mark.parametrize("values", [
        np.random.default_rng(1).standard_normal((37, 41)) * 1e3,
        np.asfortranarray(np.random.default_rng(2).standard_normal((16, 16))),
        np.arange(-5, 6, dtype=np.int64).reshape(1, 11),
        np.full((3, 3), 7.0),
        np.array([[0.0, 1.0], [2.0, 3.0]]),
    ], ids=["float", "fortran", "int", "constant", "ramp"])
    def test_rescale_to_bytes_matches_and_keeps_its_input(self, values):
        before = values.copy()
        assert rescale_to_bytes(values).tobytes() == ref.rescale_to_bytes(values).tobytes()
        assert np.array_equal(values, before)
