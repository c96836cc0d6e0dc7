"""The library against tests/reference.py, byte for byte: the buffered
kernels against the whole-array forms they replaced, and each piece of the
v1 specification against the library piece it mirrors.

Writing into destinations and blocks must keep the same IEEE operations in
the same order, so every output byte is unchanged.  These tests need no
pinned bytes, as both sides call the same libm, so they also hold on a
platform whose libm misses the known answers.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from cthwave import chaos, wavelet
from cthwave.chaos import ChaosParams, LambdaStream, StreamDegeneracyError
from cthwave.cipher import _stage_matrices, encrypt, keystream_image, quantize
from cthwave.imageio import rescale_to_bytes, synthetic_test_image
from cthwave.wavelet import ButterflyMatrix, forward_2d, inverse_2d

from conftest import random_chaos_params, random_key_schedule

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


class TestScalingAndWavelet:
    def test_phi_midpoint_is_one(self):
        for lam in (-2.0, -0.5, 0.0, 1.0, 2.0):
            assert ref.phi(0.5, lam) == 1.0

    def test_phi_zero_slope_is_indicator(self):
        assert ref.phi(0.0, 0.0) == 1.0
        assert ref.phi(0.999, 0.0) == 1.0
        assert ref.phi(-0.001, 0.0) == 0.0
        assert ref.phi(1.0, 0.0) == 0.0

    def test_psi_zero_slope_is_step(self):
        assert ref.psi(0.25, 0.0) == 1.0
        assert ref.psi(0.75, 0.0) == -1.0
        assert ref.psi(1.2, 0.0) == 0.0

    def test_psi_takes_its_right_piece_at_one_half(self):
        assert ref.psi(0.5, 0.0) == -1.0
        p0, _ = ref.scaling_pair(-1.5)
        assert ref.psi(0.5, -1.5) == pytest.approx(-p0 * 1.75, rel=1e-15)


class TestClassicHaar:
    def test_four_point_matrix(self):
        h = ref.classic_haar_matrix(4)
        s = 1 / math.sqrt(2)
        expected = np.array(
            [
                [0.5, 0.5, 0.5, 0.5],
                [0.5, 0.5, -0.5, -0.5],
                [s, -s, 0, 0],
                [0, 0, s, -s],
            ]
        )
        assert np.allclose(h, expected, atol=1e-15)

    def test_two_point_matrix(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(ref.classic_haar_matrix(2), [[s, s], [s, -s]])

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_odd_dimension_rejected(self, n):
        # 6 and 12 are even but not powers of two.
        with pytest.raises(ValueError, match="power of two"):
            ref.classic_haar_matrix(n)


# Orbits that meet a pole at their first step and go on from the perturbed
# state: theta1 = 2 atan(1) = pi/2 (tan), theta2 = 4 atan(1) = pi (cot).
POLE_PARAMS = [ChaosParams(1.0, 2, 3, 2.0, 2.5, 0.4),
               ChaosParams(1.0, 3, 4, 2.0, 2.5, 0.4)]
SPEC_SEEDS = [0, 1, 2]

# Degree pairs for the beside-a-pole table: small, and 2^20 on either map.
POLE_BAND_DEGREES = [(2, 3), (3, 4), (17, 9), (2**20, 3), (3, 2**20)]

# Keys whose first step leaves or nearly leaves the floats, with POLE_TOL
# and the iterates taken before the orbit degenerates (None: it does not).
# f2's denominator underflows to 0 at x0 and at x0 + 1e-6; y1 or y2 lands
# in [1e300, inf) as a1^2 or a2^2 is about 1e-304, and the next step meets
# a cot pole; and the state 1e300 steps at a tolerance small enough that
# theta2 = 4 atan(1e-150) is no cot pole (at POLE_TOL >= 1e-144 no state
# above about 1e288 steps at all).
RANGE_EDGE_CASES = {
    "underflowing-denominator": (ChaosParams(1.5, 3, 4, 2.0, 2e-162, 0.4), 1e-9, 0),
    "y1-above-1e300": (ChaosParams(0.2, 3, 4, 1e-152, 2.5, 0.4), 1e-9, 1),
    "y2-above-1e300": (ChaosParams(0.2, 3, 4, 2.0, 1e-152, 0.4), 1e-9, 1),
    "state-above-1e300": (ChaosParams(1e300, 2, 4, 2.0, 2.5, 0.4), 1e-150, None),
}


def _orbit_matches_spec(p, count):
    """Check count steps of LambdaStream(p, 0) against ref.orbit(p, 0, count).

    Both give the same iterates, or both take the same iterates and then
    meet a degenerate step.  There the stream raises StreamDegeneracyError
    and keeps its last iterate as its state, whether it ran one step per
    call or all of them in one orbit call.  Returns the iterates and
    whether the orbit was degenerate.
    """
    s = LambdaStream(p, 0)
    xs, degenerate = [], False
    try:
        while len(xs) < count:
            xs.append(s.step())
    except StreamDegeneracyError:
        degenerate = True
    last = xs[-1] if xs else p.x0
    assert float.hex(s.state) == float.hex(last)
    assert ref.orbit(p, 0, len(xs)) == xs
    whole = LambdaStream(p, 0)
    if degenerate:
        with pytest.raises(RuntimeError, match="degenerate"):
            ref.orbit(p, 0, len(xs) + 1)
        with pytest.raises(StreamDegeneracyError):
            whole.orbit(count)
        assert float.hex(whole.state) == float.hex(last)
    else:
        assert list(whole.orbit(count)) == xs
    return xs, degenerate


def _pole_tol(monkeypatch, tol):
    """Set POLE_TOL to tol in both the library and the specification."""
    monkeypatch.setattr(chaos, "POLE_TOL", tol)
    monkeypatch.setattr(ref, "POLE_TOL", tol)


class TestSpecification:
    """Each piece of the v1 specification against the library piece it mirrors."""

    @pytest.mark.parametrize("seed", SPEC_SEEDS)
    def test_orbit_matches_lambda_stream(self, seed):
        rng = np.random.default_rng([seed, 23])
        for _ in range(5):
            p = random_chaos_params(rng)
            assert ref.orbit(p, 64, 1000) == list(LambdaStream(p, 64).orbit(1000))

    @pytest.mark.parametrize("p", POLE_PARAMS, ids=["tan", "cot"])
    def test_orbit_through_a_pole_matches_lambda_stream(self, p):
        assert ref.coupled_map(p.x0, p) is None
        xs, degenerate = _orbit_matches_spec(p, 200)
        assert not degenerate and len(xs) == 200

    def test_degenerate_orbit_raises_in_both(self):
        # x0 = 1e30 sits on a pole, and 1e30 + 1e-6 == 1e30
        p = ChaosParams(1e30, 3, 4, 2.0, 2.5, 0.4)
        assert _orbit_matches_spec(p, 10) == ([], True)
        with pytest.raises(StreamDegeneracyError):
            LambdaStream(p, burn_in=1)

    def test_orbit_through_a_mid_orbit_pole_matches_lambda_stream(self, monkeypatch):
        # A wide pole band makes orbits run into a pole after some ordinary
        # steps; the 1e-6 retry cannot leave a band this wide, so each such
        # orbit ends degenerate at its last good state.
        _pole_tol(monkeypatch, 1e-3)
        rng = np.random.default_rng(20)
        degenerate = sum(_orbit_matches_spec(random_chaos_params(rng), 3000)[1]
                         for _ in range(20))
        assert degenerate >= 5

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_orbit_beside_a_pole_matches_lambda_stream(self, monkeypatch, tol):
        # Seeds whose first theta1 (or theta2) lands delta from a tan (or
        # cot) pole, on both sides of the band edges tan^2 = (0.1/tol)^2 and
        # (10 tol)^2, and degrees up to 2^20, the largest a key may take.
        _pole_tol(monkeypatch, tol)
        sizes = [c * 10.0**e for e in range(-13, -5) for c in (1, 3)] + [1e-5]
        deltas = [sign * size * (tol / 1e-9) for size in sizes for sign in (1, -1)]
        seeds = []
        for n1, n2 in POLE_BAND_DEGREES:
            for k in sorted({0, n1 // 4, n1 // 2 - 1}):
                seeds += [(math.tan(((k + 0.5) * math.pi + d) / n1) ** 2, n1, n2)
                          for d in deltas]
            for k in sorted({0, n2 // 4, (n2 - 1) // 2 - 1}):
                seeds += [(math.tan(((k + 1) * math.pi + d) / n2) ** -2, n1, n2)
                          for d in deltas]
        poles = 0
        for x0, n1, n2 in seeds:
            p = ChaosParams(x0, n1, n2, 2.0, 2.5, 0.4)
            poles += ref.coupled_map(x0, p) is None
            _orbit_matches_spec(p, 3)
        assert poles >= len(seeds) / 3

    @pytest.mark.parametrize("case", RANGE_EDGE_CASES)
    def test_orbit_at_the_float_range_edges_matches_lambda_stream(self, monkeypatch,
                                                                  case):
        p, tol, taken = RANGE_EDGE_CASES[case]
        _pole_tol(monkeypatch, tol)
        xs, degenerate = _orbit_matches_spec(p, 3)
        assert (len(xs), degenerate) == ((3, False) if taken is None else (taken, True))

    def test_orbit_from_a_zero_state_matches_lambda_stream(self):
        # A state of exactly 0 takes no step, so it steps from 1e-6 as a pole does.
        p = ref.REFERENCE_PARAMS
        s = LambdaStream(p, burn_in=0)
        s.state = 0.0
        assert ref.coupled_map(0.0, p) is None
        first = ref.coupled_map(ref.PERTURBATION, p)
        assert list(s.orbit(5)) == [first] + ref.orbit(replace(p, x0=first), 0, 4)

    @pytest.mark.parametrize("seed", SPEC_SEEDS)
    def test_slopes_match_lambdas(self, seed):
        p = random_chaos_params(np.random.default_rng([seed, 29]))
        assert ref.slopes(p, 64, 1000) == LambdaStream(p, 64).lambdas(1000).tolist()

    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("seed", SPEC_SEEDS)
    def test_stage_matrices_match_the_entries(self, seed, n, normalized):
        ks = random_key_schedule(np.random.default_rng(seed), normalized=normalized)
        pairs = zip(ref.stage_matrices(ks, n), _stage_matrices(ks, n))
        for k, (spec, h) in enumerate(pairs, start=1):
            assert spec.tobytes() == h.entries.tobytes(), f"stage {k}"

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("seed", SPEC_SEEDS)
    def test_keystream_bytes_match(self, seed, n):
        ks = random_key_schedule(np.random.default_rng(seed))
        assert np.array_equal(ref.keystream_image(ks, n), keystream_image(ks, n))

    @pytest.mark.parametrize("mode", ["keystream", "literal"])
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("seed", SPEC_SEEDS)
    def test_ciphertext_matches(self, seed, n, mode):
        rng = np.random.default_rng([seed, 31])
        ks = random_key_schedule(rng, mode=mode)
        plain = rng.integers(0, 256, (n, n), dtype=np.uint8)
        for key in (ks, replace(ks, normalized=True)):
            assert np.array_equal(ref.encrypt(plain, key), encrypt(plain, key))
