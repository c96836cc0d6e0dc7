import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cthwave.chaos import LambdaStream
from cthwave.wavelet import (
    ButterflyMatrix,
    build_level_matrix,
    forward_2d,
    inverse_2d,
    merge_subbands,
    split_subbands,
    _scaling_pair,
)

from conftest import random_chaos_params
from reference import REFERENCE_PARAMS, classic_haar_matrix


class TestScalingPair:
    def test_zero_slope_is_classic(self):
        assert _scaling_pair(0.0) == (1.0, 1.0)

    def test_worked_example_values(self):
        assert _scaling_pair(1.469)[0] == pytest.approx(0.7227, abs=5e-5)
        assert _scaling_pair(-0.070)[1] == pytest.approx(0.9827, abs=5e-5)

    @given(lam=st.floats(-2.0, 2.0))
    def test_identities(self, lam):
        p0, p1 = _scaling_pair(lam)
        assert p0 == pytest.approx(lam**2 / 24 - lam / 4 + 1, rel=1e-12)
        assert p1 == pytest.approx(lam**2 / 24 + lam / 4 + 1, rel=1e-12)
        assert p0 > 0 and p1 > 0
        assert p0 + p1 == pytest.approx(lam**2 / 12 + 2, rel=1e-12)


def zero_slope_butterfly(n):
    """The orthonormal single-stage Haar butterfly (every slope 0)."""
    return build_level_matrix(n, iter([0.0] * 2 * n), normalized=True)


def composed_stages(n, lambdas, normalized):
    """Full pyramid product of single-stage matrices (top-left shrinking)."""
    comp = np.eye(n)
    m = n
    while m >= 2 and m % 2 == 0:
        stage = np.eye(n)
        stage[:m, :m] = build_level_matrix(m, lambdas, normalized).entries
        comp = stage @ comp
        m //= 2
    return comp


class TestBuildLevelMatrix:
    def test_zero_slopes_normalized_butterfly(self):
        h = build_level_matrix(4, iter([0.0] * 8), normalized=True).entries
        s = 1 / math.sqrt(2)
        expected = np.array(
            [[s, s, 0, 0], [0, 0, s, s], [s, -s, 0, 0], [0, 0, s, -s]]
        )
        assert np.allclose(h, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_zero_slope_composition_is_classic(self, n):
        zeros = iter([0.0] * (4 * n * n))
        comp = composed_stages(n, zeros, normalized=True)
        assert np.abs(comp - classic_haar_matrix(n)).max() < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_level_matrix(5, iter([0.0] * 20))


class TestButterflyStage:
    @pytest.mark.parametrize("n", [52, 64])
    def test_orthogonal_blocks_build_at_any_size(self, n):
        # lambda = 2, -2 on the averaging rows and -2, 2 on the differencing
        # rows make every block (2/3)/sqrt(2) * [[1, 1], [1, -1]]: |det| =
        # 4/9 per block and cond = 1, yet (4/9)^(n/2) < 1e-9 for n >= 52,
        # so a whole-matrix determinant gate rejected it on every redraw.
        slopes = [2.0, -2.0] * (n // 2) + [-2.0, 2.0] * (n // 2)
        h = build_level_matrix(n, itertools.cycle(slopes), normalized=True)
        assert np.linalg.cond(h.entries) == pytest.approx(1.0)
        m = np.random.default_rng(9).standard_normal((n, n))
        assert np.abs(inverse_2d(forward_2d(m, h), h) - m).max() < 1e-12

    def test_coefficients_are_read_only(self):
        h = build_level_matrix(8, LambdaStream(REFERENCE_PARAMS, burn_in=16))
        for name in ("a0", "a1", "d1", "d0"):
            c = getattr(h, name)
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0] = 1.0

    def test_callers_arrays_stay_writable(self):
        lam = np.linspace(-2.0, 2.0, 16)
        h = ButterflyMatrix(lam)
        assert lam.flags.writeable
        a0, d0 = h.a0.copy(), h.d0.copy()
        lam[:] = 0.0
        assert np.array_equal(h.a0, a0) and np.array_equal(h.d0, d0)
        assert h.a0[0] == _scaling_pair(-2.0)[0] and h.d0[-1] == _scaling_pair(2.0)[0]

    def test_compares_and_hashes_by_identity(self):
        h, g = ButterflyMatrix(np.zeros(8)), ButterflyMatrix(np.zeros(8))
        assert h == h and h != g
        assert hash(h) == hash(h)
        assert {h, g, h} == {g, h} and len({h, g}) == 2

    @pytest.mark.parametrize("lam", [
        np.zeros(6),  # n = 3 is odd
        np.zeros(2),  # n = 1
        np.zeros((2, 4)),
        np.array([0.0, math.nan, 0.0, 0.0]),
        np.array([0.0, 0.0, 2.5, 0.0]),
    ])
    def test_refuses_bad_slopes(self, lam):
        with pytest.raises(ValueError):
            ButterflyMatrix(lam)

    @given(
        lam=st.integers(1, 8).flatmap(lambda half: st.lists(
            st.sampled_from([-2.0, 0.0, 2.0]) | st.floats(-2.0, 2.0),
            min_size=4 * half, max_size=4 * half,
        )),
        normalized=st.booleans(),
    )
    @settings(max_examples=200)
    def test_every_block_is_invertible_by_construction(self, lam, normalized):
        h = ButterflyMatrix(np.array(lam), normalized)
        s2 = 0.5 if normalized else 1.0
        det = h.a0 * h.d0 + h.a1 * h.d1
        assert det.min() >= 8.0 / 9.0 * s2 * (1.0 - 1e-12)
        m = np.random.default_rng(len(lam)).standard_normal((h.n, h.n))
        assert np.abs(inverse_2d(forward_2d(m, h), h) - m).max() < 1e-12

    def test_out_of_range_slope_rejected(self):
        with pytest.raises(ValueError):
            build_level_matrix(4, iter([0.0] * 5 + [2.5] + [0.0] * 2))

    def test_consumes_exactly_2n_slopes(self):
        lams = iter([0.5] * 16 + [1.0])
        build_level_matrix(8, lams)
        assert next(lams) == 1.0

    @pytest.mark.parametrize("normalized", [False, True])
    def test_matches_dense_matrix_products(self, normalized):
        rng = np.random.default_rng(10)
        stream = LambdaStream(random_chaos_params(rng), burn_in=32)
        h = build_level_matrix(64, stream, normalized)
        dense = h.entries
        m = rng.uniform(0, 255, (64, 64))
        f = forward_2d(m, h)
        assert np.abs(f - dense @ m @ dense.T).max() < 1e-10
        solved = np.linalg.solve(dense, np.linalg.solve(dense, f).T).T
        assert np.abs(inverse_2d(f, h) - solved).max() < 1e-10


class TestTransform2d:
    def test_zero_matrix(self):
        assert np.allclose(forward_2d(np.zeros((4, 4)), zero_slope_butterfly(4)), 0.0)

    def test_identity_scales(self):
        f = forward_2d(3.0 * np.eye(8), zero_slope_butterfly(8))
        assert np.allclose(f, 3.0 * np.eye(8), atol=1e-12)

    def test_dimension_mismatch(self):
        h = zero_slope_butterfly(4)
        with pytest.raises(ValueError):
            forward_2d(np.zeros((6, 6)), h)
        with pytest.raises(ValueError):
            inverse_2d(np.zeros((6, 6)), h)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        stream = LambdaStream(REFERENCE_PARAMS, burn_in=16)
        h = build_level_matrix(8, stream)
        a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        alpha, beta = 1.7, -0.3
        lhs = forward_2d(alpha * a + beta * b, h)
        rhs = alpha * forward_2d(a, h) + beta * forward_2d(b, h)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_orthonormal_inverse_is_transpose(self):
        f = np.random.default_rng(2).standard_normal((8, 8))
        b = zero_slope_butterfly(8)
        assert np.allclose(
            inverse_2d(f, b), b.entries.T @ f @ b.entries, atol=1e-12
        )

    def test_roundtrip_random_chaotic(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            stream = LambdaStream(random_chaos_params(rng), burn_in=32)
            h = build_level_matrix(8, stream)
            m = rng.standard_normal((8, 8))
            assert np.abs(inverse_2d(forward_2d(m, h), h) - m).max() < 1e-8

    def test_classic_level_one_ll_is_block_average(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 255, (16, 16))
        f = forward_2d(img, zero_slope_butterfly(16))
        blocks = img.reshape(8, 2, 8, 2).mean(axis=(1, 3))
        assert np.allclose(f[:8, :8], 2.0 * blocks, atol=1e-10)


class TestSubBands:
    def test_split_merge_involution(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((16, 16))
        assert np.array_equal(merge_subbands(split_subbands(f)), f)

    def test_quadrant_placement(self):
        f = np.block(
            [
                [np.full((2, 2), 1.0), np.full((2, 2), 2.0)],
                [np.full((2, 2), 3.0), np.full((2, 2), 4.0)],
            ]
        )
        ll, hl, lh, hh = split_subbands(f)
        assert np.all(ll == 1.0) and np.all(hl == 2.0)
        assert np.all(lh == 3.0) and np.all(hh == 4.0)

    def test_quadrant_dimensions(self):
        ll, *_ = split_subbands(np.zeros((256, 256)))
        assert ll.shape == (128, 128)

    @pytest.mark.parametrize("shape", [(5, 5), (4, 8), (4,)],
                             ids=["odd", "non-square", "1-D"])
    def test_split_refuses_a_matrix_it_cannot_quarter(self, shape):
        message = f"expected an even square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split_subbands(np.zeros(shape))

    def test_mismatched_quadrants_rejected(self):
        with pytest.raises(ValueError):
            merge_subbands((np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                            np.zeros((4, 4))))

