import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cthwave import chaos
from cthwave.chaos import (
    ChaosParams,
    LambdaStream,
    PoleError,
    StreamDegeneracyError,
    f1,
    f2,
    step_coupled,
)

from conftest import peak_rss_rise_kib, random_chaos_params
from reference import REFERENCE_PARAMS

DEGREE_RULE = r"must be an integer in \[2, 2\*\*20\]"

# The worked example's parameters as keyword arguments, for tests that vary
# one of them.
BASE = dict(x0=0.2, n1=3, n2=4, a1=2.0, a2=2.5, eps=0.4)


class TestMaps:
    def test_f1_degree_one_is_linear(self):
        # tan(arctan(t)) = t, so f1(x, a, 1) = x / a^2
        assert f1(0.5, 2.0, 1) == pytest.approx(0.125, rel=1e-12)

    def test_f1_double_angle(self):
        # tan(2 theta) = 2t/(1-t^2) with t = 0.5 gives (4/3)^2 = 16/9
        assert f1(0.25, 1.0, 2) == pytest.approx(16.0 / 9.0, rel=1e-12)

    def test_f1_worked_example_value(self):
        # exact: tan(3 arctan(t)) = t(3 - t^2)/(1 - 3t^2) = 7t at t = sqrt(0.2)
        assert f1(0.2, 2.0, 3) == pytest.approx(2.45, rel=1e-12)

    def test_f2_degree_one_is_linear(self):
        assert f2(4.0, 1.0, 1) == pytest.approx(4.0, rel=1e-12)

    def test_f2_quarter_pi_zero(self):
        # arctan(1) = pi/4, cot(pi/2) = 0
        assert f2(1.0, 1.0, 2) < 1e-16

    def test_f2_worked_example_value(self):
        assert f2(0.2, 2.5, 4) == pytest.approx(0.002, rel=1e-12)

    def test_f1_pole_raises(self):
        # 2 arctan(1) = pi/2 is a tan pole
        with pytest.raises(PoleError):
            f1(1.0, 1.0, 2)

    def test_zero_denominator_is_a_pole(self):
        # a * a and t * t * a * a underflow to 0
        with pytest.raises(PoleError, match="overflow"):
            f1(0.5, 1e-200, 3)
        with pytest.raises(PoleError, match="overflow"):
            f2(1.5, 2e-162, 4)

    def test_f1_rejects_negative(self):
        with pytest.raises(ValueError):
            f1(-0.1, 1.0, 2)

    def test_f2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f2(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            f2(-1.0, 1.0, 2)

    @given(
        x=st.floats(1e-6, 100.0),
        a=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_degree_one_reduction(self, x, a):
        expected = x / (a * a)
        assert f1(x, a, 1) == pytest.approx(expected, rel=1e-12)
        assert f2(x, a, 1) == pytest.approx(expected, rel=1e-12)


class TestCoupling:
    def test_eps_zero_limit_is_f1(self):
        # eps = 0 itself is outside the invariant; check the formula limit
        p = ChaosParams(0.3, 3, 4, 2.0, 2.5, 1e-12)
        assert step_coupled(0.3, p) == pytest.approx(f1(0.3, 2.0, 3), rel=1e-9)

    def test_eps_one_limit_is_f2(self):
        p = ChaosParams(0.3, 3, 4, 2.0, 2.5, 1 - 1e-9)
        assert step_coupled(0.3, p) == pytest.approx(f2(0.3, 2.5, 4), abs=1e-7)

    def test_worked_example_iterate(self):
        # 0.6 * f1(0.2, 2, 3) + 0.4 * f2(0.2, 2.5, 4) = 0.6*2.45 + 0.4*0.002
        assert step_coupled(0.2, REFERENCE_PARAMS) == pytest.approx(1.4708, rel=1e-12)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x0=0.0),
            dict(x0=-1.0),
            dict(x0=math.inf),
            dict(n1=1),
            dict(n2=0),
            dict(a1=0.0),
            dict(a2=-2.0),
            dict(eps=0.0),
            dict(eps=1.0),
            dict(eps=1.5),
            dict(a1=1e-200),  # a1 * a1 underflows to 0
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosParams(**{**BASE, **kwargs})

    @pytest.mark.parametrize("name", ["a1", "a2"])
    @pytest.mark.parametrize("a", [1e200, 1.4e154])
    def test_scale_whose_square_overflows_rejected(self, name, a):
        # a * a = inf would make every iterate t * t / inf = 0
        assert a * a == math.inf
        with pytest.raises(ValueError, match=f"^{name} must be positive with a "
                                             "finite nonzero square"):
            ChaosParams(**{**BASE, name: a})

    @pytest.mark.parametrize("name", ["N1", "N2"])
    @pytest.mark.parametrize("n", [10**400, 2**1024 - 2**970])
    def test_degree_beyond_float_rejected(self, name, n):
        with pytest.raises(OverflowError):
            float(n)
        with pytest.raises(ValueError, match=fr"^{name} {DEGREE_RULE}, got an "
                                             r"integer of over 20 digits$"):
            ChaosParams(0.2, *((n, 4) if name == "N1" else (3, n)), 2.0, 2.5, 0.4)

    @pytest.mark.parametrize("n, shown", [
        (10**20 - 1, "99999999999999999999"),
        (10**20, "an integer of over 20 digits"),
        (-10**20, "an integer of over 20 digits"),
    ], ids=["20-digits", "21-digits", "-21-digits"])
    def test_refusal_spells_out_at_most_20_digits(self, n, shown):
        with pytest.raises(ValueError, match=fr"^N1 {DEGREE_RULE}, got {shown}$"):
            ChaosParams(0.2, n, 4, 2.0, 2.5, 0.4)

    def test_largest_degree_accepted(self):
        n = chaos.MAX_DEGREE
        assert n == 2**20
        assert ChaosParams(0.2, n, n, 2.0, 2.5, 0.4).n1 == n
        with pytest.raises(ValueError, match=fr"^N2 {DEGREE_RULE}, got 1048577$"):
            ChaosParams(0.2, n, n + 1, 2.0, 2.5, 0.4)

    @pytest.mark.parametrize("name", ["N1", "N2"])
    def test_degree_whose_angle_overflows_rejected(self, name):
        # theta = N atan(sqrt(x)) overflows to inf once atan(sqrt(x)) > 1,
        # and tan(inf) would raise a bare "math domain error" in the orbit.
        n = 2**1024 - 2**971
        assert math.isinf(n * math.atan(math.sqrt(4.0)))
        with pytest.raises(ValueError, match=f"^{name} {DEGREE_RULE}") as exc:
            ChaosParams(0.7, *((n, 3) if name == "N1" else (3, n)), 2.0, 2.5, 0.4)
        assert len(str(exc.value)) < 80

    @pytest.mark.parametrize("name", ["x0", "a1", "a2", "eps"])
    @pytest.mark.parametrize("value, shown", [
        (Fraction(1, 3), r"Fraction\(1, 3\)"),
        (Decimal("0.1"), r"Decimal\('0\.1'\)"),
        (10**400, "an integer of over 20 digits"),
    ], ids=["fraction", "decimal", "10**400"])
    def test_number_no_float_holds_rejected(self, name, value, shown):
        # format_key_file would write float(value), which parses to another key.
        with pytest.raises(ValueError, match=fr"^{name} must be a real number a "
                                             fr"float holds exactly, got {shown}$"):
            ChaosParams(**{**BASE, name: value})

    def test_number_a_float_holds_accepted(self):
        p = ChaosParams(Fraction(1, 2), 3, 4, Decimal("2.5"), np.float32(2.5), 0.4)
        assert (p.x0, p.a1, p.a2) == (0.5, 2.5, 2.5)

    @pytest.mark.parametrize("kind", [np.float16, np.float32, np.longdouble,
                                      Fraction, Decimal, int])
    def test_numbers_are_stored_as_floats(self, kind):
        # 0.25, 2, 2.5 and 0.5 are exact in every kind, but a float32 field
        # would put float32 arithmetic into the orbit of an equal key.
        p = ChaosParams(kind(1) / kind(4), 3, 4, kind(2), kind(5) / kind(2),
                        kind(1) / kind(2))
        assert p == ChaosParams(0.25, 3, 4, 2.0, 2.5, 0.5)
        assert [type(v) for v in (p.x0, p.a1, p.a2, p.eps)] == [float] * 4

    def test_decimal_key_builds_a_stream(self):
        s = LambdaStream(ChaosParams(0.2, 3, 4, 2.0, 2.5, Decimal("0.5")), 8)
        ref = LambdaStream(ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.5), 8)
        assert [next(s) for _ in range(16)] == [next(ref) for _ in range(16)]

    @pytest.mark.parametrize("name, shown", [
        ("x0", "be finite and positive"),
        ("a1", "be positive with a finite nonzero square"),
        ("a2", "be positive with a finite nonzero square"),
        ("eps", r"lie in \(0, 1\)"),
    ], ids=["x0", "a1", "a2", "eps"])
    @pytest.mark.parametrize("nan", [math.nan, np.float32("nan"), Decimal("NaN")],
                             ids=["float", "float32", "decimal"])
    def test_nan_refused_by_its_range_check(self, name, shown, nan):
        # A float holds NaN, so the exactness test is not what refuses it.
        with pytest.raises(ValueError, match=f"^{name} must {shown}, got nan$"):
            ChaosParams(**{**BASE, name: nan})

    @pytest.mark.parametrize("kind", [np.uint8, np.int32, np.int64])
    def test_numpy_integer_degrees_are_stored_as_ints(self, kind):
        p = ChaosParams(0.2, kind(3), kind(4), 2.0, 2.5, 0.4)
        assert p == ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)
        assert type(p.n1) is int and type(p.n2) is int

    @pytest.mark.parametrize("name", ["N1", "N2"])
    @pytest.mark.parametrize("n, shown", [
        (True, "True"), (2.0, "2.0"), ("3", "'3'"), (np.True_, r"np.True_"),
        (np.float64(3.0), r"np.float64\(3.0\)"),
    ], ids=["bool", "float", "str", "np-bool", "np-float"])
    def test_degree_that_is_no_integer_rejected(self, name, n, shown):
        degrees = (n, 4) if name == "N1" else (3, n)
        with pytest.raises(ValueError, match=fr"^{name} {DEGREE_RULE}, got {shown}$"):
            ChaosParams(0.2, *degrees, 2.0, 2.5, 0.4)

    @pytest.mark.parametrize("name", ["x0", "a1", "a2", "eps"])
    def test_bool_number_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got a bool"):
            ChaosParams(**{**BASE, name: True})


class TestLambdaStream:
    def test_first_iterate_matches_oracle(self):
        s = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        assert s.step() == pytest.approx(1.4708, rel=1e-12)

    def test_fold_rule(self):
        # lambda = 4 frac(x) - 2 of each orbit iterate, exactly
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = random_chaos_params(rng)
            lams = LambdaStream(p, 0).lambdas(1000).tolist()
            xs = LambdaStream(p, 0).orbit(1000)
            assert lams == [4.0 * (x - math.floor(x)) - 2.0 for x in xs]
            assert all(-2.0 <= lam < 2.0 for lam in lams)

    def test_burn_in_advances_orbit(self):
        s0 = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        s3 = LambdaStream(REFERENCE_PARAMS, burn_in=3)
        for _ in range(3):
            s0.step()
        assert s0.state == s3.state

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_burn_in_across_a_chunk_boundary(self, offset):
        b = chaos._BURN_CHUNK + offset
        assert LambdaStream(REFERENCE_PARAMS, b).state == (
            LambdaStream(REFERENCE_PARAMS, 0).orbit(b)[-1])

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_longest_burn_in_keeps_no_orbit(self):
        rise = peak_rss_rise_kib("from cthwave import chaos; "
                                 "from reference import REFERENCE_PARAMS as p",
                                 "chaos.LambdaStream(p, chaos.MAX_BURN_IN)")
        assert rise < 1024  # KiB: 2**20 iterates would take 8 MiB

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError):
            LambdaStream(REFERENCE_PARAMS, burn_in=-1)

    @pytest.mark.parametrize("burn_in", [True, False, 2.5, 3.0, "3", None])
    def test_non_integer_burn_in_rejected(self, burn_in):
        with pytest.raises(ValueError, match="^burn_in must be an integer"):
            LambdaStream(REFERENCE_PARAMS, burn_in=burn_in)

    def test_numpy_integer_burn_in_accepted(self):
        s = LambdaStream(REFERENCE_PARAMS, burn_in=np.int64(3))
        assert s.state == LambdaStream(REFERENCE_PARAMS, burn_in=3).state
        with pytest.raises(ValueError, match="^burn_in must be an integer, got "
                                             "np.True_$"):
            LambdaStream(REFERENCE_PARAMS, burn_in=np.True_)
        with pytest.raises(ValueError, match="^burn_in must be >= 0, got -1$"):
            LambdaStream(REFERENCE_PARAMS, burn_in=np.int8(-1))

    @pytest.mark.parametrize("method", ["orbit", "lambdas"])
    @pytest.mark.parametrize("count, message", [
        (-3, "count must be >= 0, got -3"),
        (2.0, "count must be an integer, got 2.0"),
        (True, "count must be an integer, got True"),
    ], ids=["negative", "float", "bool"])
    def test_count_that_is_no_count_rejected(self, method, count, message):
        s = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(s, method)(count)
        assert s.state == REFERENCE_PARAMS.x0

    def test_numpy_integer_count_accepted(self):
        a = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        b = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        assert a.orbit(np.int64(5)) == b.orbit(5)
        assert a.lambdas(np.uint8(3)).tolist() == b.lambdas(3).tolist()

    def test_lambda_range_million_draws(self):
        # 1e6 draws across 20 random parameter sets
        rng = np.random.default_rng(42)
        for _ in range(20):
            # lambdas draws what next would, bit for bit (TestLambdas)
            lams = LambdaStream(random_chaos_params(rng), burn_in=16).lambdas(50_000)
            assert lams.min() >= -2.0
            assert lams.max() < 2.0

    def test_state_stays_finite_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = LambdaStream(random_chaos_params(rng), burn_in=0)
            for _ in range(500):
                s.step()
                assert math.isfinite(s.state) and s.state >= 0.0

    def test_seed_sensitivity(self):
        # chaotic divergence: streams seeded 1e-10 apart must separate
        rng = np.random.default_rng(11)
        passed = 0
        for _ in range(50):
            x0 = float(rng.uniform(0.05, 3.0))
            pa = ChaosParams(x0, 3, 4, 2.0, 2.5, 0.4)
            pb = ChaosParams(x0 + 1e-10, 3, 4, 2.0, 2.5, 0.4)
            sa, sb = LambdaStream(pa, 0), LambdaStream(pb, 0)
            if any(
                abs(next(sa) - next(sb)) > 0.1 for _ in range(100)
            ):
                passed += 1
        assert passed >= 45

    def test_pole_recovery_perturbs_once(self):
        # x0 = 1 with N1 = 2, a2/N2 harmless: f1 poles at the very first step
        p = ChaosParams(1.0, 2, 2, 1.0, 1.0, 0.5)
        s = LambdaStream(p, burn_in=0)
        x = s.step()  # should survive via the 1e-6 perturbation
        assert math.isfinite(x)


def _advance(params, advance):
    """Iterates (as float.hex), exception type and final state of one
    advance of a fresh stream."""
    s = LambdaStream(params, burn_in=0)
    try:
        xs, err = advance(s), None
    except Exception as exc:  # compared, not swallowed
        xs, err = [], type(exc)
    return [float.hex(x) for x in xs], err, float.hex(s.state)


POLE_PARAMS = [
    # theta1 = 2 atan(1) = pi/2: tan pole at the first step
    ChaosParams(1.0, 2, 3, 2.0, 2.5, 0.4),
    # theta2 = 4 atan(1) = pi: cot pole at the first step
    ChaosParams(1.0, 3, 4, 2.0, 2.5, 0.4),
]

# x = 1e30 sits on a pole, and x + 1e-6 == x, so the retry fails too
DEGENERATE_PARAMS = ChaosParams(1e30, 3, 4, 2.0, 2.5, 0.4)


# Degree pairs for the pole-band test: small, and 2^20 on either map.
POLE_BAND_DEGREES = [(2, 3), (3, 4), (17, 9), (2**20, 3), (3, 2**20)]


def _orbit_matches_step(params, count):
    ref = _advance(params, lambda s: [s.step() for _ in range(count)])
    assert _advance(params, lambda s: s.orbit(count)) == ref
    return ref


class TestOrbit:
    def test_matches_step_on_random_keys(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            xs, err, _ = _orbit_matches_step(random_chaos_params(rng), 3000)
            assert err is None and len(xs) == 3000

    def test_continues_where_step_left_off(self):
        a = LambdaStream(REFERENCE_PARAMS, burn_in=5)
        b = LambdaStream(REFERENCE_PARAMS, burn_in=5)
        head = [a.step() for _ in range(3)] + list(a.orbit(50)) + [a.step()]
        assert head == [b.step() for _ in range(54)]

    @pytest.mark.parametrize("params", POLE_PARAMS)
    def test_matches_step_through_a_pole(self, params):
        with pytest.raises(PoleError):
            step_coupled(params.x0, params)
        xs, err, _ = _orbit_matches_step(params, 200)
        assert err is None and len(xs) == 200

    def test_degenerate_orbit_raises_like_step(self):
        p = DEGENERATE_PARAMS
        _, err, state = _orbit_matches_step(p, 10)
        assert err is StreamDegeneracyError and state == float.hex(1e30)
        with pytest.raises(StreamDegeneracyError):
            LambdaStream(p, burn_in=1)

    def test_mid_orbit_pole_handled_like_step(self, monkeypatch):
        # A wide pole band makes orbits run into a pole after some ordinary
        # steps; the 1e-6 retry cannot leave a band this wide, so each such
        # orbit ends in StreamDegeneracyError from the last good state.
        monkeypatch.setattr(chaos, "POLE_TOL", 1e-3)
        rng = np.random.default_rng(20)
        degenerate = 0
        for _ in range(20):
            _, err, _ = _orbit_matches_step(random_chaos_params(rng), 3000)
            if err is StreamDegeneracyError:
                degenerate += 1
        assert degenerate >= 5

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_matches_step_beside_a_pole(self, monkeypatch, tol):
        # Seeds whose first theta1 (or theta2) lands delta from a tan (or
        # cot) pole, on both sides of the band edges tan^2 = (0.1/tol)^2 and
        # (10 tol)^2, and degrees up to 2^20, the largest a key may take.
        monkeypatch.setattr(chaos, "POLE_TOL", tol)
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
            try:
                step_coupled(x0, p)
            except PoleError:
                poles += 1
            _orbit_matches_step(p, 3)
        assert poles >= len(seeds) / 3

    def test_pole_band_precondition(self):
        # orbit's band proof needs fmod's k-th pole, (k + 1/2) fl(pi), within
        # POLE_TOL/10 of (k + 1/2) pi for k + 1/2 <= MAX_DEGREE/2;
        # sin(fl(pi)) is pi - fl(pi).  As shipped, 6.4e-11 <= 1e-10.
        assert (chaos.MAX_DEGREE / 2) * math.sin(math.pi) <= chaos.POLE_TOL / 10

    def test_zero_state_perturbed_like_step(self):
        a = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        b = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        a.state = b.state = 0.0
        assert [a.step() for _ in range(5)] == list(b.orbit(5))

    def test_non_finite_state_raises_like_step(self):
        for bad in (math.inf, math.nan):
            a = LambdaStream(REFERENCE_PARAMS, burn_in=0)
            b = LambdaStream(REFERENCE_PARAMS, burn_in=0)
            a.state = b.state = bad
            with pytest.raises(ValueError):
                a.step()
            with pytest.raises(ValueError):
                b.orbit(3)

    def test_underflowing_denominator_raises_like_step(self):
        # a2 * a2 = 5e-324, but t*t*a2*a2 underflows to 0 in f2 at x = 1.5
        # and again after the perturbation
        p = ChaosParams(1.5, 3, 4, 2.0, 2e-162, 0.4)
        _, err, _ = _orbit_matches_step(p, 3)
        assert err is StreamDegeneracyError


def _lambdas_match_next(params, count):
    ref = _advance(params, lambda s: [next(s) for _ in range(count)])
    assert _advance(params, lambda s: s.lambdas(count)) == ref
    return ref


class TestLambdas:
    def test_matches_next_on_random_keys(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            lams, err, _ = _lambdas_match_next(random_chaos_params(rng), 3000)
            assert err is None and len(lams) == 3000

    @pytest.mark.parametrize("params", POLE_PARAMS)
    def test_matches_next_through_a_pole(self, params):
        lams, err, _ = _lambdas_match_next(params, 200)
        assert err is None and len(lams) == 200

    def test_degenerate_stream_raises_like_next(self):
        _, err, state = _lambdas_match_next(DEGENERATE_PARAMS, 10)
        assert err is StreamDegeneracyError and state == float.hex(1e30)

    def test_interleaves_with_step_and_next(self):
        a = LambdaStream(REFERENCE_PARAMS, burn_in=5)
        b = LambdaStream(REFERENCE_PARAMS, burn_in=5)
        got = [a.step(), *a.lambdas(50), next(a), a.step(), *a.lambdas(7)]
        want = ([b.step()] + [next(b) for _ in range(51)] + [b.step()]
                + [next(b) for _ in range(7)])
        assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
        assert float.hex(a.state) == float.hex(b.state)
