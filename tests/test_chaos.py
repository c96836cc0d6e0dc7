import math

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

from conftest import REFERENCE_PARAMS, random_chaos_params


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
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        base = dict(x0=0.2, n1=3, n2=4, a1=2.0, a2=2.5, eps=0.4)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ChaosParams(**base)


class TestLambdaStream:
    def test_first_iterate_matches_oracle(self):
        s = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        assert s.step() == pytest.approx(1.4708, rel=1e-12)

    def test_fold_rule(self):
        # lambda = 4 frac(x) - 2 on handpicked iterates
        assert 4.0 * (0.0 - math.floor(0.0)) - 2.0 == -2.0
        assert 4.0 * (1.5 - math.floor(1.5)) - 2.0 == 0.0
        assert 4.0 * (2.75 - math.floor(2.75)) - 2.0 == 1.0

    def test_first_lambda_from_worked_example(self):
        s = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        lam = s.next_lambda()
        assert lam == pytest.approx(4 * (1.4708 - 1.0) - 2, rel=1e-9)

    def test_determinism(self):
        seq1 = list(_take(LambdaStream(REFERENCE_PARAMS, burn_in=7), 200))
        seq2 = list(_take(LambdaStream(REFERENCE_PARAMS, burn_in=7), 200))
        assert seq1 == seq2

    def test_burn_in_advances_orbit(self):
        s0 = LambdaStream(REFERENCE_PARAMS, burn_in=0)
        s3 = LambdaStream(REFERENCE_PARAMS, burn_in=3)
        for _ in range(3):
            s0.step()
        assert s0.state == s3.state

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError):
            LambdaStream(REFERENCE_PARAMS, burn_in=-1)

    def test_lambda_range_million_draws(self):
        # 1e6 draws across 20 random parameter sets
        rng = np.random.default_rng(42)
        for _ in range(20):
            s = LambdaStream(random_chaos_params(rng), burn_in=16)
            lams = [s.next_lambda() for _ in range(50_000)]
            assert min(lams) >= -2.0
            assert max(lams) < 2.0

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
                abs(sa.next_lambda() - sb.next_lambda()) > 0.1 for _ in range(100)
            ):
                passed += 1
        assert passed >= 45

    def test_pole_recovery_perturbs_once(self):
        # x0 = 1 with N1 = 2, a2/N2 harmless: f1 poles at the very first step
        p = ChaosParams(1.0, 2, 2, 1.0, 1.0, 0.5)
        s = LambdaStream(p, burn_in=0)
        x = s.step()  # should survive via the 1e-6 perturbation
        assert math.isfinite(x)


def _take(stream, k):
    for _ in range(k):
        yield stream.next_lambda()


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
        # t*t*a2*a2 underflows to 0 and 1.0 / 0.0 raises in f2
        p = ChaosParams(0.2, 3, 4, 2.0, 1e-200, 0.4)
        _, err, _ = _orbit_matches_step(p, 3)
        assert err is ZeroDivisionError


def _lambdas_match_next_lambda(params, count):
    ref = _advance(params, lambda s: [s.next_lambda() for _ in range(count)])
    assert _advance(params, lambda s: s.lambdas(count)) == ref
    return ref


class TestLambdas:
    def test_matches_next_lambda_on_random_keys(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            lams, err, _ = _lambdas_match_next_lambda(random_chaos_params(rng), 3000)
            assert err is None and len(lams) == 3000

    @pytest.mark.parametrize("params", POLE_PARAMS)
    def test_matches_next_lambda_through_a_pole(self, params):
        lams, err, _ = _lambdas_match_next_lambda(params, 200)
        assert err is None and len(lams) == 200

    def test_degenerate_stream_raises_like_next_lambda(self):
        _, err, state = _lambdas_match_next_lambda(DEGENERATE_PARAMS, 10)
        assert err is StreamDegeneracyError and state == float.hex(1e30)

    def test_interleaves_with_step_and_next_lambda(self):
        a = LambdaStream(REFERENCE_PARAMS, burn_in=5)
        b = LambdaStream(REFERENCE_PARAMS, burn_in=5)
        got = [a.step(), *a.lambdas(50), a.next_lambda(), a.step(), *a.lambdas(7)]
        want = ([b.step()] + [b.next_lambda() for _ in range(51)] + [b.step()]
                + [b.next_lambda() for _ in range(7)])
        assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
        assert float.hex(a.state) == float.hex(b.state)
