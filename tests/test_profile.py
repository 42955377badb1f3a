"""Radial profile: cubic root, derivative identity, cone limit, positivity."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conifold_lab.errors import EmptySamples, NonFinite, RangeClampedWarning
from conifold_lab.profile import (
    RHO_CLAMP,
    ProfileParams,
    _solve_q,
    _solve_q_lanes,
    cone_profile,
    cubic_residual,
    eval_profile,
    eval_profiles,
    kahler_criterion,
    solve_uprime,
)

RNG = np.random.default_rng(77)


def bisect_root(t, rho, lo=0.0, hi=None, iters=200):
    """Independent oracle: plain bisection on the monotone cubic."""
    target = 3.0 * math.exp(2.0 * rho)
    if hi is None:
        hi = 1.0
        while 2 * hi**3 + 3 * t * hi**2 < target:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 2 * mid**3 + 3 * t * mid**2 < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_root_pairs():
    """The (t, rho) pairs of the exact-root checks: a grid of extremes plus 4,000 seeded draws."""
    rng = np.random.default_rng(2024)
    pairs = [(t, r) for t in (1e-6, 1e-3, 1.0) for r in (-700.0, -40.0, 0.0, 300.0)]
    for _ in range(4000):
        pairs.append((float(10.0 ** rng.uniform(-6.0, 0.0)), float(rng.uniform(-700.0, 300.0))))
    return pairs


def root_offset_ulps(t, erho, q):
    """Signed distance of the double q from the exact root of the rescaled cubic, in ulps.

    The cubic 2*erho*q^3 + 3*t*q^2 - 3 is evaluated exactly in rationals on
    the float coefficients.  Walking one double at a time from q towards the
    root finds the two doubles that bracket it; the position inside that last
    gap is interpolated linearly (the cubic is linear to far below an ulp).
    """
    e, tt = Fraction(erho), Fraction(t)

    def f(x):
        x = Fraction(x)
        return (2 * e * x + 3 * tt) * x * x - 3

    fq = f(q)
    if fq == 0:
        return 0.0
    above = fq > 0
    steps, prev, f_prev = 0, q, fq
    while True:
        cur = math.nextafter(prev, -math.inf if above else math.inf)
        f_cur = f(cur)
        steps += 1
        if (f_cur <= 0) if above else (f_cur >= 0):
            off = steps - 1 + float(f_prev / (f_prev - f_cur))
            return off if above else -off
        prev, f_prev = cur, f_cur


class TestSolveUprime:
    def test_cone_value_at_origin(self):
        assert solve_uprime(ProfileParams(0.0), 0.0) == pytest.approx(
            1.5 ** (1 / 3), rel=1e-14
        )

    def test_t1_bracket(self):
        # root of 2x^3 + 3x^2 = 3 lies in (0.80, 0.81)
        root = solve_uprime(ProfileParams(1.0), 0.0)
        assert 0.80 < root < 0.81
        assert root == pytest.approx(bisect_root(1.0, 0.0), abs=1e-12)

    def test_deep_asymptotics(self):
        # dominant balance 3t(u')^2 = 3e^{2 rho} near rho = -inf
        ratio = solve_uprime(ProfileParams(1.0), -10.0) / math.exp(-10.0)
        assert 0.99 < ratio < 1.0

    def test_against_bisection_oracle(self):
        for _ in range(40):
            t = float(RNG.uniform(0.01, 1.0))
            rho = float(RNG.uniform(-8.0, 3.0))
            got = solve_uprime(ProfileParams(t), rho)
            want = bisect_root(t, rho)
            assert got == pytest.approx(want, rel=1e-11)

    def test_residual_over_range(self):
        for _ in range(500):
            t = float(RNG.uniform(0.0, 1.0))
            rho = float(RNG.uniform(-30.0, 5.0))
            up = solve_uprime(ProfileParams(t), rho)
            assert up > 0.0
            res = abs(cubic_residual(ProfileParams(t), rho, up))
            assert res <= 1e-10 * max(1.0, 3.0 * math.exp(2.0 * rho))

    def test_extreme_radii(self):
        # scaled residual stays at roundoff across the whole clamp range
        for t in (1e-6, 0.5, 1.0):
            for rho in (-690.0, -400.0, 150.0, 290.0):
                up = solve_uprime(ProfileParams(t), rho)
                assert up > 0.0
                q = up * math.exp(-rho)
                res = abs((2.0 * math.exp(rho) * q + 3 * t) * q * q - 3.0)
                assert res < 1e-12

    def test_exact_root_within_two_ulps(self):
        rng = np.random.default_rng(2024)
        pairs = [(t, r) for t in (1e-6, 1e-3, 1.0) for r in (-700.0, -40.0, 0.0, 300.0)]
        for _ in range(4000):
            pairs.append((float(10.0 ** rng.uniform(-6.0, 0.0)), float(rng.uniform(-700.0, 300.0))))
        for t, r in pairs:
            erho = math.exp(r)
            off = root_offset_ulps(t, erho, _solve_q(t, erho))
            assert abs(off) <= 2.0, (t, r, off)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            solve_uprime(ProfileParams(0.5), float("-inf"))
        with pytest.raises(NonFinite):
            solve_uprime(ProfileParams(0.5), float("nan"))

    def test_clamp_warns(self):
        for t in (0.0, 0.5):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve_uprime(ProfileParams(t), -800.0)
            assert [w.category for w in caught] == [RangeClampedWarning]
        with pytest.warns(RangeClampedWarning):
            prof = eval_profile(ProfileParams(0.5), -800.0)
        assert prof.rho == -700.0
        assert prof.uprime == solve_uprime(ProfileParams(0.5), -700.0)


class TestLanes:
    def test_exact_root_within_two_ulps(self):
        # the pairs of TestSolveUprime.test_exact_root_within_two_ulps, all in one masked solve
        t, r = np.array(exact_root_pairs()).T
        erho = np.array([math.exp(x) for x in r.tolist()])
        q = _solve_q_lanes(t, erho)
        for tt, e, qq in zip(t.tolist(), erho.tolist(), q.tolist()):
            off = root_offset_ulps(tt, e, qq)
            assert abs(off) <= 2.0, (tt, e, off)

    def test_lanes_do_not_interact(self):
        # lanes that stop after different step counts give what each gives alone
        erho = np.exp(np.linspace(-700.0, 300.0, 501))
        for t in (1e-6, 0.01, 1.0):
            alone = np.concatenate([_solve_q_lanes(t, erho[i : i + 1]) for i in range(len(erho))])
            np.testing.assert_array_equal(_solve_q_lanes(t, erho), alone)

    @pytest.mark.parametrize("t", [0.0, 1e-6, 0.01, 0.5, 1.0])
    def test_matches_scalar_eval_profile(self, t):
        rng = np.random.default_rng(78)
        rho = np.concatenate([rng.uniform(-700.0, 300.0, 300), rng.uniform(-30.0, 5.0, 300),
                              [RHO_CLAMP[0], 0.0, RHO_CLAMP[1]]])
        got = eval_profiles(ProfileParams(t), rho.reshape(3, -1))
        assert got.uprime.shape == got.usecond.shape == got.rho.shape == (3, 201)
        for r, up, us in zip(rho.tolist(), got.uprime.ravel(), got.usecond.ravel()):
            want = eval_profile(ProfileParams(t), r)
            assert up == pytest.approx(want.uprime, rel=1e-14, abs=0.0)
            assert us == pytest.approx(want.usecond, rel=1e-14, abs=0.0)

    def test_clamp_warns_once_per_call(self):
        rho = np.array([-800.0, -750.0, -1.0, 310.0, 400.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = eval_profiles(ProfileParams(0.5), rho)
        assert [w.category for w in caught] == [RangeClampedWarning]
        np.testing.assert_array_equal(got.rho, [-700.0, -700.0, -1.0, 300.0, 300.0])
        assert got.uprime[0] == pytest.approx(solve_uprime(ProfileParams(0.5), -700.0), rel=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_profiles(ProfileParams(0.5), np.array(RHO_CLAMP))

    @pytest.mark.parametrize("bad", [float("-inf"), float("inf"), float("nan")])
    def test_nonfinite_lane_rejected(self, bad):
        for t in (0.0, 0.5):
            with pytest.raises(NonFinite):
                eval_profiles(ProfileParams(t), np.array([-1.0, bad, 0.0]))

    def test_cubic_residual_on_lanes(self):
        params = ProfileParams(0.3)
        rho = np.random.default_rng(79).uniform(-30.0, 5.0, 50)
        prof = eval_profiles(params, rho)
        got = cubic_residual(params, prof.rho, prof.uprime)
        want = [cubic_residual(params, r, up) for r, up in zip(rho.tolist(), prof.uprime.tolist())]
        # the cubic's terms are of size 3 e^{2 rho}; np.exp and math.exp differ by an ulp
        scale = np.maximum(1.0, 3.0 * np.exp(2.0 * rho))
        assert (np.abs(got - np.array(want)) <= 1e-15 * scale).all()


class TestEvalProfile:
    def test_cone_pair_at_origin(self):
        prof = eval_profile(ProfileParams(0.0), 0.0)
        assert prof.uprime == pytest.approx(1.5 ** (1 / 3), rel=1e-12)
        assert prof.usecond == pytest.approx((2 / 3) ** (2 / 3), rel=1e-12)

    def test_cone_closed_form_everywhere(self):
        for rho in np.linspace(-25, 4, 30):
            prof = eval_profile(ProfileParams(0.0), float(rho))
            want = 1.5 ** (1 / 3) * math.exp(2 * rho / 3)
            assert prof.uprime == pytest.approx(want, rel=1e-10)

    def test_derivative_identity(self):
        prof = eval_profile(ProfileParams(1.0), 0.0)
        assert prof.usecond * prof.uprime * (1 + prof.uprime) == pytest.approx(
            1.0, rel=1e-10
        )
        for _ in range(300):
            t = float(RNG.uniform(0.0, 1.0))
            rho = float(RNG.uniform(-30.0, 5.0))
            prof = eval_profile(ProfileParams(t), rho)
            lhs = (t + prof.uprime) * prof.uprime * prof.usecond
            assert abs(lhs - math.exp(2 * rho)) <= 1e-10 * math.exp(2 * rho)

    def test_positivity(self):
        for t in (0.0, 1e-6, 0.3, 1.0):
            for rho in np.linspace(-30, 5, 12):
                prof = eval_profile(ProfileParams(t), float(rho))
                assert prof.uprime > 0 and prof.usecond > 0


class TestConeProfile:
    def test_matches_solver(self):
        for rho in RNG.uniform(-20.0, 0.0, size=100):
            closed = cone_profile(float(rho)).uprime
            solved = solve_uprime(ProfileParams(0.0), float(rho))
            assert abs(closed - solved) <= 1e-10 * closed

    def test_exponent_scaling(self):
        # shift rho by 3 scales u' by e^2
        a = cone_profile(-5.0).uprime
        b = cone_profile(-2.0).uprime
        assert b / a == pytest.approx(math.exp(2.0), rel=1e-12)


class TestMonotonicity:
    def test_decreasing_in_t(self):
        for rho in (-12.0, -3.0, 0.0, 2.0):
            vals = [solve_uprime(ProfileParams(t), rho) for t in np.linspace(0, 1, 9)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_rho(self):
        for t in (0.0, 0.2, 1.0):
            profs = [eval_profile(ProfileParams(t), float(r)) for r in np.linspace(-15, 3, 25)]
            ups = [p.uprime for p in profs]
            uss = [p.usecond for p in profs]
            assert all(a < b for a, b in zip(ups, ups[1:]))
            assert all(a < b for a, b in zip(uss, uss[1:]))

    def test_cone_limit_uniform(self):
        rhos = np.linspace(-20, 0, 60)
        sups = []
        for t in (1e-2, 1e-4, 1e-6):
            sup = max(
                abs(solve_uprime(ProfileParams(t), float(r)) - cone_profile(float(r)).uprime)
                for r in rhos
            )
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]
        assert sups[-1] < 1e-5


class TestKahlerCriterion:
    def test_positive_family(self):
        rep = kahler_criterion(ProfileParams(1.0), list(np.linspace(-10, 0, 21)))
        assert rep.passed

    def test_cone_limit_flagged(self):
        rep = kahler_criterion(ProfileParams(0.0), [-1.0, 0.0])
        assert not rep.a_positive
        assert rep.uprime_positive and rep.usecond_positive
        assert not rep.passed

    def test_half(self):
        rep = kahler_criterion(ProfileParams(0.5), list(np.linspace(-10, 0, 21)))
        assert rep.passed

    def test_empty(self):
        with pytest.raises(EmptySamples):
            kahler_criterion(ProfileParams(0.5), [])
        with pytest.raises(EmptySamples):
            kahler_criterion(ProfileParams(0.5), np.array([]))

    def test_minima_match_per_sample(self):
        rho = np.random.default_rng(80).uniform(-40.0, 3.0, 200)
        for t in (0.0, 0.2):
            rep = kahler_criterion(ProfileParams(t), rho)
            evals = [eval_profile(ProfileParams(t), r) for r in rho.tolist()]
            assert rep.min_uprime == pytest.approx(min(e.uprime for e in evals), rel=1e-14)
            assert rep.min_usecond == pytest.approx(min(e.usecond for e in evals), rel=1e-14)

    def test_nonfinite_sample(self):
        with pytest.raises(NonFinite):
            kahler_criterion(ProfileParams(0.5), [-1.0, float("nan")])


class TestParams:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ProfileParams(-0.1)
        with pytest.raises(ValueError):
            ProfileParams(1.5)

    def test_no_warning_inside_clamp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_profile(ProfileParams(0.5), -600.0)
