"""Radial profile: cubic root, derivative identity, cone limit, positivity."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conifold_lab.errors import EmptySamples, NonFinite, RangeClampedWarning
from conifold_lab.profile import (
    ProfileParams,
    _solve_q,
    cone_profile,
    cubic_residual,
    eval_profile,
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
        with pytest.warns(RangeClampedWarning):
            solve_uprime(ProfileParams(0.5), -800.0)
        with pytest.warns(RangeClampedWarning):
            prof = eval_profile(ProfileParams(0.5), -800.0)
        assert prof.rho == -700.0
        assert prof.uprime == solve_uprime(ProfileParams(0.5), -700.0)


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
