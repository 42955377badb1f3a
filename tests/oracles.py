"""Quadrature oracles shared by the test files."""

import math

import scipy.integrate

from conifold_lab.profile import ProfileParams, eval_profile

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


def zero_section_area_quadrature(t, rho_floor=-300.0):
    """Quadrature oracle for the area: the full restricted family integrand.

    The profile terms are evaluated at rho_floor, where they are below
    1e-100, and the integral runs over the two base charts by symmetry.
    """
    prof = eval_profile(ProfileParams(t), rho_floor)

    def integrand(r):
        return (t + prof.uprime + prof.usecond * r * r) / (1.0 + r * r) ** 2 * r

    val, _ = scipy.integrate.quad(integrand, 0.0, 1.0, **QUAD_OPTS)
    return 2.0 * 4.0 * math.pi * val
