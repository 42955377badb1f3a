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


def zero_section_diameter_quadrature(t, rho_floor=-300.0):
    """Quadrature oracle for the diameter: the meridian length from z = 0 to z = inf.

    The meridian of the full restricted family form has length element
    sqrt(t + u' + u'' r^2) / (1 + r^2) dr, with the profile terms evaluated
    at rho_floor, and the integral runs over the two base charts by symmetry.
    """
    prof = eval_profile(ProfileParams(t), rho_floor)

    def integrand(r):
        return math.sqrt(t + prof.uprime + prof.usecond * r * r) / (1.0 + r * r)

    val, _ = scipy.integrate.quad(integrand, 0.0, 1.0, **QUAD_OPTS)
    return 2.0 * val


def radial_length_quadrature(rho_top, t):
    """Quadrature oracle for the radial length: (1/2) * integral of sqrt(u'') d rho.

    The lower limit is rho_top - 120.  sqrt(u'') decays slowest at t = 0, as
    e^{rho/3}, so the truncated tail is at most about e^{-40} of the length.
    """
    params = ProfileParams(t)
    val, _ = scipy.integrate.quad(
        lambda r: math.sqrt(eval_profile(params, r).usecond), rho_top - 120.0, rho_top, **QUAD_OPTS
    )
    return 0.5 * val


def fs_radial_distance(c):
    """Fubini-Study geodesic distance between unit vectors with |<p,q>| = c, by quadrature."""
    if c < 1e-9:
        val, _ = scipy.integrate.quad(lambda r: 1.0 / (1.0 + r * r), 0.0, 1.0, **QUAD_OPTS)
        return 2.0 * val
    reach = math.sqrt(max(0.0, 1.0 - c * c)) / c
    val, _ = scipy.integrate.quad(lambda r: 1.0 / (1.0 + r * r), 0.0, reach, **QUAD_OPTS)
    return val


def fs_diameter_sweep(n_dirs=512):
    """Quadrature oracle for the base diameter: distances from a fixed point.

    Homogeneity makes the radius equal to the diameter and rotational
    symmetry leaves only the polar angle, so the target sweeps a uniform
    grid in cos(theta) plus the exact antipode.
    """
    best = fs_radial_distance(0.0)
    for k in range(n_dirs):
        cos_theta = 1.0 - 2.0 * (k + 0.5) / n_dirs
        best = max(best, fs_radial_distance(math.sqrt(0.5 * (1.0 + cos_theta))))
    return best
