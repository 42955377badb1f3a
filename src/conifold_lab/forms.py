"""Hermitian (1,1)-forms on the resolved conifold as explicit matrices.

Conventions, fixed once for the whole package:

* A real (1,1)-form is stored as the 3x3 complex Hermitian matrix M with
  M[i, j] the coefficient of dc_i wedge conj(dc_j) in the ordered coordinate
  frame c = (z, xi1, xi2); equivalently M[i, j] = d^2 K / dc_i dcbar_j for a
  local potential K.
* The squared norm of a holomorphic vector v is the Hermitian contraction
  sum_{ij} M[i, j] v_i conj(v_j) (no extra factor of 2); path lengths and
  distances elsewhere in the package use the same convention.

Available kinds:

* ``OMEGA_HAT``      -- reference Kaehler form: the Fubini-Study form of the
                        base, potential log(1 + |z|^2), + hessian(e^rho)
* ``CONIFOLD_FLAT``  -- hessian of e^rho, the pullback of the flat C^4 metric
                        under the contraction
* ``calabi_family(t)`` -- the Ricci-flat family, t in (0, 1]
* ``CONE_METRIC``    -- its t = 0 limit, the Ricci-flat cone metric

A kind carries a radial profile exactly when its ``t`` is set: the family
and the cone (t = 0).  ``OMEGA_HAT`` and ``CONIFOLD_FLAT`` take no ``t``.

The family matrix is the coordinate-frame expansion (verified symbolically
against the connection-frame expression)

    M[z, zbar]        = (t + u' + u'' |z|^2) / h^2
    M[z, xibar_b]     = u'' zbar xi_b / (h S)
    M[xi_a, xibar_b]  = u' delta_ab / S + (u'' - u') xibar_a xi_b / S^2

with h = 1 + |z|^2, S = |xi|^2 and u', u'' the radial profile at
rho = log(h S).  Its determinant is (t + u') u' u'' e^{-2 rho}, identically 1
on the Ricci-flat family.

In the t-independent coframe

    theta_b = dz / h,   theta_a = (xi2 dxi1 - xi1 dxi2) / S,   theta_r = d rho

(d rho its (1,0) part) both the family and CONIFOLD_FLAT are diagonal:

    omega_t       = (t + u') |theta_b|^2 + u' |theta_a|^2 + u'' |theta_r|^2
    CONIFOLD_FLAT = e^rho (|theta_b|^2 + |theta_a|^2 + |theta_r|^2)

so omega_t against CONIFOLD_FLAT has exactly the three eigenvalues
(t + u') e^{-rho}, u' e^{-rho} and u'' e^{-rho}, functions of rho alone.
OMEGA_HAT, |theta_b|^2 + CONIFOLD_FLAT, is diagonal too.  The coframe
drives the graph weights (``metricgeom`` weighs every edge from it, with no
matrix) and the CLI's tangential constants c0 and c1.  The matrices here stay the oracle:
the tests hold the per-edge coframe weights to ``eval_form`` (and so to
``_family_matrix``) and the tangential constants to ``compare_forms``.

Points may be stacked (``ResolvedPoint`` with array coordinates, one lane
per point): ``eval_form``, ``restrict_to_fibre``, ``fibrewise_trace_H``,
``vector_norm_sq`` and ``compare_forms`` then return one value or matrix
per lane, and a scalar point is a batch of one.  A stack raises as soon as
any lane would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import ResolvedPoint, nu_coords, rho
from .errors import (
    BaseMismatch,
    InfiniteFibre,
    NotPositiveDefinite,
    OnZeroSection,
)
from .profile import ProfileParams, eval_profile, eval_profiles
from .profile import cone_profile  # noqa: F401  (unused; bench/tracing.py wraps it by name)

#: Below this rho the family metrics would return denormalized entries.
RHO_DEEP_LIMIT = -650.0

#: Smallest admissible eigenvalue for the reference form in compare_forms.
_MIN_REF_EIGENVALUE = 1e-13

_ALL_TAGS = ("OmegaHat", "ConifoldFlat", "CalabiFamily", "ConeMetric")


@dataclass(frozen=True)
class FormKind:
    tag: str
    t: float | None = None

    def __post_init__(self):
        if self.tag not in _ALL_TAGS:
            raise ValueError(f"unknown form kind {self.tag!r}")
        if self.tag == "CalabiFamily":
            if self.t is None or not (0.0 < self.t <= 1.0):
                raise ValueError("CalabiFamily requires t in (0, 1]")
        elif self.tag == "ConeMetric":
            if self.t != 0.0:
                raise ValueError("ConeMetric is the t = 0 kind")
        elif self.t is not None:
            raise ValueError(f"{self.tag} takes no parameter")


OMEGA_HAT = FormKind("OmegaHat")
CONIFOLD_FLAT = FormKind("ConifoldFlat")
CONE_METRIC = FormKind("ConeMetric", 0.0)


def calabi_family(t: float) -> FormKind:
    return FormKind("CalabiFamily", t)


@dataclass(frozen=True)
class HermitianForm:
    """A (1,1)-form at a base point: 3x3 Hermitian matrix in frame (z, xi1, xi2).

    At a stacked base point m has shape (..., 3, 3), one matrix per lane.
    """

    base: ResolvedPoint
    m: np.ndarray


# Vector field tags
V = "V"
W = "W"


def _hessian_exp_rho(m: np.ndarray, z, xi1, xi2) -> None:
    """Hessian of e^rho = (1+|z|^2)(|xi1|^2+|xi2|^2); exact polynomial entries."""
    h = 1.0 + abs(z) ** 2
    s = abs(xi1) ** 2 + abs(xi2) ** 2
    zb = z.conjugate()
    m[..., 0, 0] = s
    m[..., 0, 1] = zb * xi1
    m[..., 0, 2] = zb * xi2
    m[..., 1, 0] = m[..., 0, 1].conjugate()
    m[..., 2, 0] = m[..., 0, 2].conjugate()
    m[..., 1, 1] = h
    m[..., 2, 2] = h


def _family_matrix(m: np.ndarray, z, xi1, xi2, t: float, uprime, usecond) -> None:
    z2 = abs(z) ** 2
    h = 1.0 + z2
    s = abs(xi1) ** 2 + abs(xi2) ** 2
    hs = h * s
    zb = z.conjugate()
    # (u'' - u') / s and xibar_a xi_b / s are O(1) on the fibre; s^2 would
    # underflow for rho below about -355
    d = (usecond - uprime) / s
    m[..., 0, 0] = (t + uprime + usecond * z2) / h**2
    m[..., 0, 1] = usecond * zb * xi1 / hs
    m[..., 0, 2] = usecond * zb * xi2 / hs
    m[..., 1, 0] = m[..., 0, 1].conjugate()
    m[..., 2, 0] = m[..., 0, 2].conjugate()
    m[..., 1, 1] = d * (xi1.conjugate() * xi1 / s) + uprime / s
    m[..., 1, 2] = d * (xi1.conjugate() * xi2 / s)
    m[..., 2, 1] = d * (xi2.conjugate() * xi1 / s)
    m[..., 2, 2] = d * (xi2.conjugate() * xi2 / s) + uprime / s


def off_metric_domain(r: np.ndarray) -> np.ndarray:
    """Lane-wise: rho off the profile metrics' domain, not finite or below ``RHO_DEEP_LIMIT``."""
    return ~np.isfinite(r) | (r < RHO_DEEP_LIMIT)


def _profile(kind: FormKind, p: ResolvedPoint):
    """(u', u'') at p: a float solve for a single point, one ``eval_profiles`` call for a stack.

    ``OnZeroSection`` names the first lane where ``off_metric_domain`` holds
    (a float takes its ``math`` twin, which costs it far less); a lane above
    the rho clamp gives one ``RangeClampedWarning`` for the call.
    """
    r = rho(p)
    params = ProfileParams(kind.t)
    if isinstance(r, float):
        if not math.isfinite(r) or r < RHO_DEEP_LIMIT:
            raise OnZeroSection(f"{kind.tag} degenerates at rho = {r}")
        prof = eval_profile(params, r)
    else:
        bad = off_metric_domain(r)
        if bad.any():
            raise OnZeroSection(f"{kind.tag} degenerates at rho = {r.flat[np.argmax(bad)]}")
        prof = eval_profiles(params, r)
    return prof.uprime, prof.usecond


def _float_or_lanes(x: np.ndarray):
    """A float for a single point, the array for a stack."""
    return float(x) if x.ndim == 0 else x


def eval_form(kind: FormKind, p: ResolvedPoint) -> HermitianForm:
    """Matrix of the form at p in the coordinate frame (z, xi1, xi2), shape (..., 3, 3).

    A stacked p gives one matrix per lane from one profile call (``_profile``).
    """
    # getattr rather than np.shape, which costs microseconds on a Python scalar
    m = np.zeros(getattr(p.z, "shape", ()) + (3, 3), dtype=complex)
    if kind.t is not None:
        _family_matrix(m, p.z, p.xi1, p.xi2, kind.t, *_profile(kind, p))
    else:
        _hessian_exp_rho(m, p.z, p.xi1, p.xi2)
        if kind.tag == "OmegaHat":  # plus the Fubini-Study form of the base
            m[..., 0, 0] += 1.0 / (1.0 + abs(p.z) ** 2) ** 2
    return HermitianForm(base=p, m=m)


def _fibre_jacobian(p: ResolvedPoint) -> np.ndarray:
    """The Jacobian d(z, xi1, xi2)/d(nu1, nu2) of the fibre parametrization.

    Shape (..., 3, 2), one per lane of a stacked p.
    """
    if np.any(p.on_zero_section()):
        raise OnZeroSection("fibre restriction undefined on the zero section")
    if np.any(p.xi1 == 0):
        raise InfiniteFibre("fibre coordinate w is infinite where xi1 = 0")
    w = p.xi2 / p.xi1
    n1, n2 = nu_coords(p)
    jac = np.zeros(np.shape(w) + (3, 2), dtype=complex)
    jac[..., 0, 0] = 1.0 / n2
    jac[..., 0, 1] = -n1 / n2**2
    jac[..., 1, 1] = 1.0
    jac[..., 2, 1] = w
    return jac


def restrict_to_fibre(kind: FormKind, p: ResolvedPoint) -> np.ndarray:
    """Pull the form back to L_w = {xi2 = w xi1} in the flat coordinates nu.

    Returns the 2x2 Hermitian matrix, shape (..., 2, 2) on a stack.  The
    flat fibre form, the hessian of |nu|^2 = e^{rho_1}, restricts to the 2x2
    identity exactly, which is what makes the fibrewise trace below a plain
    matrix trace.
    """
    jac = _fibre_jacobian(p)
    return np.swapaxes(jac, -1, -2) @ eval_form(kind, p).m @ jac.conjugate()


def fibrewise_trace_H(kind: FormKind, p: ResolvedPoint):
    """Trace of the fibre restriction against the flat fibre form."""
    return _float_or_lanes(np.trace(restrict_to_fibre(kind, p), axis1=-2, axis2=-1).real)


def _vector_components(v: str, p: ResolvedPoint) -> np.ndarray:
    if np.any(p.on_zero_section()):
        raise OnZeroSection("vector fields vanish identically on the zero section")
    if v not in (V, W):
        raise ValueError(f"unknown vector field {v!r}")
    vec = np.zeros(np.shape(p.xi1) + (3,), dtype=complex)
    vec[..., 1] = p.xi1
    vec[..., 2] = p.xi2
    if v == W:
        vec *= np.exp(-0.5 * np.asarray(rho(p)))[..., None]
    return vec


def vector_norm_sq(kind: FormKind, v: str, p: ResolvedPoint):
    """Hermitian contraction of the form with the named vector field at p."""
    vec = _vector_components(v, p)
    m = eval_form(kind, p).m
    norm = vec[..., None, :] @ m @ vec[..., :, None].conjugate()
    return _float_or_lanes(norm[..., 0, 0].real)


def _same_base(a: ResolvedPoint, b: ResolvedPoint) -> bool:
    return a is b or all(
        np.array_equal(x, y) for x, y in ((a.z, b.z), (a.xi1, b.xi1), (a.xi2, b.xi2))
    )


def compare_forms(a: HermitianForm, b: HermitianForm):
    """Extreme generalized eigenvalues (lmin, lmax) with lmin*B <= A <= lmax*B.

    B must be positive definite with smallest eigenvalue above 1e-13.  The
    pencil is whitened by the Cholesky factor B = L L^H, and lmin, lmax are
    the extreme eigenvalues of L^{-1} A L^{-H}; on stacked forms one
    stacked factorization and eigensolve give one pair per lane.  lmin is
    fixed only to about eps * cond(B) relative (~1e-7 at rho = -20 against
    CONIFOLD_FLAT, where cond(B) ~ 7e8), so its trailing digits are noise.
    """
    if not _same_base(a.base, b.base):
        raise BaseMismatch("forms evaluated at different base points")
    evb = np.linalg.eigvalsh(b.m)[..., 0]
    if np.any(evb <= _MIN_REF_EIGENVALUE):
        raise NotPositiveDefinite(f"reference form eigenvalue {np.min(evb)} too small")
    inv = np.linalg.inv(np.linalg.cholesky(b.m))
    ev = np.linalg.eigvalsh(inv @ a.m @ np.swapaxes(inv, -1, -2).conjugate())
    return _float_or_lanes(ev[..., 0]), _float_or_lanes(ev[..., -1])
