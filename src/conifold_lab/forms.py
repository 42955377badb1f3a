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

* ``FUBINI_STUDY``   -- pullback of the base form, potential log(1 + |z|^2)
* ``OMEGA_HAT``      -- reference Kaehler form, Fubini-Study + hessian(e^rho)
* ``TAU``            -- hessian of e^{rho_1}; degenerate, flat on each fibre
* ``CONIFOLD_FLAT``  -- hessian of e^rho, the pullback of the flat C^4 metric
                        under the contraction
* ``calabi_family(t)`` -- the Ricci-flat family, t in (0, 1]
* ``CONE_METRIC``    -- its t = 0 limit, the Ricci-flat cone metric

The family matrix is the coordinate-frame expansion (verified symbolically
against the connection-frame expression)

    M[z, zbar]        = (t + u' + u'' |z|^2) / h^2
    M[z, xibar_b]     = u'' zbar xi_b / (h S)
    M[xi_a, xibar_b]  = u' delta_ab / S + (u'' - u') xibar_a xi_b / S^2

with h = 1 + |z|^2, S = |xi|^2 and u', u'' the radial profile at
rho = log(h S).  Its determinant is (t + u') u' u'' e^{-2 rho}, identically 1
on the Ricci-flat family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chart import ResolvedPoint, nu_coords, rho
from .errors import (
    BaseMismatch,
    InfiniteFibre,
    NotPositiveDefinite,
    OnZeroSection,
)
from .profile import ProfileParams, cone_profile, eval_profile

#: Below this rho the family metrics would return denormalized entries.
RHO_DEEP_LIMIT = -650.0

#: Smallest admissible eigenvalue for the reference form in compare_forms.
_MIN_REF_EIGENVALUE = 1e-13

_PROFILE_KINDS = ("CalabiFamily", "ConeMetric")
_ALL_TAGS = ("FubiniStudy", "OmegaHat", "Tau", "ConifoldFlat") + _PROFILE_KINDS


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
        elif self.t is not None:
            raise ValueError(f"{self.tag} takes no parameter")


FUBINI_STUDY = FormKind("FubiniStudy")
OMEGA_HAT = FormKind("OmegaHat")
TAU = FormKind("Tau")
CONIFOLD_FLAT = FormKind("ConifoldFlat")
CONE_METRIC = FormKind("ConeMetric")


def calabi_family(t: float) -> FormKind:
    return FormKind("CalabiFamily", t)


@dataclass(frozen=True)
class HermitianForm:
    """A (1,1)-form at a base point: 3x3 Hermitian matrix in frame (z, xi1, xi2)."""

    base: ResolvedPoint
    m: np.ndarray


@dataclass(frozen=True)
class FibreForm:
    """Restriction of a form to the fibre L_w, in flat coordinates (nu1, nu2)."""

    w: complex
    base: ResolvedPoint
    m2: np.ndarray


# Vector field tags
V = "V"
V1 = "V1"
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


def _add_fubini_study(m: np.ndarray, z) -> None:
    h = 1.0 + abs(z) ** 2
    m[..., 0, 0] += 1.0 / h**2


def _tau(m: np.ndarray, z, xi1) -> None:
    h = 1.0 + abs(z) ** 2
    m[..., 0, 0] = abs(xi1) ** 2
    m[..., 0, 1] = z.conjugate() * xi1
    m[..., 1, 0] = m[..., 0, 1].conjugate()
    m[..., 1, 1] = h


def _family_matrix(m: np.ndarray, z, xi1, xi2, t: float, uprime, usecond) -> None:
    h = 1.0 + abs(z) ** 2
    s = abs(xi1) ** 2 + abs(xi2) ** 2
    zb = z.conjugate()
    m[..., 0, 0] = (t + uprime + usecond * abs(z) ** 2) / h**2
    m[..., 0, 1] = usecond * zb * xi1 / (h * s)
    m[..., 0, 2] = usecond * zb * xi2 / (h * s)
    m[..., 1, 0] = m[..., 0, 1].conjugate()
    m[..., 2, 0] = m[..., 0, 2].conjugate()
    m[..., 1, 1] = (usecond - uprime) * xi1.conjugate() * xi1 / s**2 + uprime / s
    m[..., 1, 2] = (usecond - uprime) * xi1.conjugate() * xi2 / s**2
    m[..., 2, 1] = (usecond - uprime) * xi2.conjugate() * xi1 / s**2
    m[..., 2, 2] = (usecond - uprime) * xi2.conjugate() * xi2 / s**2 + uprime / s


def _matrix(kind: FormKind, z, xi1, xi2, profile) -> np.ndarray:
    """The kind's matrix at scalar or equal-shape array coordinates, shape (..., 3, 3).

    Each builder writes one matrix per lane into m; ``profile()`` gives
    (u', u'') on the lanes and is called for the family kinds only.
    """
    # getattr rather than np.shape, which costs microseconds on a Python scalar
    m = np.zeros(getattr(z, "shape", ()) + (3, 3), dtype=complex)
    if kind.tag in ("OmegaHat", "ConifoldFlat"):
        _hessian_exp_rho(m, z, xi1, xi2)
    if kind.tag in ("OmegaHat", "FubiniStudy"):
        _add_fubini_study(m, z)
    if kind.tag == "Tau":
        _tau(m, z, xi1)
    if kind.tag in _PROFILE_KINDS:
        _family_matrix(m, z, xi1, xi2, kind.t or 0.0, *profile())
    return m


def _profile_at(kind: FormKind, r: float) -> tuple[float, float]:
    if not math.isfinite(r) or r < RHO_DEEP_LIMIT:
        raise OnZeroSection(f"{kind.tag} degenerates at rho = {r}")
    prof = cone_profile(r) if kind.t is None else eval_profile(ProfileParams(kind.t), r)
    return prof.uprime, prof.usecond


def eval_form(kind: FormKind, p: ResolvedPoint) -> HermitianForm:
    """Matrix of the form at p in the coordinate frame (z, xi1, xi2)."""
    m = _matrix(kind, p.z, p.xi1, p.xi2, lambda: _profile_at(kind, rho(p)))
    return HermitianForm(base=p, m=m)


def eval_forms(kind: FormKind, z, xi1, xi2) -> np.ndarray:
    """Lane for lane what ``eval_form`` gives, for coordinate arrays; shape (..., 3, 3).

    rho is computed on the arrays and the profile solved lane by lane, so
    the first lane on the zero section raises ``OnZeroSection``.
    """
    z, xi1, xi2 = np.broadcast_arrays(*(np.asarray(c, dtype=complex) for c in (z, xi1, xi2)))

    def profile():
        with np.errstate(divide="ignore"):
            r = np.log1p(abs(z) ** 2) + 2.0 * np.log(np.hypot(abs(xi1), abs(xi2)))
        lanes = np.reshape([_profile_at(kind, x) for x in r.ravel().tolist()], r.shape + (2,))
        return lanes[..., 0], lanes[..., 1]

    return _matrix(kind, z, xi1, xi2, profile)


def _fibre_jacobian(p: ResolvedPoint) -> tuple[complex, np.ndarray]:
    """w and the Jacobian d(z, xi1, xi2)/d(nu1, nu2) of the fibre parametrization."""
    if p.on_zero_section():
        raise OnZeroSection("fibre restriction undefined on the zero section")
    if p.xi1 == 0:
        raise InfiniteFibre("fibre coordinate w is infinite where xi1 = 0")
    w = p.xi2 / p.xi1
    n1, n2 = nu_coords(p)
    jac = np.array(
        [
            [1.0 / n2, -n1 / n2**2],
            [0.0, 1.0],
            [0.0, w],
        ],
        dtype=complex,
    )
    return w, jac


def restrict_to_fibre(kind: FormKind, p: ResolvedPoint) -> FibreForm:
    """Pull the form back to L_w = {xi2 = w xi1} in the flat coordinates nu.

    TAU restricts to the 2x2 identity exactly, which is what makes the
    fibrewise trace below a plain matrix trace.
    """
    w, jac = _fibre_jacobian(p)
    m = eval_form(kind, p).m
    m2 = jac.T @ m @ jac.conjugate()
    return FibreForm(w=w, base=p, m2=m2)


def fibrewise_trace_H(kind: FormKind, p: ResolvedPoint) -> float:
    """Trace of the fibre restriction against the flat fibre form."""
    return float(restrict_to_fibre(kind, p).m2.trace().real)


def _vector_components(v: str, p: ResolvedPoint) -> np.ndarray:
    if p.on_zero_section():
        raise OnZeroSection("vector fields vanish identically on the zero section")
    if v == V:
        return np.array([0.0, p.xi1, p.xi2], dtype=complex)
    if v == V1:
        return np.array([0.0, p.xi1, 0.0], dtype=complex)
    if v == W:
        scale = math.exp(-0.5 * rho(p))
        return scale * np.array([0.0, p.xi1, p.xi2], dtype=complex)
    raise ValueError(f"unknown vector field {v!r}")


def vector_norm_sq(kind: FormKind, v: str, p: ResolvedPoint) -> float:
    """Hermitian contraction of the form with the named vector field at p."""
    vec = _vector_components(v, p)
    m = eval_form(kind, p).m
    return float(np.real(vec @ m @ vec.conjugate()))


def compare_forms(a: HermitianForm, b: HermitianForm) -> tuple[float, float]:
    """Extreme generalized eigenvalues (lmin, lmax) with lmin*B <= A <= lmax*B.

    One generalized Hermitian eigensolve of A v = lambda B v; B must be
    positive definite with smallest eigenvalue above 1e-13.
    """
    if (a.base.z, a.base.xi1, a.base.xi2) != (b.base.z, b.base.xi1, b.base.xi2):
        raise BaseMismatch("forms evaluated at different base points")
    evb = np.linalg.eigvalsh(b.m)
    if evb[0] <= _MIN_REF_EIGENVALUE:
        raise NotPositiveDefinite(f"reference form eigenvalue {evb[0]} too small")
    ev = scipy.linalg.eigh(a.m, b.m, eigvals_only=True)
    return float(ev[0]), float(ev[-1])


def rotate_fibre(p: ResolvedPoint, unitary: np.ndarray) -> ResolvedPoint:
    """Apply a U(2) rotation to the fibre coordinates (trivialization change)."""
    xi = unitary @ np.array([p.xi1, p.xi2])
    return ResolvedPoint(z=p.z, xi1=complex(xi[0]), xi2=complex(xi[1]))
