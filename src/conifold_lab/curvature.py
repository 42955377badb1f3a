"""Finite-difference complex Hessians and Ricci forms.

The mixed-derivative operator d^2/dc_i dcbar_j is assembled from centered
real-coordinate stencils via the Wirtinger identities

    d^2 f / dc_i dcbar_j
        = (1/4) [ d_{x_i} d_{x_j} + d_{y_i} d_{y_j}
                  + i ( d_{x_i} d_{y_j} - d_{y_i} d_{x_j} ) ] f,

so for a real field the result is Hermitian by construction (the upper
triangle is mirrored).  The stencil is a table of the K distinct real-axis
offsets around p (217 at order 4, 61 at order 2) and the weights that turn
field values into those derivatives, so a field takes array coordinates of
shape (K,), one lane per stencil point, and is evaluated once per Hessian.
The Ricci form of a metric kind is -hessian(log det M) computed this way,
with log det from one ``eval_forms`` call and one stacked Cholesky
factorization so loss of positivity is detected, while the scalar
radial-potential residual provides the independent exact route to the same
Ricci-flatness statement: the two agreeing is the point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import ResolvedPoint
from .errors import NonFinite, OnZeroSection, SingularMetric, StencilOutOfDomain
from .forms import FormKind, HermitianForm, eval_forms
from .forms import eval_form  # noqa: F401  (unused; bench/tracing.py wraps it by name)
from .profile import ProfileEval, ProfileParams, eval_profiles
from .profile import eval_profile  # noqa: F401  (unused; bench/tracing.py wraps it by name)


@dataclass(frozen=True)
class StencilSpec:
    """Centered stencil: step h in [1e-6, 1e-2], accuracy order 2 or 4."""

    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not (1e-6 <= self.h <= 1e-2):
            raise ValueError("stencil step must lie in [1e-6, 1e-2]")
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")


def _stencil(s: StencilSpec) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (K, 6) along (Re z, Im z, Re xi1, Im xi1, Re xi2, Im xi2) and weights (K, 6, 6).

    Contracting field values with the weights gives the real d_a d_b for
    a == b (1-D second-derivative stencil) and for a < b on distinct
    coordinates (outer product of the 1-D first-derivative stencil); other
    entries are zero.  Row 0 is the centre.
    """
    if s.order == 2:
        off, d1 = np.array([-1.0, 1.0]), np.array([-1.0, 1.0]) / 2.0
        d2, d2_centre = np.array([1.0, 1.0]), -2.0
    else:
        off = np.array([-2.0, -1.0, 1.0, 2.0])
        d1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
        d2, d2_centre = np.array([-1.0, 16.0, 16.0, -1.0]) / 12.0, -30.0 / 12.0
    eye = np.eye(6)
    a, b = np.triu_indices(6, 1)
    keep = a // 2 != b // 2
    a, b = a[keep], b[keep]
    # rows: centre, pure (offset, axis), mixed (offset on a, offset on b, axis pair)
    offsets = np.concatenate([
        np.zeros((1, 6)),
        (off[:, None, None] * eye).reshape(-1, 6),
        (off[:, None, None, None] * eye[a] + off[:, None, None] * eye[b]).reshape(-1, 6),
    ])
    weights = np.concatenate([
        d2_centre * eye[None],
        (d2[:, None, None, None] * eye[:, :, None] * eye[:, None, :]).reshape(-1, 6, 6),
        (np.multiply.outer(d1, d1)[:, :, None, None, None]
         * eye[a][:, :, None] * eye[b][:, None, :]).reshape(-1, 6, 6),
    ])
    return offsets * s.h, weights / s.h**2


def complex_hessian(
    f: Callable[[ResolvedPoint], np.ndarray], p: ResolvedPoint, s: StencilSpec
) -> HermitianForm:
    """Matrix of d^2 f / dc_i dcbar_j at p by centered differences.

    f is called once, on a ResolvedPoint whose coordinates are arrays of
    shape (K,) holding the stencil points, and returns one real value per
    lane.  ``OnZeroSection`` from any lane raises ``StencilOutOfDomain``, a
    non-finite value at any lane ``NonFinite``.
    """
    offsets, weights = _stencil(s)
    lanes = np.array([p.z, p.xi1, p.xi2]) + offsets[:, 0::2] + 1j * offsets[:, 1::2]
    try:
        values = np.asarray(f(ResolvedPoint(*lanes.T)))
    except OnZeroSection as exc:
        raise StencilOutOfDomain(str(exc)) from None
    if not np.isfinite(values).all():
        raise NonFinite("field value at a stencil point is not finite")
    d = np.tensordot(values, weights, 1).reshape(3, 2, 3, 2)
    # upper triangle and diagonal; the lower triangle is exactly zero until mirrored
    m = 0.25 * ((d[:, 0, :, 0] + d[:, 1, :, 1]) + 1j * (d[:, 0, :, 1] - d[:, 1, :, 0]))
    return HermitianForm(base=p, m=m + np.triu(m, 1).conj().T)


def ricci_form(kind: FormKind, p: ResolvedPoint, s: StencilSpec) -> HermitianForm:
    """Ricci form -hessian(log det M) of the kind's metric at p.

    log det comes from one ``eval_forms`` call and one stacked Cholesky.
    Raises ``StencilOutOfDomain`` if a stencil point leaves the metric's
    domain and ``SingularMetric`` if M is not positive definite at one.
    """

    def log_det(q: ResolvedPoint) -> np.ndarray:
        try:
            chol = np.linalg.cholesky(eval_forms(kind, q.z, q.xi1, q.xi2))
        except np.linalg.LinAlgError:
            raise SingularMetric(f"{kind.tag} lost positivity on the stencil") from None
        return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)

    return HermitianForm(base=p, m=-complex_hessian(log_det, p, s).m)


def potential_residuals(t: float, prof: ProfileEval) -> np.ndarray:
    """Per-sample log((t + u') u' u'') - 2 rho of a profile evaluation (0 when Ricci-flat).

    Evaluated as log((t + u') (u' e^{-rho}) (u'' e^{-rho})).  The bare
    product (t + u') u' u'' is e^{2 rho} and underflows below rho ~ -354;
    the scaled one stays near 1 across the whole rho clamp, and no large
    2 rho is subtracted, so the residual keeps its few-ulp resolution.
    """
    scale = np.exp(-prof.rho)
    return np.log((t + prof.uprime) * (prof.uprime * scale) * (prof.usecond * scale))


def ricci_potential_residual(t: float, rho_samples) -> float:
    """max over samples of |``potential_residuals``| (0 when Ricci-flat).

    One ``eval_profiles`` call over the samples; ``NonFinite`` if any sample
    is not finite, 0 for no samples.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    rho = np.asarray(rho_samples, dtype=float)
    if rho.size == 0:
        return 0.0
    prof = eval_profiles(ProfileParams(t), rho)
    return float(np.abs(potential_residuals(t, prof)).max())
