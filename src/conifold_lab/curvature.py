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
with log det from one ``eval_form`` call over the stencil's lanes and one
stacked Cholesky factorization so loss of positivity is detected.

The two routes to Ricci-flatness check different things.  The Ricci-matrix
route checks the matrix that ``forms._family_matrix`` builds from (u', u''):
its determinant is 1 in these coordinates, so -hessian(log det) vanishes
only if the entries are assembled right.  The radial-potential residual
log((t + u') u' u'') - 2 rho is not independent of the profile: u'' is
computed from that same identity, so the residual (at most 3.5 eps
measured over rho in [-700, 300], for every t >= 0) checks only the
rounding of the u'' formula, and no report asserts it.  u'' itself is
checked against a centred difference of u' in rho, in the profile tests
and in the CLI's ``profile-table`` and ``ricci-audit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import ResolvedPoint
from .errors import NonFinite, OnZeroSection, SingularMetric, StencilOutOfDomain
from .forms import FormKind, HermitianForm, eval_form
from .profile import ProfileParams, eval_profiles
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


def _unit_stencil(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (K, 6) along (Re z, Im z, Re xi1, Im xi1, Re xi2, Im xi2) and weights (K, 6, 6).

    Contracting field values with the weights gives the real d_a d_b for
    a == b (1-D second-derivative stencil) and for a < b on distinct
    coordinates (outer product of the 1-D first-derivative stencil); other
    entries are zero.  Row 0 is the centre.  Unit step; both are read-only.
    """
    if order == 2:
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
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


_UNIT_STENCILS = {order: _unit_stencil(order) for order in (2, 4)}

#: Entries above the diagonal of a 3x3 matrix, which ``complex_hessian`` mirrors.
_STRICT_UPPER = np.triu(np.ones((3, 3), dtype=bool), 1)


def complex_hessian(
    f: Callable[[ResolvedPoint], np.ndarray], p: ResolvedPoint, s: StencilSpec
) -> HermitianForm:
    """Matrix of d^2 f / dc_i dcbar_j at p by centered differences.

    f is called once, on a ResolvedPoint whose coordinates are arrays of
    shape (K,) holding the stencil points, and returns one real value per
    lane.  ``OnZeroSection`` from any lane raises ``StencilOutOfDomain``, a
    non-finite value at any lane ``NonFinite``.
    """
    offsets, weights = _UNIT_STENCILS[s.order]
    offsets, weights = offsets * s.h, weights / s.h**2
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
    return HermitianForm(base=p, m=m + np.where(_STRICT_UPPER, m, 0).conj().T)


def ricci_form(kind: FormKind, p: ResolvedPoint, s: StencilSpec) -> HermitianForm:
    """Ricci form -hessian(log det M) of the kind's metric at p.

    log det comes from one ``eval_form`` call and one stacked Cholesky.
    Raises ``StencilOutOfDomain`` if a stencil point leaves the metric's
    domain and ``SingularMetric`` if M is not positive definite at one.
    """

    def log_det(q: ResolvedPoint) -> np.ndarray:
        try:
            chol = np.linalg.cholesky(eval_form(kind, q).m)
        except np.linalg.LinAlgError:
            raise SingularMetric(f"{kind.tag} lost positivity on the stencil") from None
        return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)

    return HermitianForm(base=p, m=-complex_hessian(log_det, p, s).m)


def ricci_potential_residual(t: float, rho_samples) -> float:
    """max over samples of |log((t + u') u' u'') - 2 rho| (0 when Ricci-flat).

    One ``eval_profiles`` call over the samples, evaluated as
    log((t + u') (u' e^{-rho}) (u'' e^{-rho})).  The bare product
    (t + u') u' u'' is e^{2 rho} and underflows below rho ~ -354; the scaled
    one stays near 1 across the whole rho clamp, and no large 2 rho is
    subtracted, so the residual keeps its few-ulp resolution.  ``NonFinite``
    if any sample is not finite, 0 for no samples.
    """
    params = ProfileParams(t)
    rho = np.asarray(rho_samples, dtype=float)
    if rho.size == 0:
        return 0.0
    prof = eval_profiles(params, rho)
    scale = np.exp(-prof.rho)
    residual = np.log((t + prof.uprime) * (prof.uprime * scale) * (prof.usecond * scale))
    return float(np.abs(residual).max())
