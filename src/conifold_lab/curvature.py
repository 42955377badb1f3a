"""Finite-difference complex Hessians and Ricci forms.

The mixed-derivative operator d^2/dc_i dcbar_j is assembled from centered
real-coordinate stencils via the Wirtinger identities

    d^2 f / dc_i dcbar_j
        = (1/4) [ d_{x_i} d_{x_j} + d_{y_i} d_{y_j}
                  + i ( d_{x_i} d_{y_j} - d_{y_i} d_{x_j} ) ] f,

so for a real field the result is Hermitian by construction (the lower
triangle is mirrored).  The Ricci form of a metric kind is
-hessian(log det M) computed this way, with log det evaluated through a
Cholesky factorization so loss of positivity is detected, while the scalar
radial-potential residual provides the independent exact route to the same
Ricci-flatness statement: the two agreeing is the point of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import ResolvedPoint
from .errors import NonFinite, OnZeroSection, SingularMetric, StencilOutOfDomain
from .forms import FormKind, HermitianForm, eval_form
from .profile import ProfileParams, eval_profile


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


def _shift(p: ResolvedPoint, deltas: dict[int, float]) -> ResolvedPoint:
    """Displace p along real axes (Re z, Im z, Re xi1, Im xi1, Re xi2, Im xi2)."""
    c = [complex(p.z), complex(p.xi1), complex(p.xi2)]
    for axis, d in deltas.items():
        i, im = divmod(axis, 2)
        c[i] = c[i] + (1j * d if im else d)
    return ResolvedPoint(*c)


# axis-offset weights for the first-derivative order-4 stencil (times 1/(12h))
_D1_W4 = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))


def _second_pure(f, p, axis, h, order, f0):
    if order == 2:
        return (f(_shift(p, {axis: h})) - 2.0 * f0 + f(_shift(p, {axis: -h}))) / h**2
    return (
        -f(_shift(p, {axis: 2 * h}))
        + 16.0 * f(_shift(p, {axis: h}))
        - 30.0 * f0
        + 16.0 * f(_shift(p, {axis: -h}))
        - f(_shift(p, {axis: -2 * h}))
    ) / (12.0 * h**2)


def _second_mixed(f, p, ax_a, ax_b, h, order):
    if order == 2:
        return (
            f(_shift(p, {ax_a: h, ax_b: h}))
            - f(_shift(p, {ax_a: h, ax_b: -h}))
            - f(_shift(p, {ax_a: -h, ax_b: h}))
            + f(_shift(p, {ax_a: -h, ax_b: -h}))
        ) / (4.0 * h**2)
    acc = 0.0
    for sa, wa in _D1_W4:
        for sb, wb in _D1_W4:
            acc += wa * wb * f(_shift(p, {ax_a: sa * h, ax_b: sb * h}))
    return acc / (144.0 * h**2)


def complex_hessian(
    f: Callable[[ResolvedPoint], float], p: ResolvedPoint, s: StencilSpec
) -> HermitianForm:
    """Matrix of d^2 f / dc_i dcbar_j at p by centered differences."""
    try:
        f0 = f(p)
        if not math.isfinite(f0):
            raise NonFinite("field value at the stencil center is not finite")
        m = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            xi, yi = 2 * i, 2 * i + 1
            m[i, i] = 0.25 * (
                _second_pure(f, p, xi, s.h, s.order, f0)
                + _second_pure(f, p, yi, s.h, s.order, f0)
            )
            for j in range(i + 1, 3):
                xj, yj = 2 * j, 2 * j + 1
                dxx = _second_mixed(f, p, xi, xj, s.h, s.order)
                dyy = _second_mixed(f, p, yi, yj, s.h, s.order)
                dxy = _second_mixed(f, p, xi, yj, s.h, s.order)
                dyx = _second_mixed(f, p, yi, xj, s.h, s.order)
                m[i, j] = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
                m[j, i] = m[i, j].conjugate()
    except OnZeroSection as exc:
        raise StencilOutOfDomain(str(exc)) from None
    return HermitianForm(base=p, m=m)


def _log_det_field(kind: FormKind) -> Callable[[ResolvedPoint], float]:
    def field(q: ResolvedPoint) -> float:
        m = eval_form(kind, q).m
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise SingularMetric(f"{kind.tag} lost positivity on the stencil") from None
        return float(2.0 * np.sum(np.log(np.real(np.diagonal(chol)))))

    return field


def ricci_form(kind: FormKind, p: ResolvedPoint, s: StencilSpec) -> HermitianForm:
    """Ricci form -hessian(log det M) of the kind's metric at p.

    Raises ``StencilOutOfDomain`` if a stencil point leaves the metric's domain.
    """
    return HermitianForm(base=p, m=-complex_hessian(_log_det_field(kind), p, s).m)


def ricci_potential_residual(t: float, rho_samples: list[float]) -> float:
    """max over samples of |log((t + u') u' u'') - 2 rho| (0 when Ricci-flat)."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    worst = 0.0
    params = ProfileParams(t)
    for r in rho_samples:
        if not math.isfinite(r):
            raise NonFinite("rho samples must be finite")
        prof = eval_profile(params, r)
        value = math.log((t + prof.uprime) * prof.uprime * prof.usecond) - 2.0 * prof.rho
        worst = max(worst, abs(value))
    return worst
