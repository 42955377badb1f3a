"""Local coordinates on the resolved conifold.

The total space E of O(-1)+O(-1) over the projective line is covered by two
trivializing charts; everything here works in the canonical affine chart
(z, xi1, xi2), with z the inhomogeneous base coordinate.  The log fibre
radius is

    rho = log((1 + |z|^2) (|xi1|^2 + |xi2|^2)),

finite exactly off the zero section P0 = {xi = 0}, where rho = -inf
(the float sentinel, kept exact so zero-section logic never depends on a
tolerance).  The module also provides the contraction into C^4 whose image
is the quadric cone {y1 y4 = y2 y3}, the model domains and the transition to
the chart covering z = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ResolvedPoint:
    """A point of E: base coordinate z and fibre coordinates (xi1, xi2).

    The coordinates may also be equal-shape arrays, one lane per point (a
    stacked point); ``p[i]`` is one point of the stack and ``p[mask]`` or
    ``p[:m]`` a smaller stack.
    """

    z: complex
    xi1: complex
    xi2: complex

    def __getitem__(self, index) -> ResolvedPoint:
        return ResolvedPoint(self.z[index], self.xi1[index], self.xi2[index])

    def on_zero_section(self):
        """Lane-wise xi = 0: a bool for a point, a bool array for a stack."""
        return (self.xi1 == 0) & (self.xi2 == 0)


@dataclass(frozen=True)
class DomainSpec:
    """The domain OmegaR = {e^rho <= r^2}; Omega = {rho < 0} is r = 1.

    The sampler stays below the supremum, so Omega's open boundary is never
    reached.
    """

    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("OmegaR requires r > 0")

    def rho_max(self) -> float:
        """Supremum 2 log r of rho over the domain (exactly 0.0 for Omega)."""
        return 2.0 * math.log(self.r)


OMEGA = DomainSpec(1.0)


def rho(p: ResolvedPoint):
    """Log fibre radius, -inf on the zero section; scalar or equal-shape array coordinates."""
    with np.errstate(divide="ignore"):
        r = np.log1p(abs(p.z) ** 2) + 2.0 * np.log(np.hypot(abs(p.xi1), abs(p.xi2)))
    return r if isinstance(r, np.ndarray) else float(r)


def rho_1(p: ResolvedPoint):
    """Log radius log((1 + |z|^2) |xi1|^2) of the first line-bundle factor; -inf where xi1 = 0."""
    with np.errstate(divide="ignore"):
        r = np.log1p(abs(p.z) ** 2) + 2.0 * np.log(abs(p.xi1))
    return r if isinstance(r, np.ndarray) else float(r)


def nu_coords(p: ResolvedPoint) -> tuple[complex, complex]:
    """Flat coordinates (nu1, nu2) = (z*xi1, xi1); |nu|^2 = e^{rho_1}."""
    return (p.z * p.xi1, p.xi1)


def contract(p: ResolvedPoint) -> tuple[complex, complex, complex, complex]:
    """Contraction of E to the quadric cone in C^4, y = (xi1, xi2, z*xi1, z*xi2).

    The whole zero section maps to the cone tip y = 0, and the image
    satisfies y1*y4 = y2*y3.  On a stacked point each entry is an array.
    """
    return (p.xi1, p.xi2, p.z * p.xi1, p.z * p.xi2)


def second_chart(p: ResolvedPoint) -> ResolvedPoint:
    """Transition to the chart covering z = inf: (1/z, z*xi1, z*xi2).

    Involutive on its domain and preserves e^rho; only used when sampling
    near the far pole of the base.  Lane-wise on a stacked point, which
    raises if any lane has z = 0.
    """
    if np.any(p.z == 0):
        raise ValueError("second chart undefined at z = 0")
    return ResolvedPoint(1.0 / p.z, p.z * p.xi1, p.z * p.xi2)
