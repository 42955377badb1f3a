"""The scalar radial profile of the symmetric metric family.

Every metric in the family is determined by one convex function u(rho) of
the log fibre radius.  Vanishing Ricci curvature reduces, after integrating
the underlying ODE twice, to the cubic

    2 (u')^3 + 3 t (u')^2 - 3 e^{2 rho} = 0,

whose unique positive root gives u'(rho, t); differentiating once more gives
the pointwise identity (t + u') u' u'' = e^{2 rho}, which is how u'' is
evaluated here.  Only u' and u'' are ever needed downstream, so u itself is
never integrated.

Numerics: the root is found on the rescaled variable q = e^{-rho} u', which
satisfies 2 e^{rho} q^3 + 3 t q^2 - 3 = 0.  This keeps every intermediate
quantity O(1) even when e^{2 rho} spans hundreds of orders of magnitude.  The
rescaled cubic is increasing and convex on q > 0, so Newton started above
the root decreases monotonically onto it and needs no bracket or fallback.
The start is the smaller of the two single-regime roots (u' ~ t^{-1/2} e^rho
deep in the fibre, u' ~ (3/2)^{1/3} e^{2 rho/3} near the cone), which bounds
the root from above; the iteration stops at the first step that does not
decrease q, which must happen since q runs down a finite set of doubles.
The closed-form cubic formula is deliberately not used: it cancels
catastrophically for small e^{2 rho}.

The Newton step is written once, in arithmetic valid on floats and on
arrays.  ``eval_profile`` runs it in a float loop, so a single call pays no
array overhead; ``eval_profiles`` runs it in a masked loop over an array of
rho, where each lane stops at its own first non-decreasing step.  Both land
within 2 ulps of the exact root, but they are not bit-identical: ``np.exp``
and the array power differ from ``math.exp`` and the float power in the
last bit on a few percent of inputs.  The array form rejects a non-finite
lane with ``NonFinite`` and gives one ``RangeClampedWarning`` per call if
any lane is clamped.

The t = 0 member has the closed-form solution

    u' = (3/2)^{1/3} e^{2 rho/3},   u'' = (2/3)^{2/3} e^{2 rho/3},

exposed separately as ``cone_profile``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptySamples, NonFinite, RangeClampedWarning

#: rho is clamped here before exponentiation to keep e^rho inside float range.
RHO_CLAMP = (-700.0, 300.0)

CONE_UPRIME_COEFF = (3.0 / 2.0) ** (1.0 / 3.0)
CONE_USECOND_COEFF = (2.0 / 3.0) ** (2.0 / 3.0)


@dataclass(frozen=True)
class ProfileParams:
    """Kaehler class parameter: the coefficient t >= 0 of the base form."""

    t: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and 0.0 <= self.t <= 1.0):
            raise ValueError("t must lie in [0, 1]")


@dataclass(frozen=True)
class ProfileEval:
    """u' and u'' at a given (t, rho); both are strictly positive.

    Floats from ``eval_profile``, equal-shape arrays from ``eval_profiles``.
    """

    rho: float
    uprime: float
    usecond: float


def _clamp_rho(rho: float) -> float:
    if not math.isfinite(rho):
        raise NonFinite("rho must be finite")
    lo, hi = RHO_CLAMP
    if rho < lo or rho > hi:
        warnings.warn(
            f"rho={rho} clamped into [{lo}, {hi}]", RangeClampedWarning, stacklevel=3
        )
        return min(max(rho, lo), hi)
    return rho


def _clamp_rhos(rho: np.ndarray) -> np.ndarray:
    """``_clamp_rho`` on every lane, with one warning for the whole array."""
    if not np.isfinite(rho).all():
        raise NonFinite("rho must be finite")
    lo, hi = RHO_CLAMP
    out = (rho < lo) | (rho > hi)
    if out.any():
        warnings.warn(
            f"{np.count_nonzero(out)} rho values clamped into [{lo}, {hi}]",
            RangeClampedWarning,
            stacklevel=3,
        )
        return np.clip(rho, lo, hi)
    return rho


def _newton_step(t, erho, q):
    """One Newton step on f(q) = 2*erho*q^3 + 3*t*q^2 - 3; floats or arrays."""
    f = (2.0 * erho * q + 3.0 * t) * q * q - 3.0
    return q - f / (q * (6.0 * erho * q + 6.0 * t))


def _solve_q(t: float, erho: float) -> float:
    """Positive root of f(q) = 2*erho*q^3 + 3*t*q^2 - 3 by monotone Newton.

    Both cubic terms are positive, so the root lies below the smaller of the
    two single-regime roots m = min((3/(2 e^rho))^{1/3}, t^{-1/2}), where
    f > 0.  f is increasing and convex on q > 0, so Newton started at m
    decreases monotonically onto the root; the first step that fails to
    decrease q marks convergence to rounding.  q strictly decreases through
    a finite set of doubles, so the loop terminates.
    """
    q = (1.5 / erho) ** (1.0 / 3.0)
    if t > 0.0:
        q = min(q, 1.0 / math.sqrt(t))
    q *= 1.0 + 1e-12
    while True:
        q_new = _newton_step(t, erho, q)
        if not q_new < q:
            return q
        q = q_new


def _solve_q_lanes(t, erho: np.ndarray) -> np.ndarray:
    """``_solve_q`` on every lane of erho, from the same start; t > 0 is a
    float or an array of lanes.

    A lane leaves the loop at its first step that does not decrease q and
    keeps that q, exactly as the float loop returns.
    """
    q = np.minimum((1.5 / erho) ** (1.0 / 3.0), 1.0 / np.sqrt(t)) * (1.0 + 1e-12)
    live = np.ones(q.shape, dtype=bool)
    while live.any():
        q_new = _newton_step(t, erho, q)
        live &= q_new < q
        q = np.where(live, q_new, q)
    return q


def _from_root(rho, t, erho, q) -> ProfileEval:
    """u' = e^rho q and u'' from the derivative identity; floats or arrays."""
    up = erho * q
    # Factored so neither e^{2 rho} nor e^{-2 rho} is ever formed.
    return ProfileEval(rho=rho, uprime=up, usecond=(erho / (t + up)) * (erho / up))


def _cone(rho, g) -> ProfileEval:
    """The t = 0 profile from g = e^{2 rho/3}; floats or arrays."""
    return ProfileEval(rho=rho, uprime=CONE_UPRIME_COEFF * g, usecond=CONE_USECOND_COEFF * g)


def solve_uprime(params: ProfileParams, rho: float) -> float:
    """The unique positive root u'(rho, t) of the profile cubic."""
    return eval_profile(params, rho).uprime


def eval_profile(params: ProfileParams, rho: float) -> ProfileEval:
    """u' from the cubic and u'' from (t + u') u' u'' = e^{2 rho}."""
    rho = _clamp_rho(rho)
    if params.t == 0.0:
        return cone_profile(rho)
    erho = math.exp(rho)
    return _from_root(rho, params.t, erho, _solve_q(params.t, erho))


def eval_profiles(params: ProfileParams, rho) -> ProfileEval:
    """``eval_profile`` on an array of rho in one masked Newton solve; array fields.

    Raises ``NonFinite`` if any lane is not finite and warns once if any lane
    is clamped.
    """
    rho = _clamp_rhos(np.asarray(rho, dtype=float))
    if params.t == 0.0:
        return _cone(rho, np.exp(2.0 * rho / 3.0))
    erho = np.exp(rho)
    return _from_root(rho, params.t, erho, _solve_q_lanes(params.t, erho))


def cone_profile(rho: float) -> ProfileEval:
    """Closed-form t = 0 profile; no root-finding."""
    rho = _clamp_rho(rho)
    return _cone(rho, math.exp(2.0 * rho / 3.0))


@dataclass(frozen=True)
class KahlerReport:
    """Positivity conditions for the symmetric form to be Kaehler on E."""

    a_positive: bool
    min_uprime: float
    min_usecond: float

    @property
    def uprime_positive(self) -> bool:
        return self.min_uprime > 0.0

    @property
    def usecond_positive(self) -> bool:
        return self.min_usecond > 0.0

    @property
    def passed(self) -> bool:
        return self.a_positive and self.uprime_positive and self.usecond_positive


def kahler_criterion(params: ProfileParams, rho_samples) -> KahlerReport:
    """Check a > 0, u' > 0, u'' > 0 over the samples (a = t).

    At t = 0 the first condition fails, flagging the degenerate cone limit.
    """
    rho = np.asarray(rho_samples, dtype=float)
    if rho.size == 0:
        raise EmptySamples("rho_samples must be nonempty")
    prof = eval_profiles(params, rho)
    return KahlerReport(
        a_positive=params.t > 0.0,
        min_uprime=float(prof.uprime.min()),
        min_usecond=float(prof.usecond.min()),
    )


def cubic_residual(params: ProfileParams, rho, uprime):
    """Residual of the profile cubic at a claimed root (diagnostic); floats or arrays."""
    if isinstance(rho, np.ndarray):
        e2 = np.exp(2.0 * _clamp_rhos(rho))
    else:
        e2 = math.exp(2.0 * _clamp_rho(rho))
    return 2.0 * uprime**3 + 3.0 * params.t * uprime**2 - 3.0 * e2
