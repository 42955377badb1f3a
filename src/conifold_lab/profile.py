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

Two loops solve the cubic, and each writes out the same Newton step, with
its loop-invariant products 2 e^rho, 3 t, 6 e^rho and 6 t taken out of the
loop, and the same u'' formula: ``eval_profile`` runs a float loop into an
unfrozen record, so a single call pays no helper calls and no array
overhead; ``eval_profiles`` runs a masked loop over an array of rho, where
each lane stops at its own first non-decreasing step.  The float loop takes
the smaller start with a comparison, not the builtin ``min``: that call was
a fixed cost of every scalar solve, and removing it, with a slotted
``ProfileParams``, took bench ``pointwise`` ``wall_s`` down by about 8%
with the same bits (ROADMAP).  u'' is evaluated as
(e^rho / (t + u')) (e^rho / u'), so neither e^{2 rho} nor e^{-2 rho} is ever
formed.  Both loops land within 2 ulps of the exact root, but they are not
bit-identical: ``np.exp`` and the array power differ from ``math.exp`` and
the float power in the last bit on a few percent of inputs.  The tests that
hold the two copies together are ``test_pinned_bits.py``, both
``test_exact_root_within_two_ulps`` and
``TestLanes.test_matches_scalar_eval_profile``.

The t = 0 member has the closed-form solution

    u' = (3/2)^{1/3} e^{2 rho/3},   u'' = (2/3)^{2/3} e^{2 rho/3},

exposed separately as ``cone_profile``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, RangeClampedWarning

#: rho is clamped here before exponentiation to keep e^rho inside float range.
RHO_CLAMP = (-700.0, 300.0)

CONE_UPRIME_COEFF = (3.0 / 2.0) ** (1.0 / 3.0)
CONE_USECOND_COEFF = (2.0 / 3.0) ** (2.0 / 3.0)


@dataclass(frozen=True, slots=True)
class ProfileParams:
    """Kaehler class parameter: the coefficient t >= 0 of the base form.

    Frozen, hashable and validated; slotted, so ``params.t`` is a slot read.
    """

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:  # also NaN and +-inf
            raise ValueError("t must lie in [0, 1]")


@dataclass(slots=True)
class ProfileEval:
    """u' and u'' at a given (t, rho); both are strictly positive.

    Floats from ``eval_profile``, equal-shape arrays from ``eval_profiles``.
    Mutable and unhashable: a slotted, unfrozen record is cheaper to build.
    """

    rho: float
    uprime: float
    usecond: float


def _clamp_rho(rho):
    """rho, a float or an array, clamped into ``RHO_CLAMP`` with one warning per call.

    Raises ``NonFinite`` if rho (any lane) is not finite.  Float callers first
    test ``RHO_CLAMP[0] <= rho <= RHO_CLAMP[1]``, which NaN also fails, so an
    in-range float never pays for this call.
    """
    if not np.isfinite(rho).all():
        raise NonFinite("rho must be finite")
    lo, hi = RHO_CLAMP
    n_out = np.count_nonzero((rho < lo) | (rho > hi))
    if not n_out:
        return rho
    warnings.warn(f"{n_out} rho value(s) clamped into [{lo}, {hi}]", RangeClampedWarning,
                  stacklevel=3)
    clamped = np.clip(rho, lo, hi)
    return clamped if isinstance(rho, np.ndarray) else float(clamped)


def _solve_q(t: float, erho: float) -> float:
    """Positive root of f(q) = 2*erho*q^3 + 3*t*q^2 - 3 by monotone Newton.

    The start min((3/(2 e^rho))^{1/3}, t^{-1/2}) lies above the root:
    both cubic terms are positive, so f > 0 at each single-regime root.  The
    module docstring gives why the loop descends onto the root and terminates.
    The minimum is an ``if``, not the builtin ``min``, whose call was the
    cost to remove; both give the same value for every non-NaN pair.
    """
    q = (1.5 / erho) ** (1.0 / 3.0)
    if t > 0.0:
        m = 1.0 / math.sqrt(t)
        if m < q:
            q = m
    q *= 1.0 + 1e-12
    e2, t3, e6, t6 = 2.0 * erho, 3.0 * t, 6.0 * erho, 6.0 * t
    while True:
        q_new = q - ((e2 * q + t3) * q * q - 3.0) / (q * (e6 * q + t6))
        if not q_new < q:
            return q
        q = q_new


def _solve_q_lanes(t, erho: np.ndarray) -> np.ndarray:
    """``_solve_q`` on every lane of erho, from the same start and with the
    same step; t > 0 is a float or an array of lanes.

    A lane leaves the loop at its first step that does not decrease q and
    keeps that q, exactly as the float loop returns.
    """
    q = np.minimum((1.5 / erho) ** (1.0 / 3.0), 1.0 / np.sqrt(t)) * (1.0 + 1e-12)
    live = np.ones(q.shape, dtype=bool)
    e2, t3, e6, t6 = 2.0 * erho, 3.0 * t, 6.0 * erho, 6.0 * t
    while live.any():
        q_new = q - ((e2 * q + t3) * q * q - 3.0) / (q * (e6 * q + t6))
        live &= q_new < q
        q = np.where(live, q_new, q)
    return q


def _cone(rho, g) -> ProfileEval:
    """The t = 0 profile from g = e^{2 rho/3}; floats or arrays."""
    return ProfileEval(rho=rho, uprime=CONE_UPRIME_COEFF * g, usecond=CONE_USECOND_COEFF * g)


def eval_profile(params: ProfileParams, rho: float) -> ProfileEval:
    """u' from the cubic and u'' from (t + u') u' u'' = e^{2 rho}."""
    if not RHO_CLAMP[0] <= rho <= RHO_CLAMP[1]:
        rho = _clamp_rho(rho)
    t = params.t
    if t == 0.0:
        return cone_profile(rho)
    erho = math.exp(rho)
    up = erho * _solve_q(t, erho)
    return ProfileEval(rho, up, (erho / (t + up)) * (erho / up))


def eval_profiles(params: ProfileParams, rho) -> ProfileEval:
    """``eval_profile`` on an array of rho in one masked Newton solve; array fields.

    Raises ``NonFinite`` if any lane is not finite and warns once if any lane
    is clamped.
    """
    rho = _clamp_rho(np.asarray(rho, dtype=float))
    if params.t == 0.0:
        return _cone(rho, np.exp(2.0 * rho / 3.0))
    erho = np.exp(rho)
    up = erho * _solve_q_lanes(params.t, erho)
    return ProfileEval(rho=rho, uprime=up, usecond=(erho / (params.t + up)) * (erho / up))


def cone_profile(rho: float) -> ProfileEval:
    """Closed-form t = 0 profile; no root-finding."""
    if not RHO_CLAMP[0] <= rho <= RHO_CLAMP[1]:
        rho = _clamp_rho(rho)
    return _cone(rho, math.exp(2.0 * rho / 3.0))


def cubic_residual(params: ProfileParams, rho, uprime):
    """Residual of the profile cubic at a claimed root (diagnostic); floats or arrays."""
    if isinstance(rho, np.ndarray):
        e2 = np.exp(2.0 * _clamp_rho(rho))
    elif RHO_CLAMP[0] <= rho <= RHO_CLAMP[1]:
        e2 = math.exp(2.0 * rho)
    else:
        e2 = math.exp(2.0 * _clamp_rho(rho))
    return 2.0 * uprime**3 + 3.0 * params.t * uprime**2 - 3.0 * e2
