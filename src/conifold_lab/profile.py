"""The scalar radial profile of the symmetric metric family.

Every metric in the family is determined by one convex function u(rho) of
the log fibre radius.  Vanishing Ricci curvature reduces, after integrating
the underlying ODE twice, to the cubic

    2 (u')^3 + 3 t (u')^2 - 3 e^{2 rho} = 0,

whose unique positive root gives u'(rho, t); differentiating once more gives
the pointwise identity (t + u') u' u'' = e^{2 rho}, which is how u'' is
evaluated here.  Only u' and u'' are ever needed downstream, so u itself is
never integrated.

Numerics: the root is taken on the rescaled variable q = e^{-rho} u', which
satisfies 2 e^{rho} q^3 + 3 t q^2 - 3 = 0 and stays O(1) even when e^{2 rho}
spans hundreds of orders of magnitude.  With y = u'/t = q e^rho / t and
s = sqrt(3) e^rho t^{-3/2} the cubic reads 2 y^3 + 3 y^2 = s^2, whose
positive root has a closed form on each side of s = 1:

    s <= 1:  y = 2 sin(theta) sin(pi/3 - theta),   theta = arcsin(s) / 3,
    s > 1:   y = (w + 1/w) / 2 - 1/2,   w = cbrt(s + sqrt((s - 1)(s + 1)))^2.

Neither branch cancels.  The first is a product of positive factors, good
to an ulp or two even for tiny s, where its equal cos(pi/3 - 2 theta) - 1/2
would cancel.  In the second, w >= 1, so (w + 1/w) / 2 >= 1 and subtracting
1/2 loses at most one bit; (s - 1)(s + 1) is s^2 - 1 without its
cancellation near s = 1.  From q = y t / e^rho one Newton step of the
rescaled cubic finishes the solve: a Newton step squares the start's
relative error, so any start good to 1e-9 leaves only the rounding of the
step itself, and the result lands within 2 ulps of the exact root.  That
lets ``eval_profile`` take its cube roots as powers x ** (1/3), which run
on every supported Python and are good to 1e-13 up to s = 1e150.

The start is chosen on x = 1/s = t^{3/2} / (sqrt(3) e^rho), which never
overflows.  Where x <= 1/``S_CONE``, so that (s - 1)(s + 1) would soon
overflow, the start is the cone limit (3 / (2 e^rho))^{1/3}, within a
relative 2^{-2/3} s^{-2/3} < 1e-100 of the root; elsewhere s = 1/x picks
one of the two closed forms.  At t = 0, x is 0 and the cone limit is the
exact root, the profile of the Candelas-de la Ossa cone:

    u' = (3/2)^{1/3} e^{2 rho/3},   u'' = (2/3)^{2/3} e^{2 rho/3}.

So the cone is the solver's t = 0 lane, not a path of its own;
``cone_profile`` is ``eval_profile`` at t = 0.

``eval_profile`` branches on floats; ``eval_profiles`` takes both branches
on every lane, with s clipped into each one's domain, and selects, so no
lane raises a floating-point warning.  Both apply the same Newton step
(``_newton``) and the same u'' formula, (e^rho / (t + u')) (e^rho / u'), so
neither e^{2 rho} nor e^{-2 rho} is ever formed.  The two are not
bit-identical: ``np.exp`` differs from ``math.exp`` in the last bit on a
few percent of inputs, and the lanes take their cube roots with
``np.cbrt``.  The tests that hold them together are
``test_pinned_bits.py``, both ``test_exact_root_within_two_ulps`` and
``TestLanes.test_matches_scalar_eval_profile``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, RangeClampedWarning

#: rho is clamped here before exponentiation to keep e^rho inside float range.
RHO_CLAMP = (-700.0, 300.0)

SQRT3 = math.sqrt(3.0)
PI_3 = math.pi / 3.0
#: From this s = 1/x on, the root's start is the cone limit (module docstring).
S_CONE = 1e150


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


def _newton(t, erho, q):
    """One Newton step on f(q) = 2*erho*q^3 + 3*t*q^2 - 3; floats or arrays."""
    return q - ((2.0 * erho * q + 3.0 * t) * q * q - 3.0) / (q * (6.0 * erho * q + 6.0 * t))


def _solve_q(t: float, erho: float) -> float:
    """Positive root of 2*erho*q^3 + 3*t*q^2 - 3 for t >= 0: the closed-form
    start of the module docstring and one Newton step."""
    x = t * math.sqrt(t) / (SQRT3 * erho)
    if x <= 1.0 / S_CONE:
        q = (1.5 / erho) ** (1.0 / 3.0)
    elif x >= 1.0:  # s = 1/x <= 1
        th = math.asin(1.0 / x) / 3.0
        q = 2.0 * math.sin(th) * math.sin(PI_3 - th) * t / erho
    else:
        s = 1.0 / x
        w = (s + math.sqrt((s - 1.0) * (s + 1.0))) ** (2.0 / 3.0)
        q = (0.5 * (w + 1.0 / w) - 0.5) * t / erho
    return _newton(t, erho, q)


def _solve_q_lanes(t, erho: np.ndarray) -> np.ndarray:
    """``_solve_q`` on every lane of erho; t >= 0 is a float or an array of lanes.

    The branches are those of ``_solve_q``, with s = 1/x clipped at
    ``S_CONE``.
    """
    x = t * np.sqrt(t) / (SQRT3 * erho)
    s = 1.0 / np.maximum(x, 1.0 / S_CONE)
    th = np.arcsin(np.minimum(s, 1.0)) / 3.0
    sh = np.maximum(s, 1.0)
    w = np.cbrt(sh + np.sqrt((sh - 1.0) * (sh + 1.0))) ** 2
    y = np.where(s <= 1.0, 2.0 * np.sin(th) * np.sin(PI_3 - th), 0.5 * (w + 1.0 / w) - 0.5)
    return _newton(t, erho, np.where(x > 1.0 / S_CONE, y * t / erho, np.cbrt(1.5 / erho)))


def eval_profile(params: ProfileParams, rho: float) -> ProfileEval:
    """u' from the cubic and u'' from (t + u') u' u'' = e^{2 rho}."""
    if not RHO_CLAMP[0] <= rho <= RHO_CLAMP[1]:
        rho = _clamp_rho(rho)
    t = params.t
    erho = math.exp(rho)
    up = erho * _solve_q(t, erho)
    return ProfileEval(rho, up, (erho / (t + up)) * (erho / up))


def eval_profiles(params: ProfileParams, rho) -> ProfileEval:
    """``eval_profile`` on an array of rho in one batched solve; array fields.

    Raises ``NonFinite`` if any lane is not finite and warns once if any lane
    is clamped.
    """
    rho = _clamp_rho(np.asarray(rho, dtype=float))
    erho = np.exp(rho)
    up = erho * _solve_q_lanes(params.t, erho)
    return ProfileEval(rho=rho, uprime=up, usecond=(erho / (params.t + up)) * (erho / up))


def cone_profile(rho: float) -> ProfileEval:
    """The t = 0 profile, the Candelas-de la Ossa cone: ``eval_profile`` at t = 0."""
    return eval_profile(ProfileParams(0.0), rho)


def cubic_residual(params: ProfileParams, rho, uprime):
    """Residual of the profile cubic at a claimed root (diagnostic); floats or arrays."""
    if isinstance(rho, np.ndarray):
        e2 = np.exp(2.0 * _clamp_rho(rho))
    elif RHO_CLAMP[0] <= rho <= RHO_CLAMP[1]:
        e2 = math.exp(2.0 * rho)
    else:
        e2 = math.exp(2.0 * _clamp_rho(rho))
    return 2.0 * uprime**3 + 3.0 * params.t * uprime**2 - 3.0 * e2
