"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here or read from the
fixed ``cli.DEFAULT_TOLERANCES``; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np

from conifold_lab.chart import OMEGA, DomainSpec, ResolvedPoint, rho, rho_1
from conifold_lab.curvature import StencilSpec, ricci_form
from conifold_lab.forms import (
    CONIFOLD_FLAT,
    OMEGA_HAT,
    V,
    W,
    calabi_family,
    compare_forms,
    eval_form,
    restrict_to_fibre,
    vector_norm_sq,
)
from conifold_lab.metricgeom import (
    build_cloud,
    cloud_diameter,
    gh_upper_bounds,
    radial_length_from_rho,
    radial_stub,
    sample_domain,
    zero_section_diameter,
)
from conifold_lab.profile import ProfileParams, eval_profile, eval_profiles
from conifold_lab.cli import DEFAULT_TOLERANCES
from oracles import (
    radial_length_quadrature,
    zero_section_area_quadrature,
    zero_section_diameter_quadrature,
)

RNG = np.random.default_rng(20240901)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT {number:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_profile_exactness():
    # u'' against a centred difference of u', which does not use the identity
    # (t + u') u' u'' = e^{2 rho} through which u'' is computed
    start = time.monotonic()
    h = 1e-4
    worst_cubic, worst_fd = 0.0, 0.0
    for _ in range(10_000):
        t = float(RNG.uniform(0.0, 1.0))
        r = float(RNG.uniform(-30.0, 5.0))
        params = ProfileParams(t)
        prof = eval_profile(params, r)
        e2 = math.exp(2.0 * r)
        res = abs(2 * prof.uprime**3 + 3 * t * prof.uprime**2 - 3 * e2)
        worst_cubic = max(worst_cubic, res / max(1.0, 3 * e2))
        fd = (eval_profile(params, r + h).uprime - eval_profile(params, r - h).uprime) / (2 * h)
        worst_fd = max(worst_fd, abs(prof.usecond - fd) / prof.usecond)
    elapsed = time.monotonic() - start
    ok = (worst_cubic <= 1e-10 and worst_fd <= DEFAULT_TOLERANCES["usecond_fd_rel"]
          and elapsed < 5.0)
    report(1, "profile-exactness", ok,
           f"cubic={worst_cubic:.3g} usecond_fd={worst_fd:.3g} time={elapsed:.2f}s")


def test_02_cone_closed_form():
    worst = 0.0
    for r in np.linspace(-20.0, 0.0, 400):
        got = eval_profile(ProfileParams(0.0), float(r)).uprime
        want = 1.5 ** (1 / 3) * math.exp(2 * float(r) / 3)
        worst = max(worst, abs(got - want) / want)
    report(2, "cone-closed-form", worst <= 1e-10, f"rel={worst:.3g}")


def _random_shell_points(n, rho_lo, rho_hi):
    pts = []
    while len(pts) < n:
        r = float(RNG.uniform(rho_lo, rho_hi))
        z = complex(*RNG.normal(size=2)) * 0.5
        a, b = complex(*RNG.normal(size=2)), complex(*RNG.normal(size=2))
        nrm = math.hypot(abs(a), abs(b))
        if nrm == 0:
            continue
        scale = math.exp(0.5 * r) / math.sqrt(1 + abs(z) ** 2) / nrm
        pts.append(ResolvedPoint(z, scale * a, scale * b))
    return pts


def test_03_ricci_flatness_matrix_route():
    start = time.monotonic()
    stencil = StencilSpec(h=1e-3, order=4)
    worst = 0.0
    for p in _random_shell_points(20, -5.0, -0.05):
        m = ricci_form(calabi_family(1.0), p, stencil).m
        worst = max(worst, float(np.abs(m).max()))
    control = float(np.abs(ricci_form(OMEGA_HAT, ResolvedPoint(0, 0.5, 0), stencil).m).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and control > 1e-2 and elapsed < 30.0
    report(3, "ricci-flatness-matrix", ok,
           f"family_max={worst:.3g} control={control:.3g} time={elapsed:.2f}s")


def test_04_fibre_sandwich():
    start = time.monotonic()
    pts = sample_domain(OMEGA, 100_000, seed=1001)
    eye = np.eye(2)
    m2 = restrict_to_fibre(OMEGA_HAT, pts)
    e_r1 = np.exp(rho_1(pts))
    worst_lower = np.linalg.eigvalsh(m2 - eye)[:, 0].min()
    worst_upper = np.linalg.eigvalsh((2.0 / e_r1)[:, None, None] * eye - m2)[:, 0].min()
    elapsed = time.monotonic() - start
    ok = worst_lower >= -1e-10 and worst_upper >= -1e-10 and elapsed < 60.0
    report(4, "fibre-sandwich", ok,
           f"min_lower={worst_lower:.3g} min_upper={worst_upper:.3g} time={elapsed:.2f}s")


def test_05_norm_identities():
    pts = sample_domain(OMEGA, 10_000, seed=1002)
    er = np.exp(rho(pts))
    worst_hat = float(np.max(np.abs(vector_norm_sq(OMEGA_HAT, V, pts) - er) / er))
    t_grid = (1.0, 0.1, 0.01, 0.001)
    worst_family = 0.0
    sup_w = {}
    sub = pts[:2000]
    r = rho(sub)
    for t in t_grid:
        kind = calabi_family(t)
        us = eval_profiles(ProfileParams(t), r).usecond
        worst_family = max(
            worst_family, float(np.max(np.abs(vector_norm_sq(kind, V, sub) - us) / us))
        )
        sup_w[t] = float(np.max(np.exp(0.5 * r) * vector_norm_sq(kind, W, sub)))
    ok = worst_hat <= 1e-8 and worst_family <= 1e-8 and max(sup_w.values()) < math.inf
    report(5, "norm-identities", ok,
           f"hat_rel={worst_hat:.3g} family_rel={worst_family:.3g} "
           f"vertical_constant_per_t={ {t: round(v, 4) for t, v in sup_w.items()} }")


def test_06_tangential_sandwich():
    pts = sample_domain(OMEGA, 10_000, seed=1003)
    flat = eval_form(CONIFOLD_FLAT, pts)
    er = np.exp(rho(pts))
    c0s, c1s = {}, {}
    for t in (1.0, 0.1, 0.01):
        lmin, lmax = compare_forms(eval_form(calabi_family(t), pts), flat)
        c0s[t], c1s[t] = float(lmin.min()), float((lmax * er).max())
    stable0 = max(c0s.values()) / min(c0s.values()) <= 2.0
    stable1 = max(c1s.values()) / min(c1s.values()) <= 2.0
    ok = min(c0s.values()) > 0.0 and stable0 and stable1
    report(6, "tangential-sandwich", ok,
           f"c0={ {t: round(v, 4) for t, v in c0s.items()} } "
           f"c1={ {t: round(v, 4) for t, v in c1s.items()} }")


#: Spread of quadrature diameter / sqrt(t) over t, and its gap to the closed form.
DIAM_SQRT_SPREAD = 1e-8
DIAM_CLOSED_FORM_REL = 1e-10


def test_07_diameter_scaling():
    # the meridian length of the full restricted family form, not the closed form sqrt(t) pi/2
    t_grid = (1.0, 0.1, 0.01)
    diams = {t: zero_section_diameter_quadrature(t) for t in t_grid}
    ratios = [d / math.sqrt(t) for t, d in diams.items()]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    gap = max(abs(d - zero_section_diameter(t)) / d for t, d in diams.items())
    ok = spread <= DIAM_SQRT_SPREAD and gap <= DIAM_CLOSED_FORM_REL
    report(7, "diameter-scaling", ok, f"sqrt_spread={spread:.3g} closed_form_rel={gap:.3g}")


def test_08_area_linearity():
    # the area integral of the full restricted family form, not the closed form 2 pi t
    ratios = [zero_section_area_quadrature(t) / t for t in (1.0, 0.1, 0.01)]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    report(8, "area-linearity", spread <= 1e-8, f"spread={spread:.3g}")


def test_09_radial_length():
    worst_cone = 0.0
    for r in np.linspace(-20.0, 0.0, 21):
        got = radial_length_from_rho(float(r), 0.0)
        want = radial_length_quadrature(float(r), 0.0)
        worst_cone = max(worst_cone, abs(got - want))
    base = radial_length_from_rho(0.0, 0.0)
    worst_t = max(radial_length_from_rho(0.0, t) for t in np.linspace(0.0, 1.0, 11))
    ok = worst_cone <= 1e-8 and worst_t <= base + 1e-6
    report(9, "radial-length", ok, f"cone_abs={worst_cone:.3g} sup_t={worst_t:.6f}")


def test_10_gh_collapse():
    start = time.monotonic()
    t_grid = [1.0, 0.3, 0.1, 0.03, 0.01]
    ok = True
    details = []
    for seed in (1, 2, 3, 4, 5):
        bounds = [e.bound for e in gh_upper_bounds(t_grid, n=2000, seed=seed, graph_k=12)]
        monotone = all(nxt <= prev * 1.10 for prev, nxt in zip(bounds, bounds[1:]))
        collapse = bounds[-1] < bounds[0] / 3
        ok = ok and monotone and collapse
        details.append(f"seed{seed}:{[round(b, 3) for b in bounds]}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    report(10, "gh-collapse", ok, f"{'; '.join(details)} time={elapsed:.1f}s")


def test_11_small_neighbourhood_shrinks():
    eps = 0.2
    found = None
    for delta, t in ((0.01, 1e-3), (0.005, 1e-4), (0.002, 1e-5)):
        graph = build_cloud(DomainSpec(delta), calabi_family(t), n=400, graph_k=10, seed=7)
        diam = cloud_diameter(graph) + 2 * radial_stub(t, 2 * math.log(delta) - 20.0)
        if diam < eps:
            found = (delta, t, diam)
            break
    report(11, "small-neighbourhood-shrinks", found is not None,
           f"found={found}" if found else "no (delta, t) reached the target")
