"""Form evaluation: matrices, fibre restrictions, traces, norms, comparisons."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conifold_lab.chart import OMEGA, ResolvedPoint, rho, rho_1
from conifold_lab.curvature import StencilSpec, complex_hessian
from conifold_lab.errors import (
    BaseMismatch,
    InfiniteFibre,
    NotPositiveDefinite,
    OnZeroSection,
    RangeClampedWarning,
)
from conifold_lab.forms import (
    RHO_DEEP_LIMIT,
    CONE_METRIC,
    CONIFOLD_FLAT,
    OMEGA_HAT,
    FormKind,
    HermitianForm,
    V,
    W,
    _fibre_jacobian,
    calabi_family,
    compare_forms,
    eval_form,
    fibrewise_trace_H,
    restrict_to_fibre,
    vector_norm_sq,
)
from conifold_lab.metricgeom import sample_domain
from conifold_lab.profile import RHO_CLAMP, ProfileParams, eval_profile, eval_profiles
from oracles import fubini_study_matrix, tau_matrix

RNG = np.random.default_rng(4242)


def random_omega_point(rho_lo=-15.0, rho_hi=-1e-3, rng=RNG):
    """A random point of Omega with nonzero xi1 (finite fibre coordinate)."""
    r = float(rng.uniform(rho_lo, rho_hi))
    z = complex(*rng.normal(size=2))
    phase = rng.normal(size=4)
    a = complex(phase[0], phase[1])
    b = complex(phase[2], phase[3])
    nrm = math.hypot(abs(a), abs(b))
    if abs(a) < 1e-3 * nrm:
        return random_omega_point(rho_lo, rho_hi, rng)
    scale = math.exp(0.5 * r) / math.sqrt(1 + abs(z) ** 2) / nrm
    return ResolvedPoint(z, scale * a, scale * b)


def random_unitary_2():
    raw = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotate_fibre(p: ResolvedPoint, unitary: np.ndarray) -> ResolvedPoint:
    """Apply a U(2) rotation to the fibre coordinates (trivialization change)."""
    xi = unitary @ np.array([p.xi1, p.xi2])
    return ResolvedPoint(z=p.z, xi1=complex(xi[0]), xi2=complex(xi[1]))


ALL_KINDS = [OMEGA_HAT, CONIFOLD_FLAT, CONE_METRIC, calabi_family(0.37)]


def restricted_tau(p):
    """The tau oracle pulled back to the fibre, as ``restrict_to_fibre`` pulls back a kind."""
    jac = _fibre_jacobian(p)
    return jac.T @ tau_matrix(p) @ jac.conjugate()


def stack(points):
    """One stacked point from a list of points."""
    return ResolvedPoint(*(np.array([getattr(p, c) for p in points], dtype=complex)
                           for c in ("z", "xi1", "xi2")))


def point_at_rho(r, z=0.3 - 0.2j, w=0.5 + 0.25j):
    """A point with log fibre radius r on the fibre xi2 = w xi1 over z."""
    xi1 = math.exp(0.5 * r) / math.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))
    return ResolvedPoint(z, xi1, w * xi1)


def assert_lanes_close(got, want, rel):
    """Each lane within rel of the largest entry of its own per-point value."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    axes = tuple(range(1, want.ndim))
    scale = np.abs(want).max(axis=axes, keepdims=True) if axes else np.abs(want)
    assert (np.abs(got - want) <= rel * scale).all()


#: random points of Omega, then the domain's edges, then two points far below it
_SHELL_RNG = np.random.default_rng(4243)
SHELL = [random_omega_point(rng=_SHELL_RNG) for _ in range(40)] + [
    point_at_rho(r) for r in (-20.0, -1e-6, -400.0, RHO_DEEP_LIMIT + 0.5)
]


class TestFormKind:
    def test_family_requires_t(self):
        with pytest.raises(ValueError):
            FormKind("CalabiFamily")
        with pytest.raises(ValueError):
            calabi_family(0.0)
        with pytest.raises(ValueError):
            calabi_family(1.5)

    def test_plain_kinds_reject_t(self):
        with pytest.raises(ValueError):
            FormKind("OmegaHat", 0.5)

    def test_cone_is_the_t0_kind(self):
        assert CONE_METRIC.t == 0.0
        for t in (None, 0.5):
            with pytest.raises(ValueError, match="ConeMetric is the t = 0 kind"):
                FormKind("ConeMetric", t)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown form kind 'tau'"):
            FormKind("tau")


class TestEvalForm:
    def test_fubini_study_at_origin(self):
        # the base term of OMEGA_HAT, which CONIFOLD_FLAT lacks
        for xi in [(1, 0), (0.3, 0.4j)]:
            p = ResolvedPoint(0, *xi)
            want = np.zeros((3, 3), complex)
            want[0, 0] = 1.0
            assert np.allclose(fubini_study_matrix(p), want, atol=1e-15)
            m = eval_form(OMEGA_HAT, p).m - eval_form(CONIFOLD_FLAT, p).m
            assert np.allclose(m, want, atol=1e-15)

    def test_omega_hat_is_fs_plus_hessian(self):
        # finite-difference hessian of e^rho as the independent route
        stencil = StencilSpec(h=1e-3, order=4)
        for _ in range(10):
            p = random_omega_point(rho_lo=-4.0)
            fd = complex_hessian(lambda q: np.exp(rho(q)), p, stencil).m
            lhs = eval_form(OMEGA_HAT, p).m
            rhs = fubini_study_matrix(p) + fd
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_family_contraction_equals_usecond(self):
        for t in (0.05, 0.5, 1.0):
            for _ in range(10):
                p = random_omega_point()
                m = eval_form(calabi_family(t), p).m
                v = np.array([0, p.xi1, p.xi2], complex)
                got = float(np.real(v @ m @ v.conjugate()))
                want = eval_profile(ProfileParams(t), rho(p)).usecond
                assert abs(got - want) <= 1e-8 * want

    def test_hermitian_all_kinds(self):
        for kind in ALL_KINDS:
            for _ in range(20):
                p = random_omega_point()
                m = eval_form(kind, p).m
                assert np.abs(m - m.conj().T).max() <= 1e-12 * max(1.0, np.abs(m).max())

    def test_definiteness_by_kind(self):
        for _ in range(20):
            p = random_omega_point()
            # positive definite kinds
            for kind in (OMEGA_HAT, CONIFOLD_FLAT, CONE_METRIC, calabi_family(0.37)):
                ev = np.linalg.eigvalsh(eval_form(kind, p).m)
                assert ev[0] > 0.0
            # the degenerate oracle forms: PSD with the expected rank
            ev_fs = np.linalg.eigvalsh(fubini_study_matrix(p))
            assert ev_fs[0] >= -1e-15 and np.sum(ev_fs > 1e-13) == 1
            ev_tau = np.linalg.eigvalsh(tau_matrix(p))
            assert ev_tau[0] >= -1e-12 and np.sum(ev_tau > 1e-13) <= 2

    def test_zero_section_rules(self):
        p0 = ResolvedPoint(0.5, 0, 0)
        eval_form(OMEGA_HAT, p0)
        eval_form(CONIFOLD_FLAT, p0)
        for kind in (CONE_METRIC, calabi_family(0.2)):
            with pytest.raises(OnZeroSection):
                eval_form(kind, p0)

    def test_deep_cutoff(self):
        deep = ResolvedPoint(0, math.exp(-400), 0)  # rho = -800 < -650
        with pytest.raises(OnZeroSection):
            eval_form(calabi_family(0.5), deep)


class TestEvalForms:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: f"{kind.tag}-{kind.t}")
    def test_matches_eval_form_lane_by_lane(self, kind):
        got = eval_form(kind, stack(SHELL)).m
        assert got.shape == (len(SHELL), 3, 3)
        assert_lanes_close(got, [eval_form(kind, p).m for p in SHELL], 1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: f"{kind.tag}-{kind.t}")
    def test_clamped_lanes_warn_once_per_call(self, kind):
        pts = [point_at_rho(r) for r in (-3.0, RHO_CLAMP[1] + 1.0, RHO_CLAMP[1] + 5.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = eval_form(kind, stack(pts)).m
        clamps = [w for w in caught if w.category is RangeClampedWarning]
        assert len(clamps) == (0 if kind.t is None else 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RangeClampedWarning)
            want = [eval_form(kind, p).m for p in pts]
        assert_lanes_close(got, want, 1e-14)

    @pytest.mark.parametrize("kind", [CONE_METRIC, calabi_family(0.2)], ids=["cone", "family"])
    def test_first_bad_lane_raises(self, kind):
        deep = point_at_rho(RHO_DEEP_LIMIT - 1.0)
        for bad in (ResolvedPoint(0.5, 0, 0), deep):
            with pytest.raises(OnZeroSection):
                eval_form(kind, bad)
            with pytest.raises(OnZeroSection):
                eval_form(kind, stack([SHELL[0], bad, SHELL[1]]))


class TestStackedHelpers:
    """Every helper on a stack equals the helper point by point."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: f"{kind.tag}-{kind.t}")
    def test_restriction_and_trace(self, kind):
        pts = stack(SHELL)
        assert_lanes_close(restrict_to_fibre(kind, pts),
                           [restrict_to_fibre(kind, p) for p in SHELL], 1e-13)
        assert_lanes_close(fibrewise_trace_H(kind, pts),
                           [fibrewise_trace_H(kind, p) for p in SHELL], 1e-13)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: f"{kind.tag}-{kind.t}")
    @pytest.mark.parametrize("v", [V, W])
    def test_vector_norms(self, kind, v):
        pts = stack(SHELL)
        assert_lanes_close(vector_norm_sq(kind, v, pts),
                           [vector_norm_sq(kind, v, p) for p in SHELL], 1e-13)

    @pytest.mark.parametrize("kind", [OMEGA_HAT, CONE_METRIC, calabi_family(1.0),
                                      calabi_family(0.01)], ids=lambda k: f"{k.tag}-{k.t}")
    def test_compare_forms(self, kind):
        # a Hermitian pencil fixes each eigenvalue only to a fraction of the
        # largest one (Weyl), so each lane's pair is compared at that scale
        shell = SHELL[:-2]  # the two deepest have no positive definite reference
        pts = stack(shell)
        lmin, lmax = compare_forms(eval_form(kind, pts), eval_form(CONIFOLD_FLAT, pts))
        pairs = [compare_forms(eval_form(kind, p), eval_form(CONIFOLD_FLAT, p)) for p in shell]
        assert_lanes_close(np.stack([lmin, lmax], axis=-1), pairs, 1e-13)

    def test_scalar_results_are_floats(self):
        p = SHELL[0]
        assert type(fibrewise_trace_H(OMEGA_HAT, p)) is float
        assert type(vector_norm_sq(OMEGA_HAT, W, p)) is float
        pair = compare_forms(eval_form(OMEGA_HAT, p), eval_form(CONIFOLD_FLAT, p))
        assert [type(x) for x in pair] == [float, float]

    def test_any_bad_lane_raises(self):
        good = SHELL[:3]
        for bad, error in ((ResolvedPoint(1, 0, 0), OnZeroSection),
                           (ResolvedPoint(1, 0, 0.5), InfiniteFibre)):
            pts = stack(good[:1] + [bad] + good[1:])
            with pytest.raises(error):
                restrict_to_fibre(CONIFOLD_FLAT, pts)
            with pytest.raises(error):
                fibrewise_trace_H(OMEGA_HAT, pts)
        pts = stack(good[:1] + [ResolvedPoint(1, 0, 0)] + good[1:])
        for v in (V, W):
            with pytest.raises(OnZeroSection):
                vector_norm_sq(OMEGA_HAT, v, pts)
        pts = stack(good)
        with pytest.raises(ValueError, match="unknown vector field 'U'"):
            vector_norm_sq(OMEGA_HAT, "U", pts)
        with pytest.raises(NotPositiveDefinite):
            compare_forms(eval_form(OMEGA_HAT, pts), HermitianForm(base=pts, m=tau_matrix(pts)))
        other = stack(good[:2] + SHELL[3:4])
        with pytest.raises(BaseMismatch):
            compare_forms(eval_form(OMEGA_HAT, pts), eval_form(OMEGA_HAT, other))
        # one degenerate reference lane among positive definite ones
        flat = eval_form(CONIFOLD_FLAT, pts)
        m = flat.m.copy()
        m[1] = tau_matrix(good[1])
        with pytest.raises(NotPositiveDefinite):
            compare_forms(eval_form(OMEGA_HAT, pts), HermitianForm(base=pts, m=m))


class TestRestriction:
    def test_tau_restricts_to_identity(self):
        for _ in range(25):
            p = random_omega_point()
            m2 = restricted_tau(p)
            assert np.abs(m2 - np.eye(2)).max() <= 1e-12

    def test_omega_hat_on_central_fibre(self):
        # hand computation at (0, r, 0): diag(1 + 1/r^2, 1)
        for r in (0.3, 0.9):
            p = ResolvedPoint(0, r, 0)
            m2 = restrict_to_fibre(OMEGA_HAT, p)
            want = np.diag([1 + 1 / r**2, 1.0]).astype(complex)
            assert np.abs(m2 - want).max() <= 1e-12

    def test_linearity(self):
        p = random_omega_point()
        a = restrict_to_fibre(OMEGA_HAT, p)
        b = restricted_tau(p)
        # restriction of the pointwise sum equals the sum of restrictions
        jac = _fibre_jacobian(p)
        summed = eval_form(OMEGA_HAT, p).m + tau_matrix(p)
        direct = jac.T @ summed @ jac.conjugate()
        assert np.abs(direct - (a + b)).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    def test_errors(self):
        with pytest.raises(OnZeroSection):
            restrict_to_fibre(CONIFOLD_FLAT, ResolvedPoint(1, 0, 0))
        with pytest.raises(InfiniteFibre):
            restrict_to_fibre(CONIFOLD_FLAT, ResolvedPoint(1, 0, 0.5))


class TestFibrewiseTrace:
    def test_tau_trace_two(self):
        for _ in range(10):
            trace = np.trace(restricted_tau(random_omega_point())).real
            assert trace == pytest.approx(2.0, abs=1e-12)

    def test_omega_hat_trace_formula(self):
        p = ResolvedPoint(0, 0.5, 0)
        want = 2.0 + math.exp(-rho_1(p))
        assert fibrewise_trace_H(OMEGA_HAT, p) == pytest.approx(want, rel=1e-12)

    def test_omega_hat_trace_bound(self):
        # restriction sandwich gives trace <= 4 e^{-rho_1} on Omega
        for _ in range(200):
            p = random_omega_point()
            val = math.exp(rho_1(p)) * fibrewise_trace_H(OMEGA_HAT, p)
            assert val <= 4.0 + 1e-9


class TestFamilyTraceBound:
    def test_scaled_trace_uniformly_bounded(self):
        # e^{rho_1} * H stays bounded over the sample for every t in the grid;
        # the supremum itself is empirical (recorded, not pinned)
        sups = {}
        for t in (1.0, 0.1, 0.01, 0.001):
            kind = calabi_family(t)
            sup = 0.0
            for _ in range(150):
                p = random_omega_point()
                sup = max(
                    sup, math.exp(rho_1(p)) * fibrewise_trace_H(kind, p)
                )
            sups[t] = sup
        assert all(math.isfinite(v) for v in sups.values())
        assert max(sups.values()) < 50.0


class TestFibreSandwich:
    def test_two_sided_bound(self):
        # tau <= omega_hat <= 2 e^{-rho_1} tau on every fibre slice of Omega
        for _ in range(300):
            p = random_omega_point()
            m2 = restrict_to_fibre(OMEGA_HAT, p)
            e_r1 = math.exp(rho_1(p))
            lower = np.linalg.eigvalsh(m2 - np.eye(2))[0]
            upper = np.linalg.eigvalsh((2.0 / e_r1) * np.eye(2) - m2)[0]
            assert lower >= -1e-10
            assert upper >= -1e-10


class TestVectorNorms:
    def test_v_norm_under_reference(self):
        for _ in range(50):
            p = random_omega_point()
            want = math.exp(rho(p))
            got = vector_norm_sq(OMEGA_HAT, V, p)
            assert abs(got - want) <= 1e-10 * want

    def test_v_norm_under_family(self):
        for t in (0.03, 1.0):
            for _ in range(25):
                p = random_omega_point()
                want = eval_profile(ProfileParams(t), rho(p)).usecond
                got = vector_norm_sq(calabi_family(t), V, p)
                assert abs(got - want) <= 1e-8 * want

    def test_w_norm_scaling_and_cone_bound(self):
        for _ in range(25):
            p = random_omega_point()
            r = rho(p)
            got = vector_norm_sq(CONE_METRIC, W, p)
            want = (2 / 3) ** (2 / 3) * math.exp(-r / 3)
            assert abs(got - want) <= 1e-8 * want
            assert got <= math.exp(-r / 2) * (1 + 1e-12)

    def test_w_norm_family(self):
        for t in (0.01, 0.3):
            p = random_omega_point()
            r = rho(p)
            got = vector_norm_sq(calabi_family(t), W, p)
            want = math.exp(-r) * eval_profile(ProfileParams(t), r).usecond
            assert abs(got - want) <= 1e-8 * want

    def test_zero_section_error(self):
        with pytest.raises(OnZeroSection):
            vector_norm_sq(OMEGA_HAT, V, ResolvedPoint(0, 0, 0))


class TestCompareForms:
    def test_identity(self):
        p = random_omega_point()
        a = eval_form(OMEGA_HAT, p)
        lmin, lmax = compare_forms(a, a)
        assert lmin == pytest.approx(1.0, abs=1e-10)
        assert lmax == pytest.approx(1.0, abs=1e-10)

    def test_scaling(self):
        p = random_omega_point()
        a = eval_form(OMEGA_HAT, p)
        doubled = HermitianForm(base=p, m=2.0 * a.m)
        lmin, lmax = compare_forms(doubled, a)
        assert lmin == pytest.approx(2.0, rel=1e-10)
        assert lmax == pytest.approx(2.0, rel=1e-10)

    def test_base_mismatch(self):
        a = eval_form(OMEGA_HAT, random_omega_point())
        b = eval_form(OMEGA_HAT, random_omega_point())
        with pytest.raises(BaseMismatch):
            compare_forms(a, b)

    def test_distinct_equal_scalar_bases(self):
        p = random_omega_point()
        q = ResolvedPoint(p.z, p.xi1, p.xi2)
        assert q is not p
        a = eval_form(calabi_family(0.1), p)
        assert compare_forms(a, eval_form(CONIFOLD_FLAT, q)) == compare_forms(
            a, eval_form(CONIFOLD_FLAT, p)
        )

    def test_scalar_base_against_one_lane_stack(self):
        # equal coordinates, but one point against a stack of one is a mismatch
        p = random_omega_point()
        one = stack([p])
        for a, b in ((p, one), (one, p)):
            with pytest.raises(BaseMismatch):
                compare_forms(eval_form(OMEGA_HAT, a), eval_form(CONIFOLD_FLAT, b))

    def test_nan_coordinate_mismatch(self):
        # NaN equals nothing, even the same NaN object in two distinct bases
        p = random_omega_point()
        m = eval_form(CONIFOLD_FLAT, p).m
        nan = float("nan")
        for coords in ((nan, p.xi1, p.xi2), (p.z, complex(nan, 0.0), p.xi2)):
            a = HermitianForm(base=ResolvedPoint(*coords), m=m)
            b = HermitianForm(base=ResolvedPoint(*coords), m=m)
            with pytest.raises(BaseMismatch):
                compare_forms(a, b)
        lanes = stack([p, p])
        bad = ResolvedPoint(np.array([p.z, nan]), lanes.xi1, lanes.xi2)
        mm = eval_form(CONIFOLD_FLAT, lanes).m
        with pytest.raises(BaseMismatch):
            compare_forms(HermitianForm(base=bad, m=mm), HermitianForm(base=bad[:], m=mm))

    def test_matches_generalized_eigensolve(self):
        # oracle: LAPACK's generalized Hermitian eigensolver on the pencil (A, B),
        # compared at the scale of the largest eigenvalue (see TestStackedHelpers)
        for kind in (OMEGA_HAT, CONE_METRIC, calabi_family(1.0), calabi_family(0.01)):
            for p in SHELL[:-2]:
                a, b = eval_form(kind, p), eval_form(CONIFOLD_FLAT, p)
                ev = scipy.linalg.eigh(a.m, b.m, eigvals_only=True)
                lmin, lmax = compare_forms(a, b)
                assert abs(lmin - ev[0]) <= 1e-14 * ev[-1]
                assert lmax == pytest.approx(ev[-1], rel=1e-14)

    def test_degenerate_reference_rejected(self):
        p = random_omega_point()
        with pytest.raises(NotPositiveDefinite):
            compare_forms(eval_form(OMEGA_HAT, p), HermitianForm(base=p, m=tau_matrix(p)))

    def test_tangential_sandwich_sample(self):
        # lmin bounded below, lmax * e^rho bounded above, per the family bounds
        for t in (1.0, 0.1, 0.01):
            kind = calabi_family(t)
            lmins, lmax_scaled = [], []
            for _ in range(60):
                p = random_omega_point()
                lmin, lmax = compare_forms(
                    eval_form(kind, p), eval_form(CONIFOLD_FLAT, p)
                )
                lmins.append(lmin)
                lmax_scaled.append(lmax * math.exp(rho(p)))
            assert min(lmins) > 0.1
            assert max(lmax_scaled) < 10.0


class TestFamilySpectrum:
    """omega_t against CONIFOLD_FLAT has the eigenvalues (t + u', u', u'') e^{-rho} (forms)."""

    @pytest.mark.parametrize("t", [1.0, 0.1, 0.01, 1e-3])
    def test_closed_form_matches_pencil(self, t):
        # the pencil's lmin is fixed only to about eps * cond(B) relative,
        # cond(B) ~ 7e8 at the sample's floor rho = -20; measured worst cases
        # on this sample are 1.5e-7 (t = 1, deepest rho) and 4.0e-15 for lmax
        pts = sample_domain(OMEGA, 2000, 42)
        r = rho(pts)
        prof = eval_profiles(ProfileParams(t), r)
        lo = np.minimum(prof.uprime, prof.usecond) * np.exp(-r)
        hi = np.maximum(t + prof.uprime, prof.usecond) * np.exp(-r)
        lmin, lmax = compare_forms(eval_form(calabi_family(t), pts), eval_form(CONIFOLD_FLAT, pts))
        np.testing.assert_allclose(lmax, hi, rtol=1e-13, atol=0)
        np.testing.assert_allclose(lmin, lo, rtol=1e-6, atol=0)


class TestUnitaryInvariance:
    def test_invariants_preserved(self):
        for _ in range(10):
            p = random_omega_point()
            u = random_unitary_2()
            q = rotate_fibre(p, u)
            assert rho(q) == pytest.approx(rho(p), rel=1e-12)
            for kind in (OMEGA_HAT, calabi_family(0.4)):
                a = vector_norm_sq(kind, V, p)
                b = vector_norm_sq(kind, V, q)
                assert abs(a - b) <= 1e-8 * abs(a)
            lp = compare_forms(
                eval_form(calabi_family(0.4), p), eval_form(CONIFOLD_FLAT, p)
            )
            lq = compare_forms(
                eval_form(calabi_family(0.4), q), eval_form(CONIFOLD_FLAT, q)
            )
            assert lp[0] == pytest.approx(lq[0], rel=1e-8, abs=1e-10)
            assert lp[1] == pytest.approx(lq[1], rel=1e-8, abs=1e-10)
