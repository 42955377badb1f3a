"""Finite-difference Hessians and Ricci forms."""

import math

import numpy as np
import pytest

from conifold_lab import curvature
from conifold_lab.chart import ResolvedPoint, rho
from conifold_lab.curvature import (
    _UNIT_STENCILS,
    StencilSpec,
    complex_hessian,
    ricci_form,
    ricci_potential_residual,
)
from conifold_lab.errors import NonFinite, SingularMetric, StencilOutOfDomain
from conifold_lab.forms import (
    CONE_METRIC,
    OMEGA_HAT,
    TAU,
    calabi_family,
    eval_form,
    restrict_to_fibre,
)
from conifold_lab.profile import ProfileParams, eval_profile

RNG = np.random.default_rng(99)


def random_shell_point(rho_lo=-5.0, rho_hi=-0.5):
    r = float(RNG.uniform(rho_lo, rho_hi))
    z = complex(*RNG.normal(size=2)) * 0.7
    a = complex(*RNG.normal(size=2))
    b = complex(*RNG.normal(size=2))
    nrm = math.hypot(abs(a), abs(b))
    scale = math.exp(0.5 * r) / math.sqrt(1 + abs(z) ** 2) / nrm
    return ResolvedPoint(z, scale * a, scale * b)


class TestComplexHessian:
    def test_flat_square(self):
        s = StencilSpec(h=1e-3, order=4)
        m = complex_hessian(lambda p: abs(p.z) ** 2, ResolvedPoint(0.4 + 0.1j, 1, 2), s).m
        assert np.abs(m - np.diag([1, 0, 0])).max() <= 1e-9

    def test_pluriharmonic_vanishes(self):
        s = StencilSpec(h=1e-3, order=4)
        m = complex_hessian(lambda p: p.z.real, ResolvedPoint(0.2, 0.5, 0.1), s).m
        assert np.abs(m).max() <= 1e-9

    def test_fibre_radius_matches_chain_rule(self):
        # exact hessian of e^{rho_1} is the flat fibre form tau
        s = StencilSpec(h=1e-3, order=4)
        p = ResolvedPoint(1, 1, 0)

        def field(q):
            return abs(q.z * q.xi1) ** 2 + abs(q.xi1) ** 2

        fd = complex_hessian(field, p, s).m
        exact = np.array([[1, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=complex)
        assert np.abs(fd - exact).max() <= 1e-6

    def test_hermitian_output(self):
        s = StencilSpec(h=1e-3, order=4)
        p = random_shell_point()
        m = complex_hessian(lambda q: np.exp(rho(q)), p, s).m
        assert np.abs(m - m.conj().T).max() == 0.0

    @pytest.mark.parametrize("order", [2, 4])
    def test_stencil_convergence_rate(self, order):
        # non-polynomial field with known hessian: d d-bar log(1+|z|^2)
        p = ResolvedPoint(0.3 + 0.4j, 0.5, 0.2)
        h = 1 + abs(p.z) ** 2
        exact = np.diag([1 / h**2, 0, 0]).astype(complex)

        def err(step):
            m = complex_hessian(
                lambda q: np.log(1 + abs(q.z) ** 2), p, StencilSpec(h=step, order=order)
            ).m
            return np.abs(m - exact).max()

        ratio = err(8e-3) / err(4e-3)
        assert 2**order / 2 <= ratio <= 2**order * 2

    def test_stencil_parameters_validated(self):
        with pytest.raises(ValueError):
            StencilSpec(h=1e-7)
        with pytest.raises(ValueError):
            StencilSpec(order=3)


def stencil_oracle(h, order):
    """The scaled stencil built row by row, in the tables' row order.

    Each entry is formed by the same float operations as the table, so
    signed zeros agree too: off * (1 or 0) per coordinate, then times h.
    """
    if order == 2:
        off, d1, d2, centre = [-1.0, 1.0], [-1.0 / 2.0, 1.0 / 2.0], [1.0, 1.0], -2.0
    else:
        off = [-2.0, -1.0, 1.0, 2.0]
        d1 = [v / 12.0 for v in (1.0, -8.0, 8.0, -1.0)]
        d2, centre = [v / 12.0 for v in (-1.0, 16.0, 16.0, -1.0)], -30.0 / 12.0
    unit = [[float(k == a) for k in range(6)] for a in range(6)]
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6) if a // 2 != b // 2]
    rows = [([0.0] * 6, [[centre * unit[k][l] for l in range(6)] for k in range(6)])]
    for o, w in zip(off, d2):
        for a in range(6):
            rows.append(([o * unit[a][k] for k in range(6)],
                         [[w * unit[a][k] * unit[a][l] for l in range(6)] for k in range(6)]))
    for oa, wa in zip(off, d1):
        for ob, wb in zip(off, d1):
            for a, b in pairs:
                rows.append(([oa * unit[a][k] + ob * unit[b][k] for k in range(6)],
                             [[wa * wb * unit[a][k] * unit[b][l] for l in range(6)]
                              for k in range(6)]))
    offsets = np.array([r[0] for r in rows]) * h
    weights = np.array([r[1] for r in rows]) / h**2
    return offsets, weights


class TestStencilTables:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("h", [1e-6, 1e-3, 1e-2])
    def test_scaled_tables_match_oracle_bit_for_bit(self, h, order):
        offsets, weights = _UNIT_STENCILS[order]
        want_off, want_w = stencil_oracle(h, order)
        assert offsets.shape == want_off.shape == ({2: 61, 4: 217}[order], 6)
        assert (offsets * h).tobytes() == want_off.tobytes()
        assert (weights / h**2).tobytes() == want_w.tobytes()

    @pytest.mark.parametrize("order", [2, 4])
    def test_tables_read_only(self, order):
        for table in _UNIT_STENCILS[order]:
            with pytest.raises(ValueError):
                table.flat[0] = 1.0


class TestRicciForm:
    def test_family_is_ricci_flat(self):
        s = StencilSpec(h=1e-3, order=4)
        worst = 0.0
        for _ in range(8):
            p = random_shell_point()
            m = ricci_form(calabi_family(1.0), p, s).m
            worst = max(worst, float(np.abs(m).max()))
        assert worst <= 1e-4

    def test_cone_is_ricci_flat(self):
        s = StencilSpec(h=1e-3, order=4)
        for _ in range(5):
            p = random_shell_point()
            m = ricci_form(CONE_METRIC, p, s).m
            assert np.abs(m).max() <= 1e-4

    def test_reference_form_is_not_flat(self):
        s = StencilSpec(h=1e-3, order=4)
        m = ricci_form(OMEGA_HAT, ResolvedPoint(0, 0.5, 0), s).m
        assert np.abs(m).max() > 1e-2

    def test_degenerate_metric_detected(self):
        s = StencilSpec(h=1e-3, order=4)
        with pytest.raises(SingularMetric):
            ricci_form(TAU, ResolvedPoint(0.3, 0.5, 0.1), s)

    def test_stencil_out_of_domain(self):
        # so deep that the family metric refuses the whole neighbourhood
        deep = ResolvedPoint(0, math.exp(-400), 0)
        with pytest.raises(StencilOutOfDomain):
            ricci_form(calabi_family(0.5), deep, StencilSpec(h=1e-3, order=4))
        # one stencil point (the step -h along Re xi1) lands exactly on the
        # zero section; there is no retry with a coarser step
        with pytest.raises(StencilOutOfDomain):
            ricci_form(calabi_family(0.5), ResolvedPoint(0.3, 1e-3, 0), StencilSpec(1e-3, 4))


class TestRicciPotential:
    def test_unit_class(self):
        samples = list(RNG.uniform(-20.0, 0.0, size=1000))
        assert ricci_potential_residual(1.0, samples) <= 1e-9

    def test_cone_closed_form(self):
        samples = list(np.linspace(-25, 0, 200))
        assert ricci_potential_residual(0.0, samples) <= 1e-12

    def test_small_t_deep(self):
        samples = list(RNG.uniform(-30.0, 0.0, size=500))
        assert ricci_potential_residual(0.01, samples) <= 1e-9

    def test_empty_is_zero(self):
        assert ricci_potential_residual(0.5, []) == 0.0

    @pytest.mark.parametrize("t", [-1e-3, 1.5, float("nan")])
    def test_t_outside_unit_interval(self, t):
        # checked before the samples, so even no samples is an error
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            ricci_potential_residual(t, [])

    def test_nonfinite_sample(self):
        for bad in (float("nan"), float("-inf")):
            with pytest.raises(NonFinite):
                ricci_potential_residual(0.5, [-1.0, bad])

    def test_matches_per_sample_residual(self):
        # one batched profile solve against the largest residual taken sample by sample
        samples = np.random.default_rng(5).uniform(-300.0, 0.0, 300)
        for t in (0.0, 1e-4, 0.5):
            want = 0.0
            for r in samples.tolist():
                prof = eval_profile(ProfileParams(t), r)
                s = math.exp(-r)
                value = math.log((t + prof.uprime) * (prof.uprime * s) * (prof.usecond * s))
                want = max(want, abs(value))
            assert ricci_potential_residual(t, samples) == pytest.approx(want, abs=2e-15)

    def test_deep_rho_does_not_underflow(self):
        # (t + u') u' u'' = e^{2 rho} underflows below rho ~ -354; the residual
        # must stay at rounding level, without a RuntimeWarning, down to the clamp
        samples = np.linspace(-700.0, -300.0, 401)
        for t in (1.0, 0.1, 1e-4, 0.0):
            assert ricci_potential_residual(t, samples) <= 1e-15


class TestFibreFlatness:
    def test_restriction_constant_along_fibre(self):
        # tau pulls back to the same identity matrix all along one fibre
        w = 0.4 - 0.3j
        for s in np.linspace(0.05, 0.9, 8):
            xi1 = s * 0.5
            p = ResolvedPoint(0.3 * s, xi1, w * xi1)
            m2 = restrict_to_fibre(TAU, p)
            assert np.abs(m2 - np.eye(2)).max() <= 1e-12


# Oracle: the nested per-axis stencil over scalar points that the batched
# table in complex_hessian replaced, one field call per stencil point.
def _shift(p, deltas):
    """Displace p along real axes (Re z, Im z, Re xi1, Im xi1, Re xi2, Im xi2)."""
    c = [complex(p.z), complex(p.xi1), complex(p.xi2)]
    for axis, d in deltas.items():
        i, im = divmod(axis, 2)
        c[i] = c[i] + (1j * d if im else d)
    return ResolvedPoint(*c)


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


def oracle_hessian(f, p, s):
    f0 = f(p)
    m = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        xi, yi = 2 * i, 2 * i + 1
        m[i, i] = 0.25 * (
            _second_pure(f, p, xi, s.h, s.order, f0) + _second_pure(f, p, yi, s.h, s.order, f0)
        )
        for j in range(i + 1, 3):
            xj, yj = 2 * j, 2 * j + 1
            dxx = _second_mixed(f, p, xi, xj, s.h, s.order)
            dyy = _second_mixed(f, p, yi, yj, s.h, s.order)
            dxy = _second_mixed(f, p, xi, yj, s.h, s.order)
            dyx = _second_mixed(f, p, yi, xj, s.h, s.order)
            m[i, j] = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
            m[j, i] = m[i, j].conjugate()
    return m


SHELL_POINTS = [
    ResolvedPoint(0.3 + 0.4j, 0.5, 0.2),
    ResolvedPoint(-0.6 + 0.1j, 0.1 - 0.2j, 0.3j),
    ResolvedPoint(0.9j, 0.05, -0.04 + 0.02j),
]


def mixed_field(q):
    # non-polynomial, with every mixed derivative nonzero
    return np.sin(q.z.real * q.xi1.imag + q.xi2.real) + np.exp(rho(q)) / (1 + abs(q.z) ** 2)


def family_log_det(q):
    chol = np.linalg.cholesky(eval_form(calabi_family(0.1), q).m)
    return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)


class TestBatchedStencil:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("field", [mixed_field, family_log_det])
    def test_matches_per_point_oracle(self, order, field):
        s = StencilSpec(h=1e-3, order=order)
        for p in SHELL_POINTS:
            want = oracle_hessian(field, p, s)
            assert np.abs(complex_hessian(field, p, s).m - want).max() <= 1e-8
            if field is family_log_det:
                assert np.abs(ricci_form(calabi_family(0.1), p, s).m + want).max() <= 1e-8

    @pytest.mark.parametrize("order, lanes", [(2, 61), (4, 217)])
    def test_one_call_on_distinct_lanes(self, order, lanes):
        calls = []

        def field(q):
            calls.append(set(zip(q.z.tolist(), q.xi1.tolist(), q.xi2.tolist())))
            return abs(q.z) ** 2

        complex_hessian(field, ResolvedPoint(0.3, 0.5, 0.1), StencilSpec(h=1e-3, order=order))
        assert [len(c) for c in calls] == [lanes]

    @pytest.mark.parametrize("order, lanes", [(2, 61), (4, 217)])
    def test_ricci_form_one_eval_form_call(self, monkeypatch, order, lanes):
        # the binding bench/tracing.py wraps to count evals_per_ricci
        calls = []

        def counting(kind, q):
            calls.append(len(set(zip(q.z.tolist(), q.xi1.tolist(), q.xi2.tolist()))))
            return eval_form(kind, q)

        monkeypatch.setattr(curvature, "eval_form", counting)
        p, s = ResolvedPoint(0.3, 0.5, 0.1), StencilSpec(h=1e-3, order=order)
        ricci_form(calabi_family(0.1), p, s)
        assert calls == [lanes]

    def test_non_finite_at_any_stencil_point(self):
        # finite at the centre (Re z = 0.3), infinite at Re z = 0.298 (offset -2h)
        def field(q):
            return np.where(q.z.real < 0.2985, np.inf, abs(q.z) ** 2)

        with pytest.raises(NonFinite):
            complex_hessian(field, ResolvedPoint(0.3, 0.5, 0.1), StencilSpec(h=1e-3, order=4))
