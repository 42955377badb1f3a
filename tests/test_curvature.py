"""Finite-difference Hessians and Ricci forms."""

import math

import numpy as np
import pytest

from conifold_lab.chart import ResolvedPoint, rho
from conifold_lab.curvature import (
    StencilSpec,
    complex_hessian,
    ricci_form,
    ricci_potential_residual,
)
from conifold_lab.errors import SingularMetric, StencilOutOfDomain
from conifold_lab.forms import CONE_METRIC, OMEGA_HAT, TAU, calabi_family, restrict_to_fibre

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
        m = complex_hessian(lambda q: math.exp(rho(q)), p, s).m
        assert np.abs(m - m.conj().T).max() == 0.0

    @pytest.mark.parametrize("order", [2, 4])
    def test_stencil_convergence_rate(self, order):
        # non-polynomial field with known hessian: d d-bar log(1+|z|^2)
        p = ResolvedPoint(0.3 + 0.4j, 0.5, 0.2)
        h = 1 + abs(p.z) ** 2
        exact = np.diag([1 / h**2, 0, 0]).astype(complex)

        def err(step):
            m = complex_hessian(
                lambda q: math.log(1 + abs(q.z) ** 2), p, StencilSpec(h=step, order=order)
            ).m
            return np.abs(m - exact).max()

        ratio = err(8e-3) / err(4e-3)
        assert 2**order / 2 <= ratio <= 2**order * 2

    def test_stencil_parameters_validated(self):
        with pytest.raises(ValueError):
            StencilSpec(h=1e-7)
        with pytest.raises(ValueError):
            StencilSpec(order=3)


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


class TestFibreFlatness:
    def test_restriction_constant_along_fibre(self):
        # tau pulls back to the same identity matrix all along one fibre
        w = 0.4 - 0.3j
        for s in np.linspace(0.05, 0.9, 8):
            xi1 = s * 0.5
            p = ResolvedPoint(0.3 * s, xi1, w * xi1)
            m2 = restrict_to_fibre(TAU, p).m2
            assert np.abs(m2 - np.eye(2)).max() <= 1e-12
