"""Coordinate chart operations: radii, contraction, domain specs, second chart."""

import math

import numpy as np
import pytest

from conifold_lab.chart import (
    OMEGA,
    DomainSpec,
    ResolvedPoint,
    contract,
    nu_coords,
    rho,
    rho_1,
    second_chart,
)

RNG = np.random.default_rng(20240817)


def swap_fibre(p):
    """p with xi1 and xi2 exchanged, so that its rho_1 is the rho_2 of p."""
    return ResolvedPoint(p.z, p.xi2, p.xi1)


def random_point(scale=1.0, off_section=True):
    vals = RNG.normal(size=6) * scale
    p = ResolvedPoint(
        z=complex(vals[0], vals[1]),
        xi1=complex(vals[2], vals[3]),
        xi2=complex(vals[4], vals[5]),
    )
    if off_section and p.xi1 == 0 and p.xi2 == 0:
        return random_point(scale, off_section)
    return p


class TestRho:
    def test_unit_fibre_radius(self):
        assert rho(ResolvedPoint(0, 1, 0)) == 0.0

    def test_zero_section_sentinel(self):
        r = rho(ResolvedPoint(0, 0, 0))
        assert r == float("-inf")
        assert rho(ResolvedPoint(2 + 1j, 0, 0)) == float("-inf")

    def test_direct_value(self):
        # (1+1)(1+1) = 4
        assert rho(ResolvedPoint(1, 1, 1)) == pytest.approx(math.log(4), rel=1e-14)

    def test_tiny_fibre_stays_finite(self):
        # |xi|^2 underflows but log-based evaluation must not
        r = rho(ResolvedPoint(0, 1e-300, 0))
        assert math.isfinite(r)
        assert r == pytest.approx(2 * math.log(1e-300), rel=1e-14)


class TestRhoAlpha:
    def test_component_radius(self):
        assert rho_1(ResolvedPoint(0, 1, 1)) == 0.0

    def test_derived_value(self):
        # (1+4) * 0.01 = 0.05
        got = rho_1(ResolvedPoint(2, 0.1, 0))
        assert got == pytest.approx(math.log(0.05), rel=1e-14)

    def test_additivity(self):
        for _ in range(50):
            p = random_point()
            if p.xi1 == 0 or p.xi2 == 0:
                continue
            total = math.exp(rho(p))
            parts = math.exp(rho_1(p)) + math.exp(rho_1(swap_fibre(p)))
            assert abs(total - parts) <= 1e-12 * total


class TestNuCoords:
    def test_basic(self):
        assert nu_coords(ResolvedPoint(0, 1, 0)) == (0, 1)

    def test_componentwise(self):
        n1, n2 = nu_coords(ResolvedPoint(1 + 1j, 2, 5))
        assert n1 == 2 + 2j and n2 == 2

    def test_norm_identity(self):
        for _ in range(50):
            p = random_point()
            if p.xi1 == 0:
                continue
            n1, n2 = nu_coords(p)
            lhs = abs(n1) ** 2 + abs(n2) ** 2
            rhs = math.exp(rho_1(p))
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)


class TestContract:
    def test_zero_section_collapses(self):
        for z in (0, 1, 2 - 3j):
            y = contract(ResolvedPoint(z, 0, 0))
            assert y == (0, 0, 0, 0)

    def test_direct(self):
        y = contract(ResolvedPoint(1j, 1, 2))
        assert y == (1, 2, 1j, 2j)
        assert y[0] * y[3] - y[1] * y[2] == 0

    def test_quadric_identity(self):
        for _ in range(100):
            p = random_point(scale=2.0)
            y = contract(p)
            norm_sq = sum(abs(v) ** 2 for v in y)
            assert abs(y[0] * y[3] - y[1] * y[2]) <= 1e-12 * (1 + norm_sq)


class TestDomains:
    def test_bad_spec(self):
        with pytest.raises(ValueError, match="OmegaR requires r > 0"):
            DomainSpec(-1.0)
        with pytest.raises(ValueError, match="OmegaR requires r > 0"):
            DomainSpec(float("nan"))

    def test_omega_is_unit_radius(self):
        # 2 log(1.0) is exactly 0.0, so Omega's top needs no case of its own
        assert OMEGA == DomainSpec(1.0)
        assert OMEGA.rho_max() == 0.0
        assert DomainSpec(0.05).rho_max() == 2.0 * math.log(0.05)


class TestSecondChart:
    def test_involution_and_invariance(self):
        for _ in range(30):
            p = random_point(scale=1.5)
            if abs(p.z) < 1e-9:
                continue
            q = second_chart(p)
            back = second_chart(q)
            assert abs(back.z - p.z) <= 1e-12 * abs(p.z)
            assert abs(back.xi1 - p.xi1) <= 1e-12 * max(1.0, abs(p.xi1))
            target = math.exp(rho(p))
            assert math.exp(rho(q)) == pytest.approx(target, rel=1e-12)

    def test_undefined_at_origin(self):
        with pytest.raises(ValueError):
            second_chart(ResolvedPoint(0, 1, 1))


class TestStackedPoints:
    """Chart helpers act lane by lane on a point with array coordinates."""

    def stacked(self):
        z = np.array([0.5 + 0.2j, 2.0, -1j, 0.3])
        xi1 = np.array([0.0, 1.0, 0.0, 0.2 - 0.1j])
        xi2 = np.array([0.0, 0.5j, 0.7, 0.0])
        return ResolvedPoint(z, xi1, xi2)

    def test_on_zero_section_lanewise(self):
        p = self.stacked()
        np.testing.assert_array_equal(p.on_zero_section(), [True, False, False, False])
        assert ResolvedPoint(1, 0, 0).on_zero_section() is True
        assert ResolvedPoint(1, 0, 0.5).on_zero_section() is False

    def test_indexing_gives_lanes(self):
        p = self.stacked()
        assert p[1] == ResolvedPoint(p.z[1], p.xi1[1], p.xi2[1])
        sub = p[1:3]
        np.testing.assert_array_equal(sub.xi2, [0.5j, 0.7])

    def test_rho_alpha_lanewise(self):
        # rho_1 of p and of the swapped fibre, whose rho_1 is the rho_2 of p
        p = self.stacked()
        for q in (p, swap_fibre(p)):
            got = rho_1(q)
            want = [rho_1(q[i]) for i in range(4)]
            np.testing.assert_allclose(got, want, rtol=1e-15)
        assert rho_1(p)[0] == float("-inf") and rho_1(swap_fibre(p))[3] == float("-inf")

    def test_second_chart_lanewise(self):
        p = self.stacked()
        q = second_chart(p)
        for i in range(4):
            want = second_chart(p[i])
            for c in ("z", "xi1", "xi2"):
                assert getattr(q, c)[i] == getattr(want, c)

    def test_second_chart_exact_on_a_random_stack(self):
        n = 12_000
        rng = np.random.default_rng(7)
        c = rng.normal(size=(6, n)) * 10.0 ** rng.uniform(-3, 3, (6, n))
        z = c[0] + 1j * c[1]
        z[:1000] = z[:1000].real * (1 + 1j)  # |Re z| = |Im z|
        z[1000:2000] = z[1000:2000].real * (-1 + 1j)
        z[2000:3000] = 1j * z[2000:3000].imag  # purely imaginary
        z[3000:4000] = z[3000:4000].real  # real
        p = ResolvedPoint(z, c[2] + 1j * c[3], c[4] + 1j * c[5])
        q = second_chart(p)
        for c in ("z", "xi1", "xi2"):
            want = np.array([getattr(second_chart(p[i]), c) for i in range(n)])
            np.testing.assert_array_equal(getattr(q, c).view(np.uint64), want.view(np.uint64))

    def test_second_chart_rejects_any_zero_base(self):
        p = self.stacked()
        with pytest.raises(ValueError):
            second_chart(ResolvedPoint(np.array([1.0, 0.0]), p.xi1[:2], p.xi2[:2]))
