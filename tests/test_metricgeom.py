"""Lengths, areas, diameters, clouds and GH bounds."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.csgraph
import scipy.spatial
import scipy.spatial.distance

from conifold_lab.chart import OMEGA, ResolvedPoint, contract, omega_r, rho
from conifold_lab.errors import DegenerateMetric, OnZeroSection
from conifold_lab.forms import (
    CONE_METRIC,
    CONIFOLD_FLAT,
    FUBINI_STUDY,
    OMEGA_HAT,
    TAU,
    calabi_family,
    eval_form,
)
from conifold_lab.metricgeom import (
    MetricCloud,
    _edge_weights,
    _graph_edges,
    build_cloud,
    cloud_diameter,
    fs_diameter,
    gh_upper_bound,
    gh_upper_bounds,
    radial_length,
    radial_length_from_rho,
    radial_stub,
    sample_domain,
    zero_section_area,
    zero_section_diameter,
)
from conifold_lab.profile import ProfileParams, eval_profile

RNG = np.random.default_rng(7)


def cone_radial_closed_form(rho_top):
    # (1/2) * integral of sqrt((2/3)^{2/3}) e^{rho/3} d rho = (3/2)^{2/3} e^{rho/3}
    return 1.5 ** (2 / 3) * math.exp(rho_top / 3.0)


_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


def fs_radial_distance(c):
    """Fubini-Study geodesic distance between unit vectors with |<p,q>| = c, by quadrature."""
    if c < 1e-9:
        val, _ = scipy.integrate.quad(lambda r: 1.0 / (1.0 + r * r), 0.0, 1.0, **_QUAD_OPTS)
        return 2.0 * val
    reach = math.sqrt(max(0.0, 1.0 - c * c)) / c
    val, _ = scipy.integrate.quad(lambda r: 1.0 / (1.0 + r * r), 0.0, reach, **_QUAD_OPTS)
    return val


def fs_diameter_sweep(n_dirs=512):
    """Quadrature oracle for the base diameter: distances from a fixed point.

    Homogeneity makes the radius equal to the diameter and rotational
    symmetry leaves only the polar angle, so the target sweeps a uniform
    grid in cos(theta) plus the exact antipode.
    """
    best = fs_radial_distance(0.0)
    for k in range(n_dirs):
        cos_theta = 1.0 - 2.0 * (k + 0.5) / n_dirs
        best = max(best, fs_radial_distance(math.sqrt(0.5 * (1.0 + cos_theta))))
    return best


def zero_section_area_quadrature(t, rho_floor=-300.0):
    """Quadrature oracle for the area: the full restricted family integrand.

    The profile terms are evaluated at rho_floor, where they are below
    1e-100, and the integral runs over the two base charts by symmetry.
    """
    prof = eval_profile(ProfileParams(t), rho_floor)

    def integrand(r):
        return (t + prof.uprime + prof.usecond * r * r) / (1.0 + r * r) ** 2 * r

    val, _ = scipy.integrate.quad(integrand, 0.0, 1.0, **_QUAD_OPTS)
    return 2.0 * 4.0 * math.pi * val


def set_graph_edges(points, graph_k):
    """Oracle for the edge list: kNN and MST pairs collected one by one in a set."""
    emb = np.array([[x for y in contract(p).y for x in (y.real, y.imag)] for p in points])
    n = len(points)
    _, idx = scipy.spatial.cKDTree(emb).query(emb, k=min(graph_k + 1, n))
    pairs = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in idx[i] if j != i}
    dense = scipy.spatial.distance.squareform(scipy.spatial.distance.pdist(emb))
    mst = scipy.sparse.csgraph.minimum_spanning_tree(dense)
    pairs |= {(min(int(i), int(j)), max(int(i), int(j))) for i, j in zip(*mst.nonzero())}
    return np.array(sorted(pairs), dtype=int)


def segment_weight(kind, pa, pb):
    """Oracle for one edge weight: the midpoint form contracted with the difference vector."""
    v = np.array([pb.z - pa.z, pb.xi1 - pa.xi1, pb.xi2 - pa.xi2], dtype=complex)
    mid = ResolvedPoint(pa.z + 0.5 * v[0], pa.xi1 + 0.5 * v[1], pa.xi2 + 0.5 * v[2])
    return math.sqrt(max(float(np.real(v @ eval_form(kind, mid).m @ v.conjugate())), 0.0))


class TestRadialLength:
    def test_cone_closed_form_origin(self):
        got = radial_length_from_rho(0.0, 0.0)
        assert abs(got - 1.5 ** (2 / 3)) <= 1e-8

    def test_cone_closed_form_depth(self):
        got = radial_length_from_rho(-3.0, 0.0)
        assert abs(got - 1.5 ** (2 / 3) * math.exp(-1.0)) <= 1e-8

    def test_cone_closed_form_sweep(self):
        for r in np.linspace(-20, 0, 9):
            assert abs(radial_length_from_rho(float(r), 0.0) - cone_radial_closed_form(r)) <= 1e-8

    def test_monotone_in_t(self):
        vals = [radial_length_from_rho(0.0, t) for t in (0.0, 0.1, 0.5, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_point_interface(self):
        p = ResolvedPoint(0, 1, 0)  # rho = 0
        assert radial_length(p, 0.0) == pytest.approx(1.5 ** (2 / 3), abs=1e-8)
        with pytest.raises(OnZeroSection):
            radial_length(ResolvedPoint(0, 0, 0), 0.5)

    def test_stub_is_small(self):
        for t in (0.0, 0.01, 1.0):
            assert radial_stub(t) < 1e-2


class TestZeroSectionArea:
    def test_linearity(self):
        ratios = [zero_section_area(t) / t for t in (1.0, 0.1, 0.01)]
        base = ratios[0]
        for r in ratios[1:]:
            assert abs(r - base) <= 1e-8 * base
        for t in (1.0, 0.1, 0.01, 1e-4):
            assert zero_section_area(t) == pytest.approx(
                zero_section_area_quadrature(t), rel=1e-12
            )

    def test_matches_base_area_at_unit_class(self):
        # same quadrature applied to the bare base form
        val, _ = scipy.integrate.quad(lambda r: r / (1 + r * r) ** 2, 0.0, 1.0)
        base_area = 8.0 * math.pi * val
        assert zero_section_area(1.0) == pytest.approx(base_area, rel=1e-10)

    def test_slope_through_origin(self):
        a1 = zero_section_area(1.0)
        for t in (1e-3, 1e-2):
            assert zero_section_area(t) == pytest.approx(a1 * t, rel=1e-8)


class TestZeroSectionDiameter:
    def test_sqrt_scaling(self):
        d1 = zero_section_diameter(1.0)
        for t in (0.5, 0.1, 0.01):
            assert zero_section_diameter(t) == pytest.approx(d1 * math.sqrt(t), rel=1e-12)

    def test_fs_diameter_value(self):
        # the round Fubini-Study line has diameter pi/2 in this convention
        assert fs_diameter() == pytest.approx(math.pi / 2, rel=1e-6)
        assert fs_diameter() == pytest.approx(fs_diameter_sweep(), rel=1e-12)

    def test_t13_bound_attained_at_one(self):
        d1 = zero_section_diameter(1.0)
        for t in (1.0, 0.1, 0.01, 0.001):
            assert zero_section_diameter(t) / t ** (1 / 3) <= d1 * (1 + 1e-12)


class TestSampling:
    def test_points_in_domain(self):
        pts = sample_domain(OMEGA, 200, seed=3)
        assert len(pts) == 200
        for p in pts:
            assert rho(p) < 0.0
            assert rho(p) >= -20.0 - 1e-9

    def test_omega_r_respected(self):
        d = omega_r(0.05)
        for p in sample_domain(d, 100, seed=4):
            assert rho(p) <= d.rho_max() + 1e-12

    def test_deterministic(self):
        a = sample_domain(OMEGA, 50, seed=11)
        b = sample_domain(OMEGA, 50, seed=11)
        assert all(pa == pb for pa, pb in zip(a, b))


class TestCloud:
    def test_metric_properties(self):
        c = build_cloud(OMEGA, CONIFOLD_FLAT, n=120, graph_k=6, seed=5)
        d = c.dist
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.isfinite(d).all()
        idx = RNG.integers(0, len(c.points), size=(200, 3))
        for i, j, k in idx:
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_doubling_k_never_increases_distances(self):
        c6 = build_cloud(OMEGA, CONIFOLD_FLAT, n=120, graph_k=6, seed=5)
        c12 = build_cloud(OMEGA, CONIFOLD_FLAT, n=120, graph_k=12, seed=5)
        assert (c12.dist <= c6.dist + 1e-12).all()

    def test_flat_kind_dominates_radial_gap(self):
        # under the flat pullback kind, distances along one radial ray are
        # bounded below by the gap of Euclidean radii in C^4
        pts = []
        base = ResolvedPoint(0.4 + 0.2j, 0.3, 0.15)
        for s in np.linspace(0.2, 1.0, 12):
            pts.append(ResolvedPoint(base.z, s * base.xi1, s * base.xi2))
        # embed them into a sampled cloud by hand: weight pairs directly
        from conifold_lab.metricgeom import _all_pairs, _graph_edges, _edge_weights

        edges = _graph_edges(pts, graph_k=4)
        dist = _all_pairs(len(pts), edges, _edge_weights(CONIFOLD_FLAT, pts, edges))
        radii = [math.sqrt(sum(abs(v) ** 2 for v in contract(p).y)) for p in pts]
        for i in range(len(pts)):
            for j in range(len(pts)):
                gap = abs(radii[i] - radii[j])
                assert dist[i, j] >= gap * 0.95

    def test_single_point_cloud_diameter(self):
        c = MetricCloud(
            points=[ResolvedPoint(0, 0.5, 0)],
            kind=CONIFOLD_FLAT,
            dist=np.zeros((1, 1)),
            graph_k=4,
            seed=0,
        )
        assert cloud_diameter(c) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_cloud(OMEGA, CONIFOLD_FLAT, n=5, graph_k=6, seed=1)
        with pytest.raises(ValueError):
            build_cloud(OMEGA, CONIFOLD_FLAT, n=50, graph_k=2, seed=1)

    def test_degenerate_domain_rejected(self):
        # a domain so deep the family metric cannot be evaluated on it
        with pytest.raises(DegenerateMetric):
            build_cloud(omega_r(1e-160), calabi_family(0.5), n=30, graph_k=5, seed=2)

    def test_family_diameter_bounded_over_t(self):
        diams = []
        for t in (1.0, 0.1, 0.01):
            c = build_cloud(OMEGA, calabi_family(t), n=250, graph_k=8, seed=9)
            diams.append(cloud_diameter(c))
        assert max(diams) <= 2.0 * min(diams)


class TestGraph:
    @pytest.mark.parametrize(
        "domain, n, seed, k",
        [(OMEGA, 120, 5, 6), (OMEGA, 120, 5, 12), (OMEGA, 700, 23, 10),
         (omega_r(0.005), 300, 17, 8)],
    )
    def test_edges_match_set_oracle(self, domain, n, seed, k):
        pts = sample_domain(domain, n, seed)
        np.testing.assert_array_equal(_graph_edges(pts, k), set_graph_edges(pts, k))

    @pytest.mark.parametrize(
        "kind",
        [FUBINI_STUDY, OMEGA_HAT, TAU, CONIFOLD_FLAT, calabi_family(1.0), calabi_family(0.01),
         CONE_METRIC],
        ids=lambda kind: f"{kind.tag}-{kind.t}",
    )
    def test_weights_match_per_edge_oracle(self, kind):
        pts = sample_domain(OMEGA, 200, seed=3)
        edges = _graph_edges(pts, graph_k=8)
        got = _edge_weights(kind, pts, edges)
        want = np.array([segment_weight(kind, pts[i], pts[j]) for i, j in edges])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_zero_section_midpoint_raises(self):
        xi = (0.3 + 0.1j, -0.2j)
        pts = [ResolvedPoint(0.2, *xi), ResolvedPoint(0.5j, -xi[0], -xi[1])]
        edges = _graph_edges(pts, graph_k=4)
        np.testing.assert_array_equal(edges, [[0, 1]])
        for kind in (calabi_family(0.5), CONE_METRIC):
            with pytest.raises(DegenerateMetric):
                _edge_weights(kind, pts, edges)


class TestGH:
    def test_bound_positive_and_shrinking(self):
        ests = gh_upper_bounds([1.0, 0.1, 0.01], n=350, seed=13, graph_k=8)
        bounds = [e.bound for e in ests]
        assert all(b > 0 for b in bounds)
        for prev, nxt in zip(bounds, bounds[1:]):
            assert nxt <= prev * 1.10
        assert bounds[-1] < bounds[0] / 3

    def test_single_matches_batch(self):
        one = gh_upper_bound(0.5, n=150, seed=21, graph_k=6)
        batch = gh_upper_bounds([0.5], n=150, seed=21, graph_k=6)[0]
        assert one.t == batch.t and one.bound == batch.bound

    def test_near_section_points_collapse(self):
        ests = gh_upper_bounds([1.0], n=400, seed=31, graph_k=8)
        assert ests[0].bound < 2.0  # distortion can't exceed the diameter scale

    def test_path_concatenation_oracle(self):
        # deep points far apart on the base: the cone distance is tiny (both
        # sit next to the tip), the t-distance is controlled by two radial
        # legs plus a traverse of the shrunken zero section
        from conifold_lab.forms import CONE_METRIC
        from conifold_lab.metricgeom import _all_pairs, _edge_weights, _graph_edges

        pts = sample_domain(OMEGA, 700, seed=23)
        floor = [i for i, p in enumerate(pts) if rho(p) < -19.9]
        assert len(floor) >= 2

        def base_angle(i, j):
            # Fubini-Study base distance oracle (arccos of the normalized pairing)
            vi = np.array([1.0, pts[i].z], complex)
            vj = np.array([1.0, pts[j].z], complex)
            c = abs(vi @ vj.conjugate()) / (np.linalg.norm(vi) * np.linalg.norm(vj))
            return math.acos(min(c, 1.0))

        i, j = max(
            ((a, b) for a in floor for b in floor if a < b), key=lambda ij: base_angle(*ij)
        )
        assert base_angle(i, j) > 1.0  # genuinely far apart on the base

        edges = _graph_edges(pts, graph_k=10)
        t = 1.0
        d_t = _all_pairs(len(pts), edges, _edge_weights(calabi_family(t), pts, edges))
        d_0 = _all_pairs(len(pts), edges, _edge_weights(CONE_METRIC, pts, edges))

        # cone side: both points collapse to the tip; through-tip cost is two
        # radial stubs of order 1e-3
        assert d_0[i, j] < 0.05

        # t side: radial legs + zero-section diameter, with graph slack
        legs = radial_length(pts[i], t) + radial_length(pts[j], t)
        budget = 1.5 * (legs + zero_section_diameter(t)) + 0.05
        assert d_t[i, j] <= budget

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            gh_upper_bound(0.0, n=100, seed=1)


class TestOmegaDeltaShrinking:
    def test_small_neighbourhood_small_diameter(self):
        # explicit (delta, t) with sampled diameter below 0.2
        delta, t = 0.005, 1e-4
        c = build_cloud(omega_r(delta), calabi_family(t), n=300, graph_k=8, seed=17)
        diam = cloud_diameter(c) + 2 * radial_stub(t, 2 * math.log(delta) - 20.0)
        assert diam < 0.2
