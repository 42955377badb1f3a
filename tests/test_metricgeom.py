"""Lengths, areas, diameters, clouds and GH bounds."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.csgraph
import scipy.spatial
import scipy.spatial.distance
import scipy.stats.qmc

from conifold_lab import forms, metricgeom
from conifold_lab.chart import OMEGA, DomainSpec, ResolvedPoint, contract, rho
from conifold_lab.errors import DegenerateMetric, NonFinite, OnZeroSection
from conifold_lab.forms import (
    CONE_METRIC,
    CONIFOLD_FLAT,
    OMEGA_HAT,
    calabi_family,
    eval_form,
)
from conifold_lab.metricgeom import (
    GHEstimate,
    _CHUNK,
    _all_pairs,
    _edge_frame,
    _edge_weights,
    _emst,
    _fork_map,
    _graph_edges,
    _halton,
    build_cloud,
    cloud_diameter,
    cloud_structure,
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
from oracles import (
    QUAD_OPTS,
    fs_diameter_sweep,
    radial_length_quadrature,
    zero_section_area_quadrature,
)

RNG = np.random.default_rng(7)


def cone_radial_closed_form(rho_top):
    # (1/2) * integral of sqrt((2/3)^{2/3}) e^{rho/3} d rho = (3/2)^{2/3} e^{rho/3}
    return 1.5 ** (2 / 3) * math.exp(rho_top / 3.0)


def stack(points):
    """One stacked point from a list of points."""
    return ResolvedPoint(*(np.array([getattr(p, c) for p in points], dtype=complex)
                           for c in ("z", "xi1", "xi2")))


def lanes(points):
    """The points of a stacked point, one at a time."""
    return [points[i] for i in range(len(points.z))]


def sample_domain_per_point(d, n, seed, rho_depth=20.0):
    """Oracle for sample_domain: the same construction one point at a time in Python complexes."""
    hi = d.rho_max()
    lo = hi - rho_depth
    n_ring = max(2, n // 10)
    n_floor = max(2, n // 10)
    n_bulk = max(0, n - n_ring - n_floor)
    u = scipy.stats.qmc.Halton(d=6, scramble=True, seed=seed).random(n)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    rhos = np.empty(n)
    rhos[:n_bulk] = lo + (hi - lo) * u[:n_bulk, 0]
    rhos[n_bulk : n_bulk + n_ring] = hi - 1e-6
    rhos[n_bulk + n_ring :] = lo
    pts = []
    for i in range(n):
        r = float(rhos[i])
        zmod = math.sqrt((1.0 - u[i, 1]) / u[i, 1])
        z = zmod * complex(math.cos(2.0 * math.pi * u[i, 2]), math.sin(2.0 * math.pi * u[i, 2]))
        a = math.sqrt(u[i, 3]) * complex(
            math.cos(2.0 * math.pi * u[i, 4]), math.sin(2.0 * math.pi * u[i, 4])
        )
        b = math.sqrt(1.0 - u[i, 3]) * complex(
            math.cos(2.0 * math.pi * u[i, 5]), math.sin(2.0 * math.pi * u[i, 5])
        )
        scale = math.exp(0.5 * r) / math.sqrt(1.0 + zmod * zmod)
        p = ResolvedPoint(z=z, xi1=scale * a, xi2=scale * b)
        if zmod > 1.0:  # the chart transition, written out rather than second_chart's
            p = ResolvedPoint(z=1.0 / z, xi1=z * p.xi1, xi2=z * p.xi2)
        pts.append(p)
    return pts


def embedding(points):
    """The points' contraction images in C^4 as rows of 8 reals, one point at a time."""
    return np.array([[x for y in contract(p) for x in (y.real, y.imag)]
                     for p in lanes(points)])


def dense_emst(emb):
    """Oracle for the backbone: the MST of the dense Euclidean distance matrix, rows (i < j)."""
    dense = scipy.spatial.distance.squareform(scipy.spatial.distance.pdist(emb))
    mst = np.sort(np.stack(scipy.sparse.csgraph.minimum_spanning_tree(dense).nonzero(), axis=1))
    return mst[np.lexsort(mst.T[::-1])]


def set_graph_edges(points, graph_k):
    """Oracle for the edge list: kNN and dense-MST pairs collected one by one in a set."""
    emb = embedding(points)
    n = len(emb)
    _, idx = scipy.spatial.cKDTree(emb).query(emb, k=min(graph_k + 1, n))
    pairs = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in idx[i] if j != i}
    pairs |= {(int(i), int(j)) for i, j in dense_emst(emb)}
    return np.array(sorted(pairs), dtype=int)


def emst_of(emb, k):
    """The Boruvka backbone of emb from its (k + 1)-nearest-neighbour lists, as rows (i < j)."""
    tree = scipy.spatial.cKDTree(emb)
    dd, idx = tree.query(emb, k=k + 1)
    return np.stack(divmod(_emst(tree, dd, idx), len(emb)), axis=1)


def symmetric_csr(n, edges, weights):
    """Oracle for the two-direction CSR: each edge's two arcs sorted by (row, col) by lexsort."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = weights[order % max(len(edges), 1)]
    return scipy.sparse.csr_matrix((data, cols[order].astype(np.int32), indptr), shape=(n, n))


def gh_dense(t_grid, n, seed, graph_k):
    """Oracle for gh_upper_bounds: half the max discrepancy of the full distance matrices."""
    pts = sample_domain(OMEGA, n, seed)
    edges = _graph_edges(pts, graph_k)

    def dist(kind):
        return _all_pairs(symmetric_csr(n, edges, _edge_weights(kind, _edge_frame(pts, edges))))

    d_cone = dist(CONE_METRIC)
    return [0.5 * float(np.max(np.abs(dist(calabi_family(t)) - d_cone))) for t in t_grid]


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

    def test_cone_closed_form_deep(self):
        # far below any fixed quadrature cutoff
        got = radial_length_from_rho(-150.0, 0.0)
        assert got == pytest.approx(cone_radial_closed_form(-150.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rho_top", [-40.0, -20.0, -5.0, 0.0, 2.0])
    @pytest.mark.parametrize("t", [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0])
    def test_matches_quadrature(self, t, rho_top):
        want = radial_length_quadrature(rho_top, t)
        got = radial_length_from_rho(rho_top, t)
        assert got == pytest.approx(want, rel=QUAD_OPTS["epsrel"], abs=QUAD_OPTS["epsabs"])

    def test_zero_section_endpoint(self):
        with pytest.raises(OnZeroSection):
            radial_length_from_rho(float("-inf"), 0.5)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_nonfinite_endpoint(self, bad):
        with pytest.raises(NonFinite):
            radial_length_from_rho(bad, 0.5)

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

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, float("nan")])
    def test_t_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\]"):
            zero_section_area(t)


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

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.5, float("nan")])
    def test_t_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"t must lie in \(0, 1\]"):
            zero_section_diameter(t)


class TestSampling:
    def test_points_in_domain(self):
        pts = sample_domain(OMEGA, 200, seed=3)
        r = rho(pts)
        assert r.shape == (200,)
        assert (r < 0.0).all()
        assert (r >= -20.0 - 1e-9).all()

    def test_omega_r_respected(self):
        d = DomainSpec(0.05)
        assert (rho(sample_domain(d, 100, seed=4)) <= d.rho_max() + 1e-12).all()

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_a_point(self, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            sample_domain(OMEGA, n, seed=11)

    def test_deterministic(self):
        a = sample_domain(OMEGA, 50, seed=11)
        b = sample_domain(OMEGA, 50, seed=11)
        for c in ("z", "xi1", "xi2"):
            np.testing.assert_array_equal(getattr(a, c), getattr(b, c))

    def test_halton_equals_scipy(self):
        # scipy's scrambled Halton is the oracle: the test seeds, and the CLI seeds the
        # benchmark runs (42-241), at every sample size they use
        for seed in [*range(242), 1001, 1003, 9173]:
            for n in (1, 64, 500, 1000, 2000):
                want = scipy.stats.qmc.Halton(d=6, scramble=True, seed=seed).random(n)
                np.testing.assert_array_equal(_halton(n, seed), want)

    @pytest.mark.parametrize(
        "domain, n, seed, depth",
        [(OMEGA, 2000, 42, 20.0), (OMEGA, 10_000, 1003, 20.0), (OMEGA, 64, 42, 5.0),
         (DomainSpec(0.005), 300, 17, 20.0), (OMEGA, 1, 0, 20.0)],
    )
    def test_equals_per_point_construction(self, domain, n, seed, depth):
        got = sample_domain(domain, n, seed, rho_depth=depth)
        want = stack(sample_domain_per_point(domain, n, seed, rho_depth=depth))
        for c in ("z", "xi1", "xi2"):
            # numpy's exp, complex product and quotient round differently from
            # math's and CPython's: 4 machine epsilons relative to the modulus
            w = getattr(want, c)
            assert (abs(getattr(got, c) - w) <= 4 * np.finfo(float).eps * abs(w)).all()


class TestCloud:
    def test_metric_properties(self):
        graph = build_cloud(OMEGA, calabi_family(0.1), n=120, graph_k=6, seed=5)
        d = _all_pairs(graph)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert np.isfinite(d).all()
        idx = RNG.integers(0, graph.shape[0], size=(200, 3))
        for i, j, k in idx:
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_doubling_k_never_increases_distances(self):
        g6 = build_cloud(OMEGA, calabi_family(0.1), n=120, graph_k=6, seed=5)
        g12 = build_cloud(OMEGA, calabi_family(0.1), n=120, graph_k=12, seed=5)
        assert (_all_pairs(g12) <= _all_pairs(g6) + 1e-12).all()

    def test_flat_kind_dominates_radial_gap(self):
        # under the flat pullback kind, distances along one radial ray are
        # bounded below by the gap of Euclidean radii in C^4
        pts = []
        base = ResolvedPoint(0.4 + 0.2j, 0.3, 0.15)
        for s in np.linspace(0.2, 1.0, 12):
            pts.append(ResolvedPoint(base.z, s * base.xi1, s * base.xi2))
        # embed them into a sampled cloud by hand: weight pairs directly
        edges = _graph_edges(stack(pts), graph_k=4)
        weights = np.array([segment_weight(CONIFOLD_FLAT, pts[i], pts[j]) for i, j in edges])
        dist = _all_pairs(symmetric_csr(len(pts), edges, weights))
        radii = [math.sqrt(sum(abs(v) ** 2 for v in contract(p))) for p in pts]
        for i in range(len(pts)):
            for j in range(len(pts)):
                gap = abs(radii[i] - radii[j])
                assert dist[i, j] >= gap * 0.95

    def test_single_point_cloud_diameter(self):
        graph = symmetric_csr(1, np.empty((0, 2), dtype=np.intp), np.empty(0))
        assert cloud_diameter(graph) == 0.0

    def test_validation(self, monkeypatch):
        def never(*args):
            raise AssertionError("sampled or weighed before validating n and graph_k")

        # the checks come before any sample or weight
        monkeypatch.setattr(metricgeom, "sample_domain", never)
        monkeypatch.setattr(metricgeom, "_edge_weights", never)
        with pytest.raises(ValueError):
            build_cloud(OMEGA, CONIFOLD_FLAT, n=5, graph_k=6, seed=1)
        with pytest.raises(ValueError):
            build_cloud(OMEGA, CONIFOLD_FLAT, n=50, graph_k=2, seed=1)
        for n, k in ((9, 12), (50, 3)):
            with pytest.raises(ValueError):
                cloud_structure(OMEGA, n=n, graph_k=k, seed=1)

    def test_shared_clouds_equal_clouds_built_alone(self):
        # one sample and structure weighted per kind: no kind's weights leak into another's
        d, n, k, seed = DomainSpec(0.05), 300, 8, 17
        kinds = [calabi_family(t) for t in (1e-2, 1e-3, 1e-4)] + [CONE_METRIC]
        structure = cloud_structure(d, n, k, seed)
        pts = sample_domain(d, n, seed)
        edges = _graph_edges(pts, k)
        frame = _edge_frame(pts, edges)
        for field in ("rho", "b", "a", "r"):
            assert np.array_equal(getattr(structure.frame, field), getattr(frame, field))
        for kind, graph in zip(kinds, map(structure.weigh, kinds)):
            alone = symmetric_csr(n, edges, _edge_weights(kind, frame))
            assert graph.shape == alone.shape
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(graph, attr), getattr(alone, attr))
            assert np.array_equal(build_cloud(d, kind, n, k, seed).data, alone.data)

    def test_degenerate_domain_rejected(self):
        # a domain so deep the family metric cannot be evaluated on it
        with pytest.raises(DegenerateMetric):
            build_cloud(DomainSpec(1e-160), calabi_family(0.5), n=30, graph_k=5, seed=2)

    def test_family_diameter_bounded_over_t(self):
        diams = []
        for t in (1.0, 0.1, 0.01):
            graph = build_cloud(OMEGA, calabi_family(t), n=250, graph_k=8, seed=9)
            diams.append(cloud_diameter(graph))
        assert max(diams) <= 2.0 * min(diams)


def _cloud_diameter_cases():
    domains = [("omega", OMEGA), ("delta0.05", DomainSpec(0.05)), ("delta0.005", DomainSpec(0.005))]
    cases = [(name, d, n, k) for name, d in domains for n in (10, 120, 500) for k in (4, 12)]
    # the full n=2000 matrix costs ~1 s per kind; keep the GH default and the deep, sparse end
    cases += [("omega", OMEGA, 2000, 12), ("delta0.005", DomainSpec(0.005), 2000, 4)]
    return [pytest.param(d, n, k, id=f"{name}-n{n}-k{k}") for name, d, n, k in cases]


class TestCloudDiameter:
    @pytest.mark.parametrize("domain, n, k", _cloud_diameter_cases())
    @pytest.mark.parametrize(
        "kind",
        [CONE_METRIC, None, calabi_family(1.0), calabi_family(1e-2), calabi_family(1e-4)],
        ids=["cone", "flat", "t1", "t1e-2", "t1e-4"],
    )
    def test_equals_full_matrix_maximum(self, domain, n, k, kind):
        graph = build_cloud(domain, kind or CONE_METRIC, n=n, graph_k=k, seed=n + k)
        if kind is None:  # flat: every edge weighs 1, so distances are hop counts and tie
            graph.data[:] = 1.0
        assert cloud_diameter(graph) == _all_pairs(graph).max()

    @pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("delta", [0.05, 0.02, 0.01, 0.005])
    def test_equals_full_matrix_maximum_on_sweep_clouds(self, delta, t):
        # the clouds of the estimates sweep at its defaults
        graph = build_cloud(DomainSpec(delta), calabi_family(t), n=500, graph_k=12, seed=42)
        assert cloud_diameter(graph) == _all_pairs(graph).max()

    @pytest.mark.parametrize("domain, n, k", _cloud_diameter_cases())
    @pytest.mark.parametrize("kind", [CONE_METRIC, calabi_family(1e-4)], ids=["cone", "t1e-4"])
    def test_all_pairs_equals_shortest_path(self, domain, n, k, kind):
        # _all_pairs calls dijkstra directly; shortest_path validates, then calls the same
        graph = build_cloud(domain, kind, n=n, graph_k=k, seed=n + k)
        sources = None if n <= 500 else np.arange(0, n, 8)
        want = scipy.sparse.csgraph.shortest_path(graph, method="D", directed=True,
                                                  indices=sources)
        got = _all_pairs(graph, sources)
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    def test_computes_few_rows(self, monkeypatch):
        # the estimates sweep's cloud: Omega_0.01 at t = 1e-3, n = 500, k = 12
        rows = []

        def counting(graph, sources=None):
            rows.append(graph.shape[0] if sources is None else len(sources))
            return _all_pairs(graph, sources)

        graph = build_cloud(DomainSpec(0.01), calabi_family(1e-3), n=500, graph_k=12, seed=42)
        monkeypatch.setattr(metricgeom, "_all_pairs", counting)
        diam = cloud_diameter(graph)
        assert sum(rows) < 500 / 4
        assert diam == _all_pairs(graph).max()

    def test_estimates_clouds_take_few_rows(self, monkeypatch):
        # the eight clouds the estimates report lists at its defaults: every t
        # of delta = 0.05 and 0.02, then delta = 0.01 until t = 1e-3 falls under
        # eps.  estimates also forks delta = 0.005, which it never reads at seed
        # 42, so that cloud is not counted.  The rows are 139 + 186 + 137 = 462
        kinds = [calabi_family(t) for t in (1e-2, 1e-3, 1e-4)]
        graphs = [
            cloud_structure(DomainSpec(delta), n=500, graph_k=12, seed=42).weigh(kind)
            for delta, count in ((0.05, 3), (0.02, 3), (0.01, 2))
            for kind in kinds[:count]
        ]
        rows = []

        def counting(graph, sources=None):
            rows.append(graph.shape[0] if sources is None else len(sources))
            return _all_pairs(graph, sources)

        monkeypatch.setattr(metricgeom, "_all_pairs", counting)
        for graph in graphs:
            cloud_diameter(graph)
        assert sum(rows) <= 520

    def test_disconnected_cloud_raises(self):
        graph = symmetric_csr(4, np.array([[0, 1], [2, 3]]), np.ones(2))
        with pytest.raises(DegenerateMetric):
            cloud_diameter(graph)


class TestGraph:
    @pytest.mark.parametrize(
        "domain, n, seed, k",
        [(OMEGA, 120, 5, 6), (OMEGA, 120, 5, 12), (OMEGA, 700, 23, 10),
         (DomainSpec(0.005), 300, 17, 8), (OMEGA, 400, 0, 4), (OMEGA, 800, 8, 4)],
    )
    def test_edges_match_set_oracle(self, domain, n, seed, k):
        pts = sample_domain(domain, n, seed)
        np.testing.assert_array_equal(_graph_edges(pts, k), set_graph_edges(pts, k))

    @pytest.mark.parametrize(
        "domain, n, seed, k",
        [(OMEGA, 10, 1, 4), (OMEGA, 120, 5, 6), (DomainSpec(0.01), 500, 42, 12),
         (DomainSpec(0.005), 300, 17, 8), (OMEGA, 2000, 42, 12)],
    )
    def test_key_ordered_csr_matches_lexsort_oracle(self, domain, n, seed, k):
        structure = cloud_structure(domain, n, k, seed)
        pts = sample_domain(domain, n, seed)
        edges = _graph_edges(pts, k)
        frame = _edge_frame(pts, edges)
        assert len(structure.perm) == 2 * len(edges)
        for field in ("rho", "b", "a", "r"):
            np.testing.assert_array_equal(getattr(structure.frame, field), getattr(frame, field))
        for kind in (CONE_METRIC, calabi_family(1e-2)):
            got = structure.weigh(kind)
            want = symmetric_csr(n, edges, _edge_weights(kind, frame))
            for attr in ("indices", "indptr", "data"):
                assert getattr(got, attr).dtype == getattr(want, attr).dtype
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()

    @pytest.mark.parametrize("n, seed", [(400, 0), (800, 8)])
    def test_backbone_repairs_knn_graph(self, n, seed):
        # in these clouds the EMST has exactly one edge that the 4-NN graph lacks
        pts = sample_domain(OMEGA, n, seed)
        emb = embedding(pts)
        _, idx = scipy.spatial.cKDTree(emb).query(emb, k=5)
        knn = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in idx[i] if j != i}
        assert len(_graph_edges(pts, 4)) == len(knn) + 1


    @pytest.mark.parametrize(
        "kind",
        [OMEGA_HAT, CONIFOLD_FLAT, calabi_family(1.0), calabi_family(0.01), CONE_METRIC],
        ids=lambda kind: f"{kind.tag}-{kind.t}",
    )
    def test_weights_match_per_edge_oracle(self, kind):
        pts = sample_domain(OMEGA, 200, seed=3)
        edges = _graph_edges(pts, graph_k=8)
        frame = _edge_frame(pts, edges)
        if kind.t is None:  # no graph is weighed under a kind without a profile
            with pytest.raises(ValueError):
                _edge_weights(kind, frame)
            return
        got = _edge_weights(kind, frame)
        want = np.array([segment_weight(kind, pts[i], pts[j]) for i, j in edges])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_zero_section_midpoint_raises(self):
        xi = (0.3 + 0.1j, -0.2j)
        pts = stack([ResolvedPoint(0.2, *xi), ResolvedPoint(0.5j, -xi[0], -xi[1])])
        edges = _graph_edges(pts, graph_k=4)
        np.testing.assert_array_equal(edges, [[0, 1]])
        frame = _edge_frame(pts, edges)
        # every kind a graph can be weighed under
        for kind in (calabi_family(0.5), CONE_METRIC):
            with pytest.raises(DegenerateMetric):
                _edge_weights(kind, frame)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_weight_raises(self, monkeypatch, bad):
        # one non-finite profile lane on one edge's midpoint makes that weight non-finite
        pts = sample_domain(OMEGA, 40, seed=3)
        edges = _graph_edges(pts, graph_k=4)
        real = metricgeom.eval_profiles

        def poisoned(params, r):
            prof = real(params, r)
            prof.uprime[len(prof.uprime) // 2] = bad
            return prof

        monkeypatch.setattr(metricgeom, "eval_profiles", poisoned)
        with pytest.raises(DegenerateMetric, match="nonfinite edge weight"):
            _edge_weights(calabi_family(0.5), _edge_frame(pts, edges))
        with pytest.raises(DegenerateMetric, match="nonfinite edge weight"):
            cloud_structure(OMEGA, 40, 4, 3).weigh(CONE_METRIC)

    def test_weighing_builds_no_form_matrix(self, monkeypatch):
        # graphs are weighed in the edge coframe: no 3x3 form matrix and one
        # profile solve per kind
        structure = cloud_structure(DomainSpec(0.05), 500, 12, 42)
        kinds = [CONE_METRIC] + [calabi_family(t) for t in (1.0, 1e-2, 1e-4)]
        want = [structure.weigh(kind) for kind in kinds]
        calls = []
        real = metricgeom.eval_profiles

        def counting(params, r):
            calls.append(params.t)
            return real(params, r)

        def no_matrix(*args):
            raise AssertionError("a graph weight built a form matrix")

        # the two builders behind eval_form
        monkeypatch.setattr(forms, "_family_matrix", no_matrix)
        monkeypatch.setattr(forms, "_hessian_exp_rho", no_matrix)
        monkeypatch.setattr(metricgeom, "eval_profiles", counting)
        structure = cloud_structure(DomainSpec(0.05), 500, 12, 42)
        for graph, expected in zip(map(structure.weigh, kinds), want):
            for attr in ("data", "indices", "indptr"):
                assert getattr(graph, attr).tobytes() == getattr(expected, attr).tobytes()
        assert calls == [0.0, 1.0, 1e-2, 1e-4]


class TestBackbone:
    @pytest.mark.parametrize("domain", [OMEGA, DomainSpec(0.05)], ids=["Omega", "Omega_0.05"])
    @pytest.mark.parametrize("n", [50, 400, 2000])
    def test_matches_dense_emst(self, domain, n):
        emb = embedding(sample_domain(domain, n, seed=n))
        want = dense_emst(emb)
        for k in (4, 12):
            np.testing.assert_array_equal(emst_of(emb, k), want)

    def test_separated_clusters_match_dense_emst(self):
        # every 4-NN list stays inside its cluster, so each join needs deeper queries
        rng = np.random.default_rng(4)
        emb = np.concatenate([rng.normal(size=(60, 8)) + 40.0 * c for c in np.eye(8)[:3]])
        np.testing.assert_array_equal(emst_of(emb, 4), dense_emst(emb))

    @pytest.mark.parametrize("k", [4, 12])
    def test_grid_ties(self, k):
        # a unit grid: equal distances everywhere, and every MST edge has length 1
        emb = np.stack(np.meshgrid(np.arange(7), np.arange(6), np.arange(5)), -1).reshape(-1, 3)
        n = len(emb)
        mst = emst_of(emb.astype(float), k)
        assert mst.shape == (n - 1, 2)
        assert (mst[:, 0] < mst[:, 1]).all()
        np.testing.assert_array_equal(np.linalg.norm(emb[mst[:, 0]] - emb[mst[:, 1]], axis=1), 1.0)
        tree = scipy.sparse.coo_matrix((np.ones(n - 1), mst.T), shape=(n, n))
        assert scipy.sparse.csgraph.connected_components(tree, directed=False)[0] == 1

    def test_equal_length_joins_form_no_cycle(self):
        # a hexagon with alternating sides sqrt(2) and sqrt(8), exact in floats: the
        # first round pairs (0,1), (2,3), (4,5); in the second each pair has two
        # joins of equal length, and choosing them by the lowest point index
        # would close the cycle (0,3), (2,5), (1,4)
        emb = np.array([[3, 1, 0], [3, 0, 1], [0, 3, 1], [1, 3, 0], [1, 0, 3], [0, 1, 3]], float)
        np.testing.assert_array_equal(emst_of(emb, 4), [[0, 1], [0, 3], [1, 4], [2, 3], [4, 5]])


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
        pts = sample_domain(OMEGA, 700, seed=23)
        floor = np.flatnonzero(rho(pts) < -19.9).tolist()
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
        frame = _edge_frame(pts, edges)
        t = 1.0
        d_t = _all_pairs(symmetric_csr(700, edges, _edge_weights(calabi_family(t), frame)))
        d_0 = _all_pairs(symmetric_csr(700, edges, _edge_weights(CONE_METRIC, frame)))

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

    @pytest.mark.parametrize("bound", [-1e-300, -1.0, float("nan")])
    def test_estimate_rejects_negative_bound(self, bound):
        with pytest.raises(ValueError, match="bound must be nonnegative"):
            GHEstimate(t=0.5, bound=bound)
        assert GHEstimate(t=0.5, bound=0.0).bound == 0.0

    def test_cloud_size_validation(self):
        # the builder's checks: n >= 10 and graph_k >= 4
        with pytest.raises(ValueError):
            gh_upper_bounds([1.0], n=9, seed=0)
        with pytest.raises(ValueError):
            gh_upper_bounds([1.0], n=30, seed=0, graph_k=3)

    @pytest.mark.parametrize(
        "n, seed, k",
        # at n=600, seed 1 every t attains its maximum only in rows past the first chunk
        [(_CHUNK - 1, 1, 8), (_CHUNK, 2, 8), (_CHUNK + 1, 3, 8), (350, 13, 8), (600, 1, 8)],
    )
    def test_streamed_equals_dense_reduction(self, n, seed, k):
        t_grid = [1.0, 0.1, 0.01]
        got = [e.bound for e in gh_upper_bounds(t_grid, n=n, seed=seed, graph_k=k)]
        assert got == gh_dense(t_grid, n, seed, k)

    def test_disconnected_graph_raises(self):
        graph = symmetric_csr(4, np.array([[0, 1], [2, 3]]), np.ones(2))
        with pytest.raises(DegenerateMetric):
            _all_pairs(graph)
        with pytest.raises(DegenerateMetric):
            _all_pairs(graph, np.array([2]))

    @pytest.mark.parametrize("n", [_CHUNK + 1, 600, 1000])
    def test_serial_path_equals_pooled_path(self, n, monkeypatch):
        t_grid = [1.0, 0.1, 0.01]
        real_context, forks = multiprocessing.get_context, []

        def spy(method):
            forks.append(method)
            return real_context(method)

        monkeypatch.setattr(metricgeom.multiprocessing, "get_context", spy)
        pooled = [e.bound for e in gh_upper_bounds(t_grid, n=n, seed=5, graph_k=8)]
        width = min(metricgeom._max_workers(), -(-n // _CHUNK))
        assert forks == (["fork"] if width > 1 else [])
        # up to one worker per chunk, more workers than this machine may have cores
        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 4)
        wide = [e.bound for e in gh_upper_bounds(t_grid, n=n, seed=5, graph_k=8)]

        def no_process(*args, **kwargs):
            raise AssertionError("the serial path started a process")

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 1)
        monkeypatch.setattr(metricgeom.multiprocessing, "get_context", no_process)
        serial = [e.bound for e in gh_upper_bounds(t_grid, n=n, seed=5, graph_k=8)]
        assert serial == pooled == wide

    def test_worker_error_reaches_caller(self, monkeypatch):
        # cut every edge between the two halves: the first chunk's rows reach
        # no node of the other half, so a worker raises
        real = metricgeom._graph_edges

        def split(points, graph_k):
            edges = real(points, graph_k)
            return edges[(edges < 300).sum(axis=1) != 1]

        def hung(signum, frame):
            # not a TimeoutError: Process.join takes any OSError for "still running"
            raise AssertionError("gh_upper_bounds did not return")

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 2)
        monkeypatch.setattr(metricgeom, "_graph_edges", split)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(DegenerateMetric):
                gh_upper_bounds([1.0, 0.1], n=600, seed=1, graph_k=8)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_memory_stays_linear_in_n(self, monkeypatch):
        # the streamed reduction holds O(chunk * n); a dense n x n float matrix alone is 8 MB.
        # Width 1 keeps the chunks in this process, where tracemalloc sees them.
        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 1)
        tracemalloc.start()
        try:
            gh_upper_bounds([1.0, 0.1, 0.01], n=1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_one_cpu_mask_starts_no_process(self, tmp_path):
        # a fresh interpreter restricted to one CPU: two chunks and four deltas, yet width 1
        out_path = str(tmp_path / "r.json")
        code = (
            "import contextlib, io, os\n"
            "from conifold_lab import cli, metricgeom\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "def no_process(*args, **kwargs):\n"
            "    raise AssertionError('a one-CPU mask started a process')\n"
            "metricgeom.multiprocessing.get_context = no_process\n"
            "print(len(metricgeom.gh_upper_bounds([1.0], n=300, seed=0, graph_k=6)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['estimates', '--n', '400', '--out', {out_path!r}])\n"
            "print(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(metricgeom.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["1", "0"]


class TestForkMap:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_keeps_item_order(self, monkeypatch, width):
        # later items finish first, and the closure's array reaches forked
        # workers by inheritance (a lambda cannot be pickled)
        scale = np.arange(1.0, 10.0)

        def slow_square(i):
            time.sleep(0.005 * (8 - i))
            return float(scale[i]) ** 2

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: width)
        with _fork_map(lambda i: slow_square(i), range(9)) as results:
            assert list(results) == [float(i) ** 2 for i in range(1, 10)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("width", [2, 4])
    def test_results_larger_than_a_pipe_buffer(self, monkeypatch, width):
        # each result is about 200 KB, three times a 64 KB pipe buffer, so a
        # worker blocks in send until the consumer reads that item
        def hung(signum, frame):
            # not a TimeoutError: Process.join takes any OSError for "still running"
            raise AssertionError("_fork_map did not deliver every result")

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: width)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with _fork_map(lambda i: np.full(25_000, float(i)), range(9)) as results:
                got = list(results)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [a.nbytes for a in got] == [200_000] * 9
        assert all((a == i).all() for i, a in enumerate(got))
        assert multiprocessing.active_children() == []

    def test_width_one_is_lazy(self, monkeypatch):
        seen = []
        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 1)
        with _fork_map(seen.append, range(3)) as results:
            assert seen == []
            next(results)
        assert seen == [0]

    def test_early_stop_kills_running_tasks(self, monkeypatch):
        def task(i):
            if i > 0:
                time.sleep(60)
            return i

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 2)
        start = time.monotonic()
        with _fork_map(task, range(4)) as results:
            assert next(results) == 0
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30

    def test_worker_dying_without_result_raises(self, monkeypatch):
        def task(i):
            if i == 1:
                os._exit(3)
            return i

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 2)
        with _fork_map(task, range(3)) as results:
            assert next(results) == 0
            with pytest.raises(ChildProcessError):
                next(results)
        assert multiprocessing.active_children() == []


class TestOmegaDeltaShrinking:
    def test_small_neighbourhood_small_diameter(self):
        # explicit (delta, t) with sampled diameter below 0.2
        delta, t = 0.005, 1e-4
        graph = build_cloud(DomainSpec(delta), calabi_family(t), n=300, graph_k=8, seed=17)
        diam = cloud_diameter(graph) + 2 * radial_stub(t, 2 * math.log(delta) - 20.0)
        assert diam < 0.2
