"""Lengths, diameters and Gromov-Hausdorff estimates for the metric family.

Distances on sampled domains are approximated by shortest paths in a
k-nearest-neighbour graph whose edge weights are Riemannian lengths of
straight coordinate segments under the midpoint metric (one-sided: graph
distances overestimate and tighten as n and k grow).  A graph's edges are
weighted by one batched ``eval_forms`` call per metric kind; an edge whose
midpoint lies on the zero section, where the family metrics degenerate,
raises ``DegenerateMetric``.  Neighbour proximity is measured in the
contraction embedding into C^4, which adapts the graph to the collapsing
geometry near the zero section.  A Euclidean minimum spanning tree over the
same embedding is always added to the edge set: it guarantees a connected
graph and, being independent of k, preserves the monotonicity of distances
under increasing k.

Sampling is stratified and quasi-random (seeded Halton): uniform in rho
down to a fixed depth below the domain top, uniform in the base and fibre
phases, plus a ring hugging the boundary and a batch on the depth floor.
The unsampled stub between the floor and the zero section is charged the
radial length integral, available as ``radial_stub``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.sparse.csgraph
import scipy.spatial
import scipy.stats.qmc

from .chart import OMEGA, DomainSpec, ResolvedPoint, contract, rho, second_chart
from .errors import DegenerateMetric, OnZeroSection
from .forms import CONE_METRIC, FormKind, calabi_family, eval_forms
from .forms import eval_form  # noqa: F401  (unused; bench/tracing.py wraps it by name)
from .profile import ProfileParams, cone_profile, eval_profile

#: Sampled clouds reach this far below the domain's rho supremum.
RHO_DEPTH = 20.0

#: Lower cutoff of the radial-length quadrature; the truncated tail is
#: below 1e-13 for every t in [0, 1].
_QUAD_RHO_CUT = -120.0

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


@dataclass(frozen=True)
class MetricCloud:
    """Sampled points with the symmetric matrix of graph shortest-path distances."""

    points: list[ResolvedPoint]
    kind: FormKind
    dist: np.ndarray
    graph_k: int
    seed: int


@dataclass(frozen=True)
class GHEstimate:
    """Upper bound on the Gromov-Hausdorff distance at parameter t."""

    t: float
    bound: float

    def __post_init__(self):
        if not self.bound >= 0.0:
            raise ValueError("bound must be nonnegative")


def _sqrt_usecond(t: float, r: float) -> float:
    if t == 0.0:
        return math.sqrt(cone_profile(r).usecond)
    return math.sqrt(eval_profile(ProfileParams(t), r).usecond)


def radial_length_from_rho(rho_top: float, t: float) -> float:
    """Length of the radial path from the zero section out to log radius rho_top."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if not math.isfinite(rho_top):
        raise OnZeroSection("radial path needs a finite endpoint radius")
    lo = min(_QUAD_RHO_CUT, rho_top - 1.0)
    val, _ = scipy.integrate.quad(lambda r: _sqrt_usecond(t, r), lo, rho_top, **_QUAD_OPTS)
    return 0.5 * val


def radial_length(p: ResolvedPoint, t: float) -> float:
    """Length under the t-metric of the radial path (z, s*xi) from P0 to p.

    The path speed is sqrt(u'') |ds|/s and d rho = 2 ds/s, so the length is
    (1/2) * integral of sqrt(u''(rho, t)) d rho up to rho(p).
    """
    r = rho(p)
    if not math.isfinite(r):
        raise OnZeroSection("radial path undefined from the zero section itself")
    return radial_length_from_rho(r, t)


def radial_stub(t: float, rho_floor: float = -RHO_DEPTH) -> float:
    """Radial length from the zero section to the sampling floor (< 1e-2 for all t)."""
    return radial_length_from_rho(rho_floor, t)


def zero_section_area(t: float) -> float:
    """Area 2*pi*t of the zero section under the restriction of the t-metric.

    The profile terms vanish on the section, so the restriction is t times
    the base Fubini-Study form i dz ^ dzbar / (1 + |z|^2)^2, whose integral
    over the line is 2*pi.  The test suite checks this against a quadrature
    of the full restricted integrand, profile terms included.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    return 2.0 * math.pi * t


def fs_diameter() -> float:
    """Diameter pi/2 of the base projective line under the Fubini-Study form.

    The metric |dz|^2 / (1 + |z|^2)^2 is the round sphere of radius 1/2, so
    antipodal points are pi/2 apart.  The test suite checks this against a
    dense sweep of radial geodesic quadratures from a fixed base point.
    """
    return math.pi / 2


def zero_section_diameter(t: float) -> float:
    """Diameter of the zero section under the restricted t-metric, sqrt(t) * D_FS."""
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    return math.sqrt(t) * fs_diameter()


def sample_domain(
    d: DomainSpec, n: int, seed: int, rho_depth: float = RHO_DEPTH
) -> list[ResolvedPoint]:
    """Stratified quasi-random sample of n points of the domain (off P0).

    Roughly 80%% fill the rho slab uniformly, 10%% hug the boundary and 10%%
    sit on the depth floor, each with base and fibre directions uniform on
    their spheres.  Points landing at |z| > 1 are re-expressed through the
    chart transition, so every returned point lives in the canonical chart
    with |z| <= 1 (well away from the coordinate singularity at z = inf).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    hi = d.rho_max()
    lo = hi - rho_depth
    n_ring = max(2, n // 10)
    n_floor = max(2, n // 10)
    n_bulk = max(0, n - n_ring - n_floor)

    halton = scipy.stats.qmc.Halton(d=6, scramble=True, seed=seed)
    u = halton.random(n)
    eps = 1e-12
    u = np.clip(u, eps, 1.0 - eps)

    rhos = np.empty(n)
    rhos[:n_bulk] = lo + (hi - lo) * u[:n_bulk, 0]
    rhos[n_bulk : n_bulk + n_ring] = hi - 1e-6
    rhos[n_bulk + n_ring :] = lo

    pts: list[ResolvedPoint] = []
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
        if zmod > 1.0:
            p = second_chart(p)
        pts.append(p)
    return pts


def _coords(points: list[ResolvedPoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinate arrays (z, xi1, xi2) of a list of points."""
    return tuple(np.array([getattr(p, c) for p in points], dtype=complex)
                 for c in ("z", "xi1", "xi2"))


def _graph_edges(points: list[ResolvedPoint], graph_k: int) -> np.ndarray:
    """Sorted undirected edges (i < j): symmetrized kNN in the C^4 embedding plus its MST."""
    emb = np.stack(contract(ResolvedPoint(*_coords(points))).y, axis=1).view(float)
    n = len(points)
    k = min(graph_k + 1, n)
    _, idx = scipy.spatial.cKDTree(emb).query(emb, k=k)
    knn = np.stack([np.repeat(np.arange(n), k), np.ravel(idx)], axis=1)
    # Connectivity backbone, independent of graph_k.
    dense = scipy.spatial.distance.squareform(scipy.spatial.distance.pdist(emb))
    mst = np.stack(scipy.sparse.csgraph.minimum_spanning_tree(dense).nonzero(), axis=1)
    pairs = np.sort(np.concatenate([knn, mst]), axis=1)
    return np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)


def _edge_weights(kind: FormKind, points: list[ResolvedPoint], edges: np.ndarray) -> np.ndarray:
    """Length of each edge's coordinate segment under the metric at its midpoint."""
    a, b = np.stack(_coords(points), axis=1)[edges.T]
    v = b - a
    try:
        m = eval_forms(kind, *(a + 0.5 * v).T)
    except OnZeroSection as exc:
        raise DegenerateMetric(f"edge midpoint off the metric's domain: {exc}") from None
    w = np.sqrt(np.maximum(np.einsum("ei,eij,ej->e", v, m, v.conj()).real, 0.0))
    if not np.isfinite(w).all():
        raise DegenerateMetric("nonfinite edge weight")
    return w


def _all_pairs(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    graph = scipy.sparse.csr_matrix(
        (weights, (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    dist = scipy.sparse.csgraph.shortest_path(graph, method="D", directed=False)
    if np.isinf(dist).any():
        raise DegenerateMetric("sampled graph is not connected")
    return dist


def build_cloud(
    d: DomainSpec, kind: FormKind, n: int, graph_k: int, seed: int
) -> MetricCloud:
    """Sample the domain and compute all-pairs shortest-path distances."""
    if n < 10:
        raise ValueError("need n >= 10")
    if graph_k < 4:
        raise ValueError("need graph_k >= 4")
    points = sample_domain(d, n, seed)
    edges = _graph_edges(points, graph_k)
    weights = _edge_weights(kind, points, edges)
    dist = _all_pairs(n, edges, weights)
    return MetricCloud(points=points, kind=kind, dist=dist, graph_k=graph_k, seed=seed)


def cloud_diameter(c: MetricCloud) -> float:
    """Largest sampled distance."""
    return float(c.dist.max())


def gh_upper_bounds(
    t_grid: list[float], n: int, seed: int, graph_k: int = 12
) -> list[GHEstimate]:
    """GH upper bounds against the cone for several t sharing one sampled graph.

    The same points and edges are weighted under the t-metric and under the
    cone metric; the identity correspondence then bounds the GH distance by
    half the largest discrepancy between the two distance matrices.
    """
    for t in t_grid:
        if not (0.0 < t <= 1.0):
            raise ValueError("t must lie in (0, 1]")
    points = sample_domain(OMEGA, n, seed)
    edges = _graph_edges(points, graph_k)
    d_cone = _all_pairs(n, edges, _edge_weights(CONE_METRIC, points, edges))
    out = []
    for t in t_grid:
        d_t = _all_pairs(n, edges, _edge_weights(calabi_family(t), points, edges))
        distortion = float(np.max(np.abs(d_t - d_cone)))
        out.append(GHEstimate(t=t, bound=0.5 * distortion))
    return out


def gh_upper_bound(t: float, n: int, seed: int, graph_k: int = 12) -> GHEstimate:
    """GH upper bound between the t-metric on Omega and the cone (one t)."""
    return gh_upper_bounds([t], n, seed, graph_k)[0]
