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
under increasing k.  The tree is exact and built without a dense distance
matrix, by Boruvka rounds over the kNN lists the graph already queries
(deeper KD-tree queries only where a list cannot certify a point's nearest
neighbour outside its component).  Edges (i < j) are deduplicated on the
one int64 key i * n + j, whose order is their row order.  Each graph stores
both directions of every edge in one sorted CSR structure.

``build_clouds`` is the one graph builder: it builds the sample, the edge
set and the CSR structure once per (domain, n, k, seed) and weights that
graph per metric kind.  ``build_cloud`` is its batch of one, and
``gh_upper_bounds`` takes the cone's and the family's graphs from it.

A ``MetricCloud`` holds its weighted graph, not a distance matrix.
``cloud_diameter`` is exact from a few Dijkstra rows: eccentricity bounds
from each computed row (Takes & Kosters 2011) drop every node whose upper
bound, widened by 3 n eps for rounding in path sums of up to n hops, cannot
exceed the largest row maximum found.  The result is bit-identical to the
maximum of the full all-pairs matrix; about 80 of 500 rows are computed on
the clouds of the estimate sweep.

``gh_upper_bounds`` bounds the Gromov-Hausdorff distance between the graph
metrics of the t-metric and of the cone on one shared sample, not between
the continuum spaces.  It runs Dijkstra over fixed chunks of source rows;
each chunk is reduced to its per-t maxima of the discrepancy, so memory
grows as O(chunk * n) rather than O(n^2).  The chunks run on forked worker
processes, which inherit the graphs built in the parent and return only
those maxima; the parent takes the maximum over chunks, which does not
depend on how the rows are grouped.  ``CONIFOLD_LAB_THREADS`` caps the
worker count (default min(4, usable CPUs)); at width 1, or with a single
chunk, the chunks run in the calling process and no process is started.

Sampling is stratified and quasi-random (seeded Halton): uniform in rho
down to a fixed depth below the domain top, uniform in the base and fibre
phases, plus a ring hugging the boundary and a batch on the depth floor.
The unsampled stub between the floor and the zero section is charged its
closed-form radial length, available as ``radial_stub``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.spatial
import scipy.special
import scipy.stats.qmc

from .chart import OMEGA, DomainSpec, ResolvedPoint, contract, rho
from .chart import second_chart  # noqa: F401  (unused; bench/tracing.py wraps it by name)
from .errors import ConfigError, DegenerateMetric, OnZeroSection
from .forms import CONE_METRIC, FormKind, calabi_family, eval_forms
from .forms import eval_form  # noqa: F401  (unused; bench/tracing.py wraps it by name)
from .profile import ProfileParams, eval_profile
from .profile import cone_profile  # noqa: F401  (unused; bench/tracing.py wraps it by name)

#: Sampled clouds reach this far below the domain's rho supremum.
RHO_DEPTH = 20.0

#: Source rows per shortest-path call in the streamed GH reduction.
_CHUNK = 256

#: Source rows per shortest-path call in ``cloud_diameter``.
_DIAM_ROWS = 8


@dataclass(frozen=True)
class MetricCloud:
    """Sampled points (one stacked point) with their weighted graph.

    ``graph`` stores every edge in both directions (sorted CSR).  No
    distance matrix is held: ``cloud_diameter`` needs only a few Dijkstra
    rows, and ``dist`` runs the full all-pairs Dijkstra on demand.
    """

    points: ResolvedPoint
    kind: FormKind
    graph: scipy.sparse.csr_matrix
    graph_k: int
    seed: int

    @property
    def dist(self) -> np.ndarray:
        """Matrix of graph shortest-path distances (all-pairs Dijkstra, O(n^2) memory)."""
        return _all_pairs(self.graph)


@dataclass(frozen=True)
class GHEstimate:
    """Upper bound on a Gromov-Hausdorff distance at parameter t.

    The distance bounded is the one between two finite graph metrics on one
    shared sample of Omega, the t-metric's and the cone's, under the
    identity correspondence (see ``gh_upper_bounds``); it is not a bound on
    the distance between the continuum (Omega, omega_t) and the cone.
    """

    t: float
    bound: float

    def __post_init__(self):
        if not self.bound >= 0.0:
            raise ValueError("bound must be nonnegative")


def radial_length_from_rho(rho_top: float, t: float) -> float:
    """Length of the radial path from the zero section out to log radius rho_top.

    (1/2) * integral of sqrt(u'') d rho, in closed form: with x = u' the cubic
    gives u'' = x (2x + 3t) / (3 (t + x)); x = s^2, s = a tan(phi) with
    a = sqrt(1.5 t) and one integration by parts give, for U = u'(rho_top, t),

        L = sqrt(U) sqrt(3 (U + t) / (2U + 3t)) + a (F(phi|-1/2) - E(phi|-1/2)),

    phi = atan2(sqrt(U), a), with F, E the incomplete elliptic integrals.  At
    t = 0, L = 1.5^{2/3} e^{rho_top/3}.  The first term stays factored, since
    U^2 underflows at t = 0, rho_top = -700.  Raises ``OnZeroSection`` at
    rho_top = -inf and ``NonFinite`` at +inf or nan.
    """
    params = ProfileParams(t)
    if rho_top == -math.inf:
        raise OnZeroSection("radial path ends on the zero section")
    u = eval_profile(params, rho_top).uprime
    a = math.sqrt(1.5 * t)
    phi = math.atan2(math.sqrt(u), a)
    elliptic = scipy.special.ellipkinc(phi, -0.5) - scipy.special.ellipeinc(phi, -0.5)
    return math.sqrt(u) * math.sqrt(3.0 * (u + t) / (2.0 * u + 3.0 * t)) + a * float(elliptic)


def radial_length(p: ResolvedPoint, t: float) -> float:
    """Length under the t-metric of the radial path (z, s*xi) from P0 to p.

    The path speed is sqrt(u'') |ds|/s and d rho = 2 ds/s, so the length is
    (1/2) * integral of sqrt(u''(rho, t)) d rho up to rho(p), in closed form.
    """
    return radial_length_from_rho(rho(p), t)


def radial_stub(t: float, rho_floor: float = -RHO_DEPTH) -> float:
    """Closed-form radial length from the zero section to the sampling floor (< 1e-2 for all t)."""
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


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def sample_domain(d: DomainSpec, n: int, seed: int, rho_depth: float = RHO_DEPTH) -> ResolvedPoint:
    """Stratified quasi-random sample of n points of the domain (off P0).

    Returns one stacked ``ResolvedPoint`` whose coordinates are (n,) complex
    arrays.  Roughly 80% fill the rho slab uniformly, 10% hug the boundary
    and 10% sit on the depth floor, each with base and fibre directions
    uniform on their spheres.  Points landing at |z| > 1 are re-expressed
    through the chart transition, so every returned point lives in the
    canonical chart with |z| <= 1 (well away from the coordinate singularity
    at z = inf).

    The points are built in real arithmetic that equals, bit for bit, the
    same construction one point at a time in Python complex numbers: the
    fibre scale takes ``math.exp`` (``np.exp`` differs in the last bit on a
    few percent of inputs), and the chart transition spells out CPython's
    complex product and Smith quotient (numpy's complex product fuses into
    FMA and its quotient multiplies by a reciprocal).
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

    zmod = np.sqrt((1.0 - u[:, 1]) / u[:, 1])
    angle = 2.0 * math.pi * u[:, [2, 4, 5]].T
    cos, sin = np.cos(angle), np.sin(angle)
    scale = np.fromiter(map(math.exp, (0.5 * rhos).tolist()), float, n)
    scale /= np.sqrt(1.0 + zmod * zmod)
    a, b = np.sqrt(u[:, 3]), np.sqrt(1.0 - u[:, 3])
    z_re, z_im = zmod * cos[0], zmod * sin[0]
    xi = [scale * (a * cos[1]), scale * (a * sin[1]), scale * (b * cos[2]), scale * (b * sin[2])]

    # second chart (1/z, z xi1, z xi2) where |z| > 1
    far = zmod > 1.0
    re, im = z_re[far], z_im[far]
    for k in (0, 2):
        x_re, x_im = xi[k][far], xi[k + 1][far]
        xi[k][far], xi[k + 1][far] = re * x_re - im * x_im, re * x_im + im * x_re
    wide = np.abs(re) >= np.abs(im)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wide, im / re, re / im)
    denom = np.where(wide, re + im * ratio, re * ratio + im)
    z_re[far] = np.where(wide, 1.0, ratio) / denom
    z_im[far] = np.where(wide, -ratio, -1.0) / denom
    return ResolvedPoint(_complex(z_re, z_im), _complex(*xi[:2]), _complex(*xi[2:]))


def _nearest_outside(comp: np.ndarray, rows: np.ndarray, dd: np.ndarray, idx: np.ndarray):
    """Each row's nearest listed point outside its component: (distance, index).

    Among equally near points the smallest index wins, which is the smallest
    edge key (length, min(i, j), max(i, j)) for a fixed row i.  Rows with no
    listed outside point get (inf, n).
    """
    out = comp[idx] != comp[rows][:, None]
    dist = np.where(out, dd, np.inf)
    d = dist.min(axis=1)
    j = np.where(out & (dist == d[:, None]), idx, len(comp)).min(axis=1)
    return d, j


def _emst(tree: scipy.spatial.cKDTree, dd: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact Euclidean minimum spanning tree of the tree's points (Boruvka).

    ``dd, idx`` are every point's sorted nearest neighbours from ``tree.query``.
    Each round every component takes its smallest outgoing edge under the key
    (length, min(i, j), max(i, j)); the key is a total order, so the chosen
    edges form a forest.  A point's first listed neighbour outside its
    component is its exact nearest outside point when it is nearer than the
    list's last entry.  Otherwise the tree is queried again at twice the
    depth, but only while the list's last distance does not exceed the
    component's best edge so far: every unlisted point is at least that far,
    so it could not win.  Returns the n - 1 edges as rows (i < j).
    """
    n = tree.n
    points = np.arange(n)
    comp, ncomp = points, n
    mst = np.empty(0, dtype=np.intp)  # edge keys i * n + j
    while ncomp > 1:
        d, j = _nearest_outside(comp, points, dd, idx)
        best = np.full(n, np.inf)
        np.minimum.at(best, comp, d)
        last = dd[:, -1]
        deep = np.flatnonzero((d >= last) & (last <= best[comp]))
        k = dd.shape[1]
        while deep.size:
            k = min(2 * k, n)
            dq, iq = tree.query(tree.data[deep], k=k)
            d[deep], j[deep] = _nearest_outside(comp, deep, dq, iq)
            np.minimum.at(best, comp[deep], d[deep])
            last = dq[:, -1]
            deep = deep[(d[deep] >= last) & (last <= best[comp[deep]]) & (k < n)]
        lo, hi = np.minimum(points, j), np.maximum(points, j)
        order = np.lexsort((hi, lo, d, comp))
        first = order[np.r_[True, comp[order[1:]] != comp[order[:-1]]]]
        mst = np.unique(np.concatenate([mst, lo[first] * n + hi[first]]))
        tree_so_far = scipy.sparse.coo_matrix((np.ones(len(mst)), divmod(mst, n)), shape=(n, n))
        ncomp, comp = scipy.sparse.csgraph.connected_components(tree_so_far, directed=False)
    return np.stack(divmod(mst, n), axis=1)


def _graph_edges(points: ResolvedPoint, graph_k: int) -> np.ndarray:
    """Sorted undirected edges (i < j): symmetrized kNN in the C^4 embedding plus its EMST."""
    emb = np.stack(contract(points).y, axis=1).view(float)
    n = len(emb)
    k = min(graph_k + 1, n)
    tree = scipy.spatial.cKDTree(emb)
    dd, idx = (a.reshape(n, k) for a in tree.query(emb, k=k))
    knn = np.stack([np.repeat(np.arange(n), k), np.ravel(idx)], axis=1)
    # Connectivity backbone, independent of graph_k.
    pairs = np.sort(np.concatenate([knn, _emst(tree, dd, idx)]), axis=1)
    i, j = pairs[pairs[:, 0] != pairs[:, 1]].T
    # the key i * n + j orders edges (i < j) as their rows do
    return np.stack(divmod(np.unique(i * n + j), n), axis=1)


def _edge_weights(kind: FormKind, points: ResolvedPoint, edges: np.ndarray) -> np.ndarray:
    """Length of each edge's coordinate segment under the metric at its midpoint."""
    a, b = np.stack([points.z, points.xi1, points.xi2], axis=1)[edges.T]
    v = b - a
    try:
        m = eval_forms(kind, *(a + 0.5 * v).T)
    except OnZeroSection as exc:
        raise DegenerateMetric(f"edge midpoint off the metric's domain: {exc}") from None
    w = np.sqrt(np.maximum(np.einsum("ei,eij,ej->e", v, m, v.conj()).real, 0.0))
    if not np.isfinite(w).all():
        raise DegenerateMetric("nonfinite edge weight")
    return w


def _symmetric_graph(
    n: int, edges: np.ndarray
) -> Callable[[np.ndarray], scipy.sparse.csr_matrix]:
    """Weights -> sparse graph that stores each edge in both directions.

    The sorted two-direction CSR structure is built once; each metric kind
    only permutes its edge weights into the matrix data.
    """
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[order].astype(np.int32)
    perm = order % len(edges)

    def graph(weights: np.ndarray) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix((weights[perm], indices, indptr), shape=(n, n))

    return graph


def _all_pairs(graph: scipy.sparse.csr_matrix, sources: np.ndarray | None = None) -> np.ndarray:
    """Shortest-path distances from ``sources`` (default: every node) in a symmetric graph."""
    dist = scipy.sparse.csgraph.shortest_path(graph, method="D", directed=True, indices=sources)
    if np.isinf(dist).any():
        raise DegenerateMetric("sampled graph is not connected")
    return dist


def build_clouds(
    d: DomainSpec, kinds: list[FormKind], n: int, graph_k: int, seed: int
) -> list[MetricCloud]:
    """Sample the domain once and weight its one graph under each kind (no Dijkstra).

    The sample, the edge set and the two-direction CSR structure depend only
    on ``(d, n, graph_k, seed)``, so they are built once; each kind adds one
    batched weight evaluation, and the clouds share points and structure.
    Raises ``ValueError`` unless n >= 10 and graph_k >= 4.
    """
    if n < 10:
        raise ValueError("need n >= 10")
    if graph_k < 4:
        raise ValueError("need graph_k >= 4")
    points = sample_domain(d, n, seed)
    edges = _graph_edges(points, graph_k)
    graph = _symmetric_graph(n, edges)
    return [
        MetricCloud(points=points, kind=kind, graph=graph(_edge_weights(kind, points, edges)),
                    graph_k=graph_k, seed=seed)
        for kind in kinds
    ]


def build_cloud(
    d: DomainSpec, kind: FormKind, n: int, graph_k: int, seed: int
) -> MetricCloud:
    """One kind's cloud: ``build_clouds`` as a batch of one."""
    return build_clouds(d, [kind], n, graph_k, seed)[0]


def cloud_diameter(c: MetricCloud) -> float:
    """Largest sampled distance, equal bit for bit to ``c.dist.max()``.

    Eccentricity bounds (Takes & Kosters 2011, BoundingDiameters) replace
    the full matrix.  Each round computes the Dijkstra rows of
    ``_DIAM_ROWS`` candidates, alternately those with the largest upper
    bound and those with the smallest lower bound.  A row d of eccentricity
    ecc gives every node the bounds max(d, ecc - d) <= ecc(x) <= ecc + d,
    and ``best`` keeps the largest row maximum computed.  A node leaves the
    candidates once its row is computed or hi * (1 + 3 n eps) <= best.  The
    slack covers rounding in path sums of up to n hops, so every skipped
    row's computed maximum is at most ``best`` and the result is that of
    the full matrix, not an approximation of it.  A disconnected graph
    raises ``DegenerateMetric`` from the first row.
    """
    n = c.graph.shape[0]
    slack = 1.0 + 3.0 * n * np.finfo(float).eps
    lo, hi = np.zeros(n), np.full(n, np.inf)
    cand = np.ones(n, dtype=bool)
    best, by_hi = 0.0, True
    while cand.any():
        idx = np.flatnonzero(cand)
        key = -hi[idx] if by_hi else lo[idx]
        sources = idx[np.argsort(key, kind="stable")[:_DIAM_ROWS]]
        rows = _all_pairs(c.graph, sources)
        ecc = rows.max(axis=1, keepdims=True)
        best = max(best, float(ecc.max()))
        lo = np.maximum(lo, np.maximum(rows, ecc - rows).max(axis=0))
        hi = np.minimum(hi, (ecc + rows).min(axis=0))
        cand[sources] = False
        cand &= hi * slack > best
        by_hi = not by_hi
    return best


def _max_workers() -> int:
    """Worker-process cap: ``CONIFOLD_LAB_THREADS`` (values < 1 read as 1).

    Unset, it is min(4, number of CPUs this process may run on).  Raises
    ``ConfigError`` when the variable is not an integer.
    """
    env = os.environ.get("CONIFOLD_LAB_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"CONIFOLD_LAB_THREADS={env!r} is not an integer") from exc
        return max(1, cap)
    return min(4, len(os.sched_getaffinity(0)))


def _chunk_gaps(graphs: list[scipy.sparse.csr_matrix], start: int) -> list[float]:
    """Per-t maxima of |d_t - d_cone| over the ``_CHUNK`` source rows from ``start``.

    ``graphs`` is the cone's graph followed by each t's.
    """
    cone, *family = graphs
    sources = np.arange(start, min(start + _CHUNK, cone.shape[0]))
    d_cone = _all_pairs(cone, sources)
    return [float(np.max(np.abs(_all_pairs(g, sources) - d_cone))) for g in family]


#: The graphs of the pool this worker process serves (set only in workers).
_worker_graphs: list[scipy.sparse.csr_matrix] = []


def _init_worker(graphs: list[scipy.sparse.csr_matrix]) -> None:
    global _worker_graphs
    _worker_graphs = graphs


def _worker_chunk_gaps(start: int) -> list[float]:
    return _chunk_gaps(_worker_graphs, start)


def gh_upper_bounds(
    t_grid: list[float], n: int, seed: int, graph_k: int = 12
) -> list[GHEstimate]:
    """GH upper bounds between the sampled graph metrics of each t and of the cone.

    One sample of Omega and one edge set are weighted under the t-metric and
    under the cone metric, giving two finite metric spaces on the same n
    points.  The identity correspondence bounds the GH distance between
    these two graph metrics by half the largest discrepancy of their
    distances.  It is not a bound on the GH distance between the continuum
    (Omega, omega_t) and the cone: sampling and graph errors are not
    included.  The discrepancy is reduced over chunks of source rows, so no
    n x n matrix is held.

    The graphs come from one ``build_clouds`` call (cone first, then each t),
    so the sample and edge set are built once.  The chunks run on
    min(``_max_workers()``, chunk count) processes forked after the build:
    they inherit the graphs rather than receive copies, and each chunk
    returns only its per-t maxima.  The maximum over chunks does not depend
    on their grouping, so the bounds equal those of the serial loop, which
    runs in this process, starting none, when that width is 1.  A worker's
    ``DegenerateMetric`` reaches the caller as it would serially.  Raises
    ``ValueError`` unless every t lies in (0, 1], n >= 10 and graph_k >= 4,
    and ``ConfigError`` for a non-integer ``CONIFOLD_LAB_THREADS``.
    """
    for t in t_grid:
        if not (0.0 < t <= 1.0):
            raise ValueError("t must lie in (0, 1]")
    starts = range(0, n, _CHUNK)
    workers = min(_max_workers(), len(starts))
    kinds = [CONE_METRIC] + [calabi_family(t) for t in t_grid]
    graphs = [c.graph for c in build_clouds(OMEGA, kinds, n, graph_k, seed)]
    if workers == 1:
        gaps = [_chunk_gaps(graphs, start) for start in starts]
    else:
        # fork, not spawn: workers inherit the graphs, and a spawned worker
        # would import numpy and scipy again on every call
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_init_worker, initargs=(graphs,)) as pool:
            gaps = pool.map(_worker_chunk_gaps, starts, chunksize=1)
    return [GHEstimate(t=t, bound=0.5 * max(col)) for t, col in zip(t_grid, zip(*gaps))]


def gh_upper_bound(t: float, n: int, seed: int, graph_k: int = 12) -> GHEstimate:
    """GH upper bound between the t-metric on Omega and the cone (one t)."""
    return gh_upper_bounds([t], n, seed, graph_k)[0]
