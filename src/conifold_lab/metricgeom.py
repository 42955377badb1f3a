"""Lengths, diameters and Gromov-Hausdorff estimates for the metric family.

Distances on sampled domains are approximated by shortest paths in a
k-nearest-neighbour graph whose edge weights are Riemannian lengths of
straight coordinate segments under the midpoint metric.  That rule errs both
ways (against Gauss-Legendre segment lengths at n = 2000: -11.3% to +2.2%
for the cone, -5.0% to +12.5% at t = 1), so graph distances may over- or
underestimate.  Graphs are weighed under the family and the cone only,
the kinds an experiment compares; both are diagonal in the t-independent
coframe of ``forms``, so each ``cloud_structure`` computes its edges'
``EdgeFrame`` once, and a kind then costs one profile solve and no 3x3
matrix (``_edge_weights``).  Neighbour proximity is
measured in the contraction embedding into C^4, which adapts the graph to
the collapsing geometry near the zero section.  A Euclidean minimum
spanning tree over the same embedding is always added to the edge
set: it guarantees a connected graph and, being independent of k, preserves
the monotonicity of distances under increasing k.  The tree is exact and
built without a dense distance matrix, by Boruvka rounds over the kNN lists
the graph already queries (deeper KD-tree queries only where a list cannot
certify a point's nearest neighbour outside its component).  The KD-tree
has leaves of 32 points, not scipy's 16: that made its k = 13 queries
7-10% faster at n = 500 to 2000, with the same neighbour lists (README).

One int64 key names an edge (i < j) end to end: i * n + j.  The EMST
returns its edges as keys, the kNN pairs are keyed by np.minimum and
np.maximum, and one ``np.unique`` deduplicates both; the key order is the
row order.  Each graph stores both directions of every edge in one CSR
structure whose arcs are sorted by the same key, row * n + col.

``cloud_structure`` builds the sample, the edge set and the CSR structure
once per (domain, n, k, seed); ``CloudStructure.weigh`` returns the
weighted graph of one metric kind, a ``scipy.sparse.csr_matrix``, when a
caller asks, so the CLI's ``estimates`` sweep never weighs a t after its
first small diameter.  ``gh_upper_bounds`` maps the weigher over the cone
and each t; ``build_cloud`` weighs one kind of a fresh structure.  A graph
is the only cloud type: the structure keeps the edge frame and the arc
arrays but not the points, and no distance matrix is held.  Dijkstra rows
come from ``scipy.sparse.csgraph.dijkstra`` itself:
``shortest_path(method="D")`` validates the graph and then calls it.

``cloud_diameter`` is exact from a few Dijkstra rows.  It bounds each
node's farthest point by the rows already computed, as Takes & Kosters'
BoundingDiameters (2011) does, but more tightly: by the node's column
maximum over those rows and, for each row, the node's entry plus the row's
maximum over the remaining candidates.  It computes the rows of the nodes
with the largest bound first and drops every node whose bound, widened by
3 n eps for rounding in path sums of up to n hops, cannot exceed the
largest row maximum found.  The result is bit-identical to the maximum of
the full all-pairs matrix; about 56 of 500 rows are computed on the clouds
of the estimate sweep.

``gh_upper_bounds`` bounds the Gromov-Hausdorff distance between the graph
metrics of the t-metric and of the cone on one shared sample, not between
the continuum spaces.  It runs Dijkstra over fixed chunks of source rows;
each chunk is reduced to its per-t maxima of the discrepancy, so memory
grows as O(chunk * n) rather than O(n^2).  The parent takes the maximum
over chunks, which does not depend on how the rows are grouped.

``_fork_map`` is the one fork helper, shared by ``gh_upper_bounds`` and
the CLI's ``estimates`` sweep; its docstring states its contract.

Sampling is stratified and quasi-random: uniform in rho down to a fixed
depth below the domain top, uniform in the base and fibre phases, plus a
ring hugging the boundary and a batch on the depth floor.  The points come
from a seeded Halton sequence with Owen's random digit scrambling, built in
the package (``_halton``) so that start-up does not import
``scipy.stats``; the tests hold it bit for bit to scipy's scrambled Halton,
the oracle it reproduces.
The unsampled stub between the floor and the zero section is charged its
closed-form radial length, available as ``radial_stub``.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import multiprocessing.connection
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.spatial
import scipy.special

from .chart import OMEGA, DomainSpec, ResolvedPoint, contract, rho, second_chart
from .errors import DegenerateMetric, OnZeroSection
from .forms import CONE_METRIC, RHO_DEEP_LIMIT, FormKind, calabi_family
from .forms import eval_form  # noqa: F401  (unused; bench/tracing.py wraps it by name)
from .profile import ProfileParams, eval_profile, eval_profiles
from .profile import cone_profile  # noqa: F401  (unused; bench/tracing.py wraps it by name)

#: Sampled clouds reach this far below the domain's rho supremum.
RHO_DEPTH = 20.0

#: Source rows per shortest-path call in the streamed GH reduction.
_CHUNK = 256

#: Source rows per shortest-path call in ``cloud_diameter``.
_DIAM_ROWS = 8

#: KD-tree leaf size for the 8-real contraction embedding.
_LEAFSIZE = 32


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


def _halton(n: int, seed: int) -> np.ndarray:
    """n scrambled Halton points in [0, 1)^6 (Owen 2017, arXiv:1706.02808).

    Equal bit for bit to ``scipy.stats.qmc.Halton(d=6, scramble=True,
    seed=seed).random(n)``: the same digit permutations drawn in the same
    order, and the same sum ``acc += perm[digit] * inv`` with ``inv /= base``.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, 6))
    for col, base in enumerate((2, 3, 5, 7, 11, 13)):
        perms = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
        for perm in perms:
            rng.shuffle(perm)
        k, acc, inv = np.arange(n), np.zeros(n), 1.0 / base
        for perm in perms:
            k, digit = np.divmod(k, base)
            acc += perm[digit] * inv
            inv /= base
        out[:, col] = acc
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
    """
    if n < 1:
        raise ValueError("need n >= 1")
    hi = d.rho_max()
    lo = hi - rho_depth
    n_ring = max(2, n // 10)
    n_floor = max(2, n // 10)
    n_bulk = max(0, n - n_ring - n_floor)

    u = _halton(n, seed)
    eps = 1e-12
    u = np.clip(u, eps, 1.0 - eps)

    rhos = np.empty(n)
    rhos[:n_bulk] = lo + (hi - lo) * u[:n_bulk, 0]
    rhos[n_bulk : n_bulk + n_ring] = hi - 1e-6
    rhos[n_bulk + n_ring :] = lo

    zmod = np.sqrt((1.0 - u[:, 1]) / u[:, 1])
    phase = np.exp(2j * math.pi * u[:, [2, 4, 5]].T)
    scale = np.exp(0.5 * rhos) / np.sqrt(1.0 + zmod * zmod)
    p = ResolvedPoint(zmod * phase[0], scale * np.sqrt(u[:, 3]) * phase[1],
                      scale * np.sqrt(1.0 - u[:, 3]) * phase[2])
    far = zmod > 1.0
    q = second_chart(p[far])
    p.z[far], p.xi1[far], p.xi2[far] = q.z, q.xi1, q.xi2
    return p


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
    so it could not win.  Returns the n - 1 edges as sorted keys i * n + j (i < j).
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
    return mst


def _graph_edges(points: ResolvedPoint, graph_k: int) -> np.ndarray:
    """Sorted undirected edges (i < j): symmetrized kNN in the C^4 embedding plus its EMST."""
    emb = np.stack(contract(points), axis=1).view(float)
    n = len(emb)
    k = min(graph_k + 1, n)
    tree = scipy.spatial.cKDTree(emb, leafsize=_LEAFSIZE)
    dd, idx = (a.reshape(n, k) for a in tree.query(emb, k=k))
    i = np.arange(n)[:, None]
    lo, hi = np.minimum(i, idx), np.maximum(i, idx)
    # Connectivity backbone, independent of graph_k; the key i * n + j orders
    # edges (i < j) as their rows do.
    keys = np.unique(np.concatenate([(lo * n + hi)[lo != hi], _emst(tree, dd, idx)]))
    return np.stack(divmod(keys, n), axis=1)


def _abs2(c: np.ndarray) -> np.ndarray:
    return c.real * c.real + c.imag * c.imag


@dataclass(frozen=True)
class EdgeFrame:
    """Each edge's midpoint rho and its segment vector v's squared coframe norms there.

    With h = 1 + |z|^2 and S = |xi1|^2 + |xi2|^2 at the midpoint, b, a and r
    are |theta_b(v)|^2 = |v_z / h|^2, |theta_a(v)|^2 = |(xi2 v_1 - xi1 v_2) / S|^2
    and |theta_r(v)|^2 = |zbar v_z / h + (xi1bar v_1 + xi2bar v_2) / S|^2
    (``forms``), the same for every metric kind.
    """

    rho: np.ndarray
    b: np.ndarray
    a: np.ndarray
    r: np.ndarray


def _edge_frame(points: ResolvedPoint, edges: np.ndarray) -> EdgeFrame:
    """The ``EdgeFrame`` of each (i, j) row of ``edges``, from the segment p_j - p_i."""
    coords = np.stack([points.z, points.xi1, points.xi2])
    p = coords[:, edges[:, 0]]
    v = coords[:, edges[:, 1]] - p
    z, x1, x2 = p + 0.5 * v
    vz, v1, v2 = v
    h = 1.0 + _abs2(z)
    s = _abs2(x1) + _abs2(x2)
    # where S is 0 (the zero section) or underflows, the quotients are inf or
    # nan and _edge_weights raises on rho or on the weight
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = vz / h
        fibre = (x1.conj() * v1 + x2.conj() * v2) / s
        return EdgeFrame(rho=rho(ResolvedPoint(z, x1, x2)), b=_abs2(base),
                         a=_abs2((x2 * v1 - x1 * v2) / s), r=_abs2(z.conj() * base + fibre))


def _edge_weights(kind: FormKind, frame: EdgeFrame) -> np.ndarray:
    """Length of each edge's coordinate segment under the metric at its midpoint.

    Only the kinds with a profile, the family and the cone (t = 0), are
    weighed: the squared length is (t + u') b + u' a + u'' r, with (u', u'')
    at the midpoint from one ``eval_profiles`` call.  A kind without ``t``
    raises ``ValueError``.  A midpoint on the zero section or below
    ``RHO_DEEP_LIMIT`` and a non-finite weight raise ``DegenerateMetric``.
    """
    if kind.t is None:
        raise ValueError(f"graphs are weighed under the family and the cone only, not {kind.tag}")
    bad = ~np.isfinite(frame.rho) | (frame.rho < RHO_DEEP_LIMIT)
    if bad.any():
        raise DegenerateMetric(f"edge midpoint off the metric's domain: {kind.tag} degenerates"
                               f" at rho = {frame.rho[np.argmax(bad)]}")
    prof = eval_profiles(ProfileParams(kind.t), frame.rho)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite weight raises below
        w = np.sqrt((kind.t + prof.uprime) * frame.b + prof.uprime * frame.a
                    + prof.usecond * frame.r)
    if not np.isfinite(w).all():
        raise DegenerateMetric("nonfinite edge weight")
    return w


def _all_pairs(graph: scipy.sparse.csr_matrix, sources: np.ndarray | None = None) -> np.ndarray:
    """Shortest-path distances from ``sources`` (default: every node) in a symmetric graph."""
    dist = scipy.sparse.csgraph.dijkstra(graph, directed=True, indices=sources)
    if np.isinf(dist).any():
        raise DegenerateMetric("sampled graph is not connected")
    return dist


@dataclass(frozen=True)
class CloudStructure:
    """A sample's edge set as its two-direction CSR structure, not yet weighted.

    ``frame`` is the ``EdgeFrame`` of the (i < j) edges in key order, which
    every metric kind shares.  The CSR stores each edge as two arcs, in the
    order of their key row * n + col; ``perm`` gives each arc's edge, so a
    metric kind only permutes its edge weights into the matrix data.
    """

    frame: EdgeFrame
    indices: np.ndarray
    indptr: np.ndarray
    perm: np.ndarray

    def weigh(self, kind: FormKind) -> scipy.sparse.csr_matrix:
        """The graph of one metric kind, both arcs of each edge: ``_edge_weights`` on the frame."""
        n = len(self.indptr) - 1
        data = _edge_weights(kind, self.frame)[self.perm]
        return scipy.sparse.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def cloud_structure(d: DomainSpec, n: int, graph_k: int, seed: int) -> CloudStructure:
    """Sample the domain and build its edge set and CSR structure, unweighted.

    Raises ``ValueError`` unless n >= 10 and graph_k >= 4.
    """
    if n < 10:
        raise ValueError("need n >= 10")
    if graph_k < 4:
        raise ValueError("need graph_k >= 4")
    points = sample_domain(d, n, seed)
    edges = _graph_edges(points, graph_k)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    # the arc keys are unique, so this is np.lexsort((cols, rows))'s permutation
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CloudStructure(frame=_edge_frame(points, edges), indices=cols[order].astype(np.int32),
                          indptr=indptr, perm=order % len(edges))


def build_cloud(
    d: DomainSpec, kind: FormKind, n: int, graph_k: int, seed: int
) -> scipy.sparse.csr_matrix:
    """One kind's graph on a fresh ``cloud_structure`` (no Dijkstra)."""
    return cloud_structure(d, n, graph_k, seed).weigh(kind)


def cloud_diameter(graph: scipy.sparse.csr_matrix) -> float:
    """Largest sampled distance, equal bit for bit to ``_all_pairs(graph).max()``.

    Upper bounds on each node's farthest point replace the full matrix, as
    in Takes & Kosters' BoundingDiameters (2011).  Each round computes the
    Dijkstra rows of the ``_DIAM_ROWS`` candidates with the largest upper
    bound, and ``best`` keeps the largest row maximum computed.  The upper
    bound hi(x) covers x's pairs with the computed sources and with the
    remaining candidates: the first are at most x's column maximum over the
    computed rows, and a candidate y is at most d(x) + d(y) for every
    computed row d, so hi(x) = max(column max, min over d of (d(x) + max of
    d over the candidates)).  That is never above Takes & Kosters'
    min over d of (ecc + d(x)).  A node leaves the candidates once its row
    is computed or hi * (1 + 3 n eps) <= best; its pairs with every node
    still a candidate are then bounded, so the later maxima run over the
    candidates alone, and the computed rows are kept only on their columns.
    The slack covers rounding in path sums of up to n hops, and the last-bit
    difference between d(x, y) and d(y, x), so every skipped row's computed
    maximum is at most ``best`` and the result is that of the full matrix,
    not an approximation of it, whatever order the rows are computed in.  A
    disconnected graph raises ``DegenerateMetric`` from the first row.
    """
    n = graph.shape[0]
    slack = 1.0 + 3.0 * n * np.finfo(float).eps
    cand = np.arange(n)
    hi = np.full(n, np.inf)
    kept = np.empty((0, n))
    best = 0.0
    while cand.size:
        order = np.argsort(-hi, kind="stable")
        rows = _all_pairs(graph, cand[order[:_DIAM_ROWS]])
        best = max(best, float(rows.max()))
        rest = np.sort(order[_DIAM_ROWS:])
        cand = cand[rest]
        kept = np.vstack([kept[:, rest], rows[:, cand]])
        reach = kept.max(axis=1, keepdims=True, initial=0.0)  # 0 once no candidate is left
        hi = np.maximum(kept.max(axis=0), (kept + reach).min(axis=0))
        alive = hi * slack > best
        cand, hi, kept = cand[alive], hi[alive], kept[:, alive]
    return best


def _max_workers() -> int:
    """Worker-process cap: min(4, CPUs in this process's affinity mask)."""
    return min(4, len(os.sched_getaffinity(0)))


def _chunk_gaps(graphs: list[scipy.sparse.csr_matrix], start: int) -> list[float]:
    """Per-t maxima of |d_t - d_cone| over the ``_CHUNK`` source rows from ``start``.

    ``graphs`` is the cone's graph followed by each t's.
    """
    cone, *family = graphs
    sources = np.arange(start, min(start + _CHUNK, cone.shape[0]))
    d_cone = _all_pairs(cone, sources)
    return [float(np.max(np.abs(_all_pairs(g, sources) - d_cone))) for g in family]


def _serve(fn: Callable, items: Sequence,
           results: multiprocessing.connection.Connection) -> None:
    """Forked worker: apply ``fn`` to each of ``items`` in order.

    For each item it sends (True, result) or (False, the exception raised).
    """
    for item in items:
        try:
            out = (True, fn(item))
        except Exception as exc:
            out = (False, exc)
        results.send(out)


@contextlib.contextmanager
def _fork_map(fn: Callable, items: Sequence) -> Iterator[Iterator]:
    """Yield ``fn`` over ``items``, in order, computed on up to ``_max_workers()`` forked processes.

    The width is min(``_max_workers()``, len(items)): at most 4 and the CPUs
    in this process's affinity mask, so ``taskset -c`` narrows it.  At width
    1 it yields a lazy ``map`` in this process and starts no process.
    Wider, it forks ``width`` workers, which inherit ``fn`` with its closure
    and ``items`` (the graphs they read are not copied).  The assignment is
    fixed: worker w computes items w, w + width, ... in order and sends back
    only their results, on a pipe of its own, so item i's result is the next
    one on worker i % width's pipe.  Both callers' items cost about the same
    (equal GH chunks of source rows, only the last shorter; Omega_delta
    clouds of one size), so fixed shares keep the workers about as busy as
    handing out the next free item would.
    Item i's result, or the exception it raised, comes when the consumer
    reaches i.  Leaving the ``with`` block kills and reaps every worker, so
    a consumer that stops early kills the work it no longer needs.  No lock
    is shared with a worker, so a kill cannot leave one held
    (``multiprocessing.Pool.terminate`` can, when it kills a worker that is
    writing its result, and then hangs).  If item i's worker died before
    sending its result, reading i raises ``ChildProcessError``.
    """
    width = min(_max_workers(), len(items))
    if width <= 1:
        yield map(fn, items)
        return
    # fork, not spawn: a spawned worker would import numpy and scipy again
    # and could not inherit the closure
    ctx = multiprocessing.get_context("fork")
    workers, readers = [], []

    def results():
        for i in range(len(items)):
            try:
                ok, value = readers[i % width].recv()
            except EOFError:  # the worker has exited
                raise ChildProcessError(f"no worker sent the result of item {i}") from None
            if not ok:
                raise value
            yield value

    try:
        for w in range(width):
            reader, writer = ctx.Pipe(duplex=False)
            workers.append(ctx.Process(target=_serve, args=(fn, items[w::width], writer)))
            workers[-1].start()
            writer.close()
            readers.append(reader)
        yield results()
    finally:
        for proc in workers:
            proc.kill()  # harmless on a worker that has finished
        for proc in workers:
            proc.join()
        for reader in readers:
            reader.close()


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

    The graphs come from one ``cloud_structure`` weighed under the cone and
    then each t, so the sample and edge set are built once.  The chunks go
    through ``_fork_map`` after the build, and each returns only its per-t
    maxima.  The maximum over chunks does not depend on their grouping, so
    the bounds equal those of the serial loop.  A worker's
    ``DegenerateMetric`` reaches the caller as it would serially.  Raises
    ``ValueError`` unless every t lies in (0, 1], n >= 10 and graph_k >= 4.
    """
    kinds = [CONE_METRIC] + [calabi_family(t) for t in t_grid]
    graphs = list(map(cloud_structure(OMEGA, n, graph_k, seed).weigh, kinds))
    with _fork_map(lambda start: _chunk_gaps(graphs, start), range(0, n, _CHUNK)) as gaps:
        return [GHEstimate(t=t, bound=0.5 * max(col)) for t, col in zip(t_grid, zip(*gaps))]


def gh_upper_bound(t: float, n: int, seed: int, graph_k: int = 12) -> GHEstimate:
    """GH upper bound between the t-metric on Omega and the cone (one t)."""
    return gh_upper_bounds([t], n, seed, graph_k)[0]
