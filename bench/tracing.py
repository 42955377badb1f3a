"""Layer tracing from outside the program.

A ``Tracer`` replaces module attributes of ``conifold_lab`` and of the scipy
routines it hands work to with timing wrappers, records one span per call
(name, start, end, parent) in per-thread buffers, and puts every original
back when the traced region ends.  Nothing under ``src/`` is modified: the
wrappers are installed on the names through which the package calls its
layers (``from .forms import eval_form`` binds a separate name in each
importing module, so each binding is wrapped on its own and tagged with its
call site).

Each span carries wall-clock and thread-CPU start and end.  Self time of a
span is its thread-CPU duration minus that of its children in the same
thread.  CPU time rather than wall time, because the CLI's worker pool runs
two Python threads under one interpreter lock: a span's wall time includes
the time its thread waited while the other thread ran, which would be
charged to whichever layer happened to be waiting.
"""

from __future__ import annotations

import itertools
import threading
import tracemalloc
from array import array
from time import perf_counter, thread_time

import numpy as np
import scipy.integrate
import scipy.sparse.csgraph
import scipy.spatial
import scipy.spatial.distance

from conifold_lab import chart, cli, curvature, forms, metricgeom, profile

ROOT_NAME = "bench.iteration"
POOL_ITEM_NAME = "cli._pmap.item"

# span name -> layer bucket whose self time it adds to
BUCKETS = {
    ROOT_NAME: "bench.self",
    "chart.rho": "chart",
    "chart.contract": "chart",
    "chart.second_chart": "chart",
    "profile.eval_profile": "profile",
    "profile.cone_profile": "profile",
    "forms.eval_form@forms": "forms.eval",
    "forms.eval_form@metricgeom": "forms.eval",
    "forms.eval_form@curvature": "forms.eval",
    "forms.vector_norm_sq": "forms.eval",
    "forms.compare_forms": "forms.compare",
    "forms.restrict_to_fibre": "forms.fibre",
    "forms.fibrewise_trace_H": "forms.fibre",
    "curvature.ricci_form": "curvature.ricci",
    "curvature.complex_hessian": "curvature.ricci",
    "curvature.ricci_potential_residual": "curvature.potential",
    "metricgeom.sample_domain": "metricgeom.sample",
    "metricgeom.build_cloud": "metricgeom.self",
    "metricgeom.cloud_diameter": "metricgeom.self",
    "metricgeom.gh_upper_bounds": "metricgeom.self",
    "metricgeom.gh_upper_bound": "metricgeom.self",
    "metricgeom.radial_length_from_rho": "metricgeom.quad",
    "metricgeom.radial_length": "metricgeom.quad",
    "metricgeom.radial_stub": "metricgeom.quad",
    "metricgeom.zero_section_area": "metricgeom.quad",
    "metricgeom.zero_section_diameter": "metricgeom.quad",
    "metricgeom.fs_diameter": "metricgeom.quad",
    "scipy.integrate.quad": "metricgeom.quad",
    "scipy.spatial.cKDTree": "metricgeom.knn",
    "scipy.spatial.cKDTree.query": "metricgeom.knn",
    "scipy.spatial.distance.pdist": "metricgeom.backbone",
    "scipy.spatial.distance.squareform": "metricgeom.backbone",
    "scipy.sparse.csgraph.minimum_spanning_tree": "metricgeom.backbone",
    "scipy.sparse.csgraph.shortest_path": "metricgeom.apsp",
    "cli.run": "cli.self",
    "cli._pmap": "cli.self",
    POOL_ITEM_NAME: "cli.self",
}
NAMES = list(BUCKETS)
CODE = {name: i for i, name in enumerate(NAMES)}

# (owner, attribute, span name): every binding through which a layer is called
_TARGETS = [
    (chart, "rho", "chart.rho"),
    (chart, "contract", "chart.contract"),
    (chart, "second_chart", "chart.second_chart"),
    (forms, "rho", "chart.rho"),
    (metricgeom, "rho", "chart.rho"),
    (metricgeom, "contract", "chart.contract"),
    (metricgeom, "second_chart", "chart.second_chart"),
    (cli, "rho", "chart.rho"),
    (profile, "eval_profile", "profile.eval_profile"),
    (profile, "cone_profile", "profile.cone_profile"),
    (forms, "eval_profile", "profile.eval_profile"),
    (forms, "cone_profile", "profile.cone_profile"),
    (metricgeom, "eval_profile", "profile.eval_profile"),
    (metricgeom, "cone_profile", "profile.cone_profile"),
    (curvature, "eval_profile", "profile.eval_profile"),
    (cli, "eval_profile", "profile.eval_profile"),
    (forms, "eval_form", "forms.eval_form@forms"),
    (metricgeom, "eval_form", "forms.eval_form@metricgeom"),
    (curvature, "eval_form", "forms.eval_form@curvature"),
    (forms, "vector_norm_sq", "forms.vector_norm_sq"),
    (forms, "compare_forms", "forms.compare_forms"),
    (forms, "restrict_to_fibre", "forms.restrict_to_fibre"),
    (forms, "fibrewise_trace_H", "forms.fibrewise_trace_H"),
    (curvature, "ricci_form", "curvature.ricci_form"),
    (curvature, "complex_hessian", "curvature.complex_hessian"),
    (curvature, "ricci_potential_residual", "curvature.ricci_potential_residual"),
    (metricgeom, "sample_domain", "metricgeom.sample_domain"),
    (metricgeom, "build_cloud", "metricgeom.build_cloud"),
    (metricgeom, "cloud_diameter", "metricgeom.cloud_diameter"),
    (metricgeom, "gh_upper_bounds", "metricgeom.gh_upper_bounds"),
    (metricgeom, "gh_upper_bound", "metricgeom.gh_upper_bound"),
    (metricgeom, "radial_length_from_rho", "metricgeom.radial_length_from_rho"),
    (metricgeom, "radial_length", "metricgeom.radial_length"),
    (metricgeom, "radial_stub", "metricgeom.radial_stub"),
    (metricgeom, "zero_section_area", "metricgeom.zero_section_area"),
    (metricgeom, "zero_section_diameter", "metricgeom.zero_section_diameter"),
    (metricgeom, "fs_diameter", "metricgeom.fs_diameter"),
    (scipy.integrate, "quad", "scipy.integrate.quad"),
    (scipy.spatial.distance, "pdist", "scipy.spatial.distance.pdist"),
    (scipy.spatial.distance, "squareform", "scipy.spatial.distance.squareform"),
    (cli, "run", "cli.run"),
]

# calls whose tracemalloc peak is recorded, keyed by the metric they feed
_MEMORY_TARGETS = [
    (scipy.sparse.csgraph, "minimum_spanning_tree",
     "scipy.sparse.csgraph.minimum_spanning_tree", "metricgeom.backbone"),
    (scipy.sparse.csgraph, "shortest_path",
     "scipy.sparse.csgraph.shortest_path", "metricgeom.apsp"),
]


class _ThreadBuffer:
    """Finished spans of one thread, as parallel columns."""

    __slots__ = ("stack", "sid", "parent", "code", "t0", "t1", "c0", "c1")

    def __init__(self):
        self.stack = [0]
        self.sid = array("q")
        self.parent = array("q")
        self.code = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")


class Tracer:
    """Installs span-recording wrappers, removes them, and reduces the spans."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        self._mem_active = 0
        self.peak_bytes: dict[str, int] = {}
        self.edges = 0

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _call(self, code: int, fn, args, kwargs, parent: int | None = None):
        buf = self._buffer()
        sid = next(self._ids)
        stack = buf.stack
        if parent is None:
            parent = stack[-1]
        stack.append(sid)
        c0 = thread_time()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            c1 = thread_time()
            stack.pop()
            buf.sid.append(sid)
            buf.parent.append(parent)
            buf.code.append(code)
            buf.t0.append(t0)
            buf.t1.append(t1)
            buf.c0.append(c0)
            buf.c1.append(c1)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        return self._call(CODE[name], fn, args, kwargs)

    def _wrap(self, fn, name: str):
        code = CODE[name]
        call = self._call

        def traced(*args, **kwargs):
            return call(code, fn, args, kwargs)

        return traced

    def _mem_enter(self):
        with self._lock:
            if self._mem_active == 0:
                tracemalloc.start()
            self._mem_active += 1

    def _mem_exit(self, metric: str):
        peak = tracemalloc.get_traced_memory()[1]
        with self._lock:
            self.peak_bytes[metric] = max(self.peak_bytes.get(metric, 0), peak)
            self._mem_active -= 1
            if self._mem_active == 0:
                tracemalloc.stop()

    def _wrap_memory(self, fn, name: str, metric: str):
        """Wrapper that also records the tracemalloc peak during the call.

        Calls that overlap in time (pool threads) share one tracemalloc
        window, so their peak is that of the window.
        """
        inner = self._wrap(fn, name)
        count_edges = name == "scipy.sparse.csgraph.shortest_path"

        def traced(*args, **kwargs):
            if count_edges:
                with self._lock:
                    self.edges += int(args[0].nnz)
            self._mem_enter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._mem_exit(metric)

        return traced

    def _wrap_pool(self, fn):
        """``cli._pmap`` wrapper: each work item becomes a child span of the pool
        span, recorded in the thread that runs it."""
        code_pool, code_item = CODE["cli._pmap"], CODE[POOL_ITEM_NAME]
        call = self._call

        def shim(work, items):
            pool_sid = self._buffer().stack[-1]
            return fn(lambda x: call(code_item, work, (x,), {}, parent=pool_sid), items)

        def traced(work, items):
            return call(code_pool, shim, (work, items), {})

        return traced

    def _traced_kdtree(self, base):
        call = self._call
        code_build = CODE["scipy.spatial.cKDTree"]
        code_query = CODE["scipy.spatial.cKDTree.query"]

        class TracedKDTree(base):
            def __init__(self, *args, **kwargs):
                call(code_build, super().__init__, args, kwargs)

            def query(self, *args, **kwargs):
                return call(code_query, super().query, args, kwargs)

        return TracedKDTree

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name in _TARGETS:
            self._replace(owner, attr, self._wrap(getattr(owner, attr), name))
        for owner, attr, name, metric in _MEMORY_TARGETS:
            self._replace(owner, attr, self._wrap_memory(getattr(owner, attr), name, metric))
        self._replace(cli, "_pmap", self._wrap_pool(cli._pmap))
        self._replace(scipy.spatial, "cKDTree", self._traced_kdtree(scipy.spatial.cKDTree))

    def remove(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        originals, self._originals = self._originals, []
        for owner, attr, orig in reversed(originals):
            setattr(owner, attr, orig)
        return all(getattr(owner, attr) is orig for owner, attr, orig in originals)

    # -- reduction -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as columns ``sid, parent, code, thread, t0, t1, c0, c1``."""
        cols = {}
        for col, dtype in (("sid", np.int64), ("parent", np.int64), ("code", np.int32),
                           ("t0", np.float64), ("t1", np.float64),
                           ("c0", np.float64), ("c1", np.float64)):
            cols[col] = np.concatenate(
                [np.frombuffer(getattr(b, col), dtype=dtype) for b in self._buffers])
        cols["thread"] = np.concatenate(
            [np.full(len(b.sid), i) for i, b in enumerate(self._buffers)])
        return cols


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Thread-CPU duration of each span minus that of its children in the same thread."""
    sid, parent, thread = cols["sid"], cols["parent"], cols["thread"]
    cpu = cols["c1"] - cols["c0"]
    index = np.zeros(int(sid.max()) + 1, dtype=np.int64)
    index[sid] = np.arange(sid.size)
    rows = np.flatnonzero(parent > 0)
    rows = rows[thread[index[parent[rows]]] == thread[rows]]
    return cpu - np.bincount(index[parent[rows]], weights=cpu[rows], minlength=sid.size)


#: Per-layer metrics of one traced iteration: name -> unit.  Every ``_s``
#: metric is thread-CPU self time summed over threads, so callees are not
#: counted twice and the layers add up to the process CPU time.
LAYER_UNITS = {
    "metricgeom.apsp_s": "s",
    "metricgeom.apsp_calls": "count",
    "metricgeom.apsp_peak_mb": "MB",
    "metricgeom.backbone_s": "s",
    "metricgeom.backbone_peak_mb": "MB",
    "metricgeom.knn_s": "s",
    "metricgeom.sample_s": "s",
    "metricgeom.self_s": "s",
    "metricgeom.edges": "count",
    "metricgeom.weight_evals_per_edge": "ratio",
    "metricgeom.quad_s": "s",
    "metricgeom.quad_calls": "count",
    "forms.eval_s": "s",
    "forms.eval_calls": "count",
    "forms.compare_s": "s",
    "forms.compare_calls": "count",
    "forms.fibre_s": "s",
    "profile.eval_s": "s",
    "profile.eval_calls": "count",
    "curvature.ricci_s": "s",
    "curvature.ricci_calls": "count",
    "curvature.ricci_p50_ms": "ms",
    "curvature.ricci_p90_ms": "ms",
    "curvature.evals_per_ricci": "ratio",
    "curvature.potential_s": "s",
    "chart.s": "s",
    "chart.calls": "count",
    "cli.self_s": "s",
    "cli.cpu_util": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, cols: dict[str, np.ndarray], cpu_util: float) -> dict:
    """Reduce one traced iteration's spans to the per-layer metrics.

    ``cpu_util`` (process CPU time over wall time) comes from the untraced
    iteration on the same inputs, since tracing itself adds Python work.
    ``trace.overhead_s`` is filled in by the caller.
    """
    code, parent = cols["code"], cols["parent"]
    self_s = self_times(cols)
    per_name = np.bincount(code, weights=self_s, minlength=len(NAMES))
    calls = np.bincount(code, minlength=len(NAMES))
    bucket_s: dict[str, float] = {}
    for name, i in CODE.items():
        bucket_s[BUCKETS[name]] = bucket_s.get(BUCKETS[name], 0.0) + float(per_name[i])

    def n(*names):
        return int(sum(calls[CODE[x]] for x in names))

    # profile calls that are not made from inside another profile call
    code_of = np.full(int(cols["sid"].max()) + 1, -1)
    code_of[cols["sid"]] = code
    parent_code = np.where(parent > 0, code_of[parent], -1)
    profile_codes = [CODE["profile.eval_profile"], CODE["profile.cone_profile"]]
    profile_calls = int(np.sum(np.isin(code, profile_codes) & ~np.isin(parent_code, profile_codes)))

    ricci_ms = 1e3 * (cols["t1"] - cols["t0"])[code == CODE["curvature.ricci_form"]]
    ricci_calls = n("curvature.ricci_form")
    p50, p90 = np.percentile(ricci_ms, [50, 90]) if ricci_ms.size else (0.0, 0.0)
    weight_evals = n("forms.eval_form@metricgeom")
    mb = 1e-6
    return {
        "metricgeom.apsp_s": bucket_s["metricgeom.apsp"],
        "metricgeom.apsp_calls": n("scipy.sparse.csgraph.shortest_path"),
        "metricgeom.apsp_peak_mb": tracer.peak_bytes.get("metricgeom.apsp", 0) * mb,
        "metricgeom.backbone_s": bucket_s["metricgeom.backbone"],
        "metricgeom.backbone_peak_mb": tracer.peak_bytes.get("metricgeom.backbone", 0) * mb,
        "metricgeom.knn_s": bucket_s["metricgeom.knn"],
        "metricgeom.sample_s": bucket_s["metricgeom.sample"],
        "metricgeom.self_s": bucket_s["metricgeom.self"],
        "metricgeom.edges": tracer.edges,
        "metricgeom.weight_evals_per_edge": weight_evals / tracer.edges if tracer.edges else 0.0,
        "metricgeom.quad_s": bucket_s["metricgeom.quad"],
        "metricgeom.quad_calls": n("scipy.integrate.quad"),
        "forms.eval_s": bucket_s["forms.eval"],
        "forms.eval_calls": n("forms.eval_form@forms", "forms.eval_form@metricgeom",
                              "forms.eval_form@curvature"),
        "forms.compare_s": bucket_s["forms.compare"],
        "forms.compare_calls": n("forms.compare_forms"),
        "forms.fibre_s": bucket_s["forms.fibre"],
        "profile.eval_s": bucket_s["profile"],
        "profile.eval_calls": profile_calls,
        "curvature.ricci_s": bucket_s["curvature.ricci"],
        "curvature.ricci_calls": ricci_calls,
        "curvature.ricci_p50_ms": float(p50),
        "curvature.ricci_p90_ms": float(p90),
        "curvature.evals_per_ricci": (n("forms.eval_form@curvature") / ricci_calls
                                      if ricci_calls else 0.0),
        "curvature.potential_s": bucket_s["curvature.potential"],
        "chart.s": bucket_s["chart"],
        "chart.calls": n("chart.rho", "chart.contract", "chart.second_chart"),
        "cli.self_s": bucket_s["cli.self"],
        "cli.cpu_util": cpu_util,
        "bench.self_s": bucket_s["bench.self"],
    }
