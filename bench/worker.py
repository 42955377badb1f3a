"""Benchmark worker: one fresh process per workload run or set-up probe.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON line with the measurements.  ``bench/run.py`` starts it;
run that instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"

#: Workload seed whose first iteration is compared with the stored reference.
DEFAULT_SEED = 42

#: The speed kernel runs after set-up and after every iteration, for at
#: least KERNEL_PASSES passes and at least KERNEL_SHARE of the time just
#: measured, so that it samples the machine's speed across a long iteration.
KERNEL_PASSES = 10
KERNEL_SHARE = 0.1


def _import_program():
    """Import the package from this checkout's ``src`` and its scipy dependencies."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401
    import scipy.spatial  # noqa: F401
    import scipy.stats.qmc  # noqa: F401

    import conifold_lab

    if Path(conifold_lab.__file__).resolve().parent != SRC / "conifold_lab":
        raise SystemExit(f"conifold_lab imported from {conifold_lab.__file__}, not {SRC}")


def _warm_up():
    """Call every layer once so lazy set-up is paid here, not in timed calls."""
    from conifold_lab import cli, curvature, forms, metricgeom, profile
    from conifold_lab.chart import ResolvedPoint

    p = ResolvedPoint(0.3 + 0.2j, 0.4 - 0.1j, 0.2j)
    fam = forms.calabi_family(0.1)
    profile.eval_profile(profile.ProfileParams(0.1), -3.0)
    for kind in (forms.OMEGA_HAT, forms.CONIFOLD_FLAT, forms.CONE_METRIC, fam):
        forms.eval_form(kind, p)
    forms.compare_forms(forms.eval_form(fam, p), forms.eval_form(forms.CONIFOLD_FLAT, p))
    forms.fibrewise_trace_H(forms.OMEGA_HAT, p)
    forms.vector_norm_sq(fam, forms.V, p)
    curvature.ricci_form(fam, p, curvature.StencilSpec())
    metricgeom.zero_section_diameter(1.0)  # fills the fs_diameter cache
    metricgeom.zero_section_area(1.0)
    metricgeom.radial_length_from_rho(0.0, 0.1)
    metricgeom.gh_upper_bounds([1.0, 0.1], 60, 0, graph_k=6)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["profile-table", "--n", "10", "--out", str(OUT_DIR / "warm-up.json")])


def _setup() -> float:
    """Seconds to import the program and warm up every layer."""
    t0 = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    _import_program()
    _warm_up()
    return time.perf_counter() - t0


def _kernel_pass(d0, m0) -> float:
    """Seconds for one pass of fixed work that never calls the program.

    Its three parts stand for the program's three kinds of work: interpreted
    scalar arithmetic (the profile solver, the charts), small complex matrix
    algebra (the forms) and sweeps over a dense array (the graph routines).
    """
    import numpy as np

    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 60_000):
        s += (s * 0.5 + i) / (i + 1.0)
    m, eye = m0, np.eye(3)
    for _ in range(600):
        m = np.linalg.inv(m @ m.conj().T + eye)
    d = d0.copy()
    for k in range(0, d.shape[0], 12):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    return time.perf_counter() - t0


def speed_samples(after_s: float, every_cpu: bool = False) -> list[float]:
    """Speed-kernel pass times, which tell how fast the machine runs now.

    ``after_s`` is the time just measured; the passes take a share of it.
    The vCPUs of a shared host often run at different speeds at the same
    moment.  A single-threaded workload stays on one of them, and so does
    the kernel run right after it.  The CLI pool's threads use every CPU, so
    with ``every_cpu`` the passes take turns on each CPU the process may use;
    the process's CPU mask is restored afterwards.
    """
    import numpy as np

    d0 = np.add.outer(np.arange(300.0), np.arange(300.0)) % 97.0 + 1.0
    m0 = np.array([[2, 1j, 0], [-1j, 3, 0.5], [0, 0.5, 1]], dtype=complex)
    cpus = sorted(os.sched_getaffinity(0)) if every_cpu else []
    passes = []
    try:
        while len(passes) < KERNEL_PASSES or sum(passes) < KERNEL_SHARE * after_s:
            if cpus:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            passes.append(_kernel_pass(d0, m0))
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return passes


def _environment() -> dict:
    import numpy
    import scipy
    from conifold_lab import cli

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pool_width": cli._max_workers(),
    }


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, items, tag: str):
        for name, ok in items:
            self.attempted += 1
            if not ok:
                self.failed.append(f"{tag}:{name}")


def _reference_checks(wl, result, seed: int, i: int, write: bool):
    from workloads import mismatches

    if seed != DEFAULT_SEED or i != 0:
        return []
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    got = json.loads(json.dumps(wl.record(result)))
    if write:
        refs[wl.name] = got
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    if wl.name not in refs:
        return [("reference_present", False)]
    diff = mismatches(refs[wl.name], got)
    for line in diff[:10]:
        print(f"reference mismatch {line}", file=sys.stderr)
    return [("reference_match", not diff)]


def _untraced(wl, seed: int, seconds: float, write_reference: bool) -> dict:
    """Iterations until ``seconds`` have passed and at least one was timed.

    The workload's warm-up iterations are checked but not timed.  The speed
    kernel runs after every iteration.
    """
    checks = Checks()
    walls, warm_up, speed = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inputs = wl.prepare(seed, i)
        t0 = time.perf_counter()
        raw = wl.execute(inputs)
        wall = time.perf_counter() - t0
        (warm_up if i < wl.warm_up_iterations else walls).append(wall)
        speed.append(speed_samples(wall, wl.uses_pool))
        result = wl.collect(inputs, raw)
        checks.add(wl.checks(result), f"iter{i}")
        checks.add(_reference_checks(wl, result, seed, i, write_reference), f"iter{i}")
        i += 1
        if walls and time.perf_counter() >= deadline:
            break
    return {"wall_s": walls, "warm_up_s": warm_up, "speed_s": speed, "checks": checks}


def _traced(wl, seed: int, seconds: float) -> dict:
    """Pairs of one untraced and one traced iteration on the same inputs."""
    import numpy as np
    from tracing import LAYER_UNITS, NAMES, ROOT_NAME, Tracer, layer_metrics

    checks = Checks()
    plain_walls, traced_walls, per_iter = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        inputs = wl.prepare(seed, i)
        c0, t0 = time.process_time(), time.perf_counter()
        raw = wl.execute(inputs)
        wall = time.perf_counter() - t0
        cpu_util = (time.process_time() - c0) / wall
        plain_walls.append(wall)
        plain = wl.collect(inputs, raw)
        checks.add(wl.checks(plain), f"iter{i}")

        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            raw = tracer.span(ROOT_NAME, wl.execute, inputs)
        finally:
            restored = tracer.remove()
        traced_walls.append(time.perf_counter() - t0)
        traced = wl.collect(inputs, raw)
        checks.add([("wrappers_removed", restored),
                    ("traced_equals_untraced", traced == plain)], f"iter{i}")
        cols = tracer.spans()
        per_iter.append(layer_metrics(tracer, cols, cpu_util))
        i += 1
        if time.perf_counter() >= deadline:
            break
    np.savez(OUT_DIR / f"trace-{wl.name}.npz", names=np.array(NAMES), **cols)
    values = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    layers = {k: {"value": values[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    return {"wall_s": plain_walls, "traced_wall_s": traced_walls, "layers": layers,
            "bench_self_s": values["bench.self_s"], "checks": checks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="set up, report set-up time, exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    setup_s = _setup()
    setup_speed = speed_samples(setup_s)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_speed_s": setup_speed}))
        return 0

    from workloads import make_workloads

    wl = make_workloads(OUT_DIR)[args.workload]
    if args.trace:
        out = _traced(wl, args.seed, args.seconds)
    else:
        out = _untraced(wl, args.seed, args.seconds, args.write_reference)
    checks = out.pop("checks")
    print(json.dumps({
        **out,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_speed_s": setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "failures": checks.failed,
        "env": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
