"""The three benchmark workloads.

Each workload turns the harness seed and an iteration number into inputs
(``prepare``), runs the timed calls (``execute``), gathers what the program
produced outside the timed region (``collect``), checks it (``checks``) and
reduces it to the numbers kept as the stored reference (``record``).

* ``gh-converge`` -- the headline experiment as users run it, at n=1000:
  sampling, kNN, the dense MST backbone, per-edge weights and dense APSP
  for five seeds on the CLI's own worker pool.
* ``estimates`` -- the estimate sweep at its defaults (n=2000): per-point
  forms loops over ~2,600 points, eight small clouds and radial quadratures.
* ``pointwise`` -- seeded single-point library calls with no graph: Ricci
  forms by finite differences, profile solves, form comparisons, radial
  lengths and the zero-section area and diameter.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from conifold_lab import cli, curvature, forms, metricgeom, profile
from conifold_lab.chart import ResolvedPoint

#: Reported numbers must match the reference to |a - b| <= REL * max(|a|, |b|) + ABS.
#: REL leaves room for last-digit drift from reordered arithmetic; ABS covers
#: quantities whose exact value is 0 (residuals, finite-difference Ricci
#: entries ~1e-9), which carry only rounding noise.
REFERENCE_REL = 1e-6
REFERENCE_ABS = 1e-8

#: The zero-section closed forms area = 2 pi t and diameter = sqrt(t) pi / 2
#: are checked to this relative tolerance.
CLOSED_FORM_REL = 1e-8

TOL = cli.DEFAULT_TOLERANCES


def _cli_seed(seed: int, i: int, stride: int) -> int:
    return seed % 2**31 + stride * i


class CliWorkload:
    """One ``cli.main`` invocation per iteration, report written as JSON."""

    #: The CLI maps its seeds or clouds over its thread pool.
    uses_pool = True
    #: Set-up already runs the CLI once; a first iteration is not slower.
    warm_up_iterations = 0

    def __init__(self, name: str, args: list[str], seed_stride: int, out_dir: Path):
        self.name = name
        self.args = args
        self.seed_stride = seed_stride
        self.out_path = out_dir / f"report-{name}.json"

    def prepare(self, seed: int, i: int) -> list[str]:
        cli_seed = _cli_seed(seed, i, self.seed_stride)
        return self.args + ["--seed", str(cli_seed), "--out", str(self.out_path)]

    def execute(self, argv: list[str]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def collect(self, argv, raw) -> dict:
        rc, stdout = raw
        report = json.loads(self.out_path.read_text()) if rc in (0, 1) else None
        return {"rc": rc, "stdout": stdout, "report": report}

    def checks(self, result: dict) -> list[tuple[str, bool]]:
        out = [("exit_code_0", result["rc"] == 0)]
        if result["report"] is not None:
            out += [(a["name"], bool(a["pass"])) for a in result["report"]["asserts"]]
        return out

    def record(self, result: dict) -> dict:
        report = result["report"] or {}
        return {"rows": report.get("rows"), "asserts": report.get("asserts")}


def _points(rng: np.random.Generator, n: int, rho_lo: float, rho_hi: float):
    """n points with rho uniform in [rho_lo, rho_hi], |z| <= 1, uniform fibre direction."""
    rhos = rng.uniform(rho_lo, rho_hi, n)
    z = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    u = rng.uniform(0.0, 1.0, n)
    a = np.sqrt(u) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    b = np.sqrt(1.0 - u) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    scale = np.exp(0.5 * rhos) / np.sqrt(1.0 + np.abs(z) ** 2)
    return [
        ResolvedPoint(complex(zi), complex(si * ai), complex(si * bi))
        for zi, si, ai, bi in zip(z, scale, a, b)
    ]


class PointwiseWorkload:
    """Single-point library calls generated from the seed; no graph is built."""

    name = "pointwise"
    uses_pool = False
    #: The first iteration runs ~1 s slower while the heap first grows to hold
    #: its results; it is checked but not timed.
    warm_up_iterations = 1
    t_grid = (1.0, 0.1, 0.01)
    ricci_points_per_t = 40
    profile_pairs = 66_000
    compare_points_per_t = 300
    stencil = curvature.StencilSpec(h=1e-3, order=4)

    def prepare(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed % 2**63, i])
        n = self.profile_pairs
        deep = rng.uniform(0.0, 1.0, n) < 0.2
        rhos = np.where(deep, rng.uniform(-600.0, -40.0, n), rng.uniform(-40.0, 0.0, n))
        return {
            # ricci-audit's region: away from the boundary and the zero section
            "ricci": [_points(rng, self.ricci_points_per_t, -5.0, -0.1) for _ in self.t_grid],
            "profile_t": (10.0 ** rng.uniform(-6.0, 0.0, n)).tolist(),
            "profile_rho": rhos.tolist(),
            # the estimates sweep's region: the 20-unit rho slab below the boundary
            "compare": [_points(rng, self.compare_points_per_t, -20.0, -1e-6)
                        for _ in self.t_grid],
        }

    def execute(self, inp: dict) -> dict:
        ricci = []
        for t, pts in zip(self.t_grid, inp["ricci"]):
            kind = forms.calabi_family(t)
            ricci.append([float(np.abs(curvature.ricci_form(kind, p, self.stencil).m).max())
                          for p in pts])
        profiles = [profile.eval_profile(profile.ProfileParams(t), r)
                    for t, r in zip(inp["profile_t"], inp["profile_rho"])]
        compare = []
        for t, pts in zip(self.t_grid, inp["compare"]):
            kind = forms.calabi_family(t)
            compare.append([forms.compare_forms(forms.eval_form(kind, p),
                                                forms.eval_form(forms.CONIFOLD_FLAT, p))
                            for p in pts])
        return {
            "ricci": ricci,
            "uprime": [e.uprime for e in profiles],
            "usecond": [e.usecond for e in profiles],
            "profile_rho": [e.rho for e in profiles],
            "compare": compare,
            "radial": [metricgeom.radial_length_from_rho(0.0, t) for t in (0.0,) + self.t_grid],
            "area": [metricgeom.zero_section_area(t) for t in self.t_grid],
            "diameter": [metricgeom.zero_section_diameter(t) for t in self.t_grid],
        }

    def collect(self, inp, raw: dict) -> dict:
        return {**raw, "profile_t": inp["profile_t"]}

    def checks(self, res: dict) -> list[tuple[str, bool]]:
        out = []
        for t, vals in zip(self.t_grid, res["ricci"]):
            out.append((f"ricci_matrix_t{t:g}", max(vals) <= TOL["ricci_matrix_max_entry"]))
        cubic = max(abs(profile.cubic_residual(profile.ProfileParams(t), r, up))
                    for t, r, up in zip(res["profile_t"], res["profile_rho"], res["uprime"]))
        out.append(("cubic_residual_max", cubic <= TOL["cubic_residual"]))
        out.append(("profile_positive", min(res["uprime"]) > 0.0 and min(res["usecond"]) > 0.0))
        for t, pairs in zip(self.t_grid, res["compare"]):
            out.append((f"tangential_lower_t{t:g}", min(lo for lo, _ in pairs) > 0.0))
        r0 = res["radial"][0]
        out.append(("radial_closed_form",
                    abs(r0 - 1.5 ** (2.0 / 3.0)) <= TOL["radial_closed_form_abs"]))
        out.append(("radial_uniform_bound",
                    max(res["radial"][1:]) <= r0 + TOL["radial_uniform_slack"]))
        for t, area, diam in zip(self.t_grid, res["area"], res["diameter"]):
            out.append((f"area_closed_form_t{t:g}",
                        abs(area - 2.0 * math.pi * t) <= CLOSED_FORM_REL * 2.0 * math.pi * t))
            exact = math.sqrt(t) * math.pi / 2.0
            out.append((f"diameter_closed_form_t{t:g}",
                        abs(diam - exact) <= CLOSED_FORM_REL * exact))
        return out

    def record(self, res: dict) -> dict:
        stride = 64
        return {
            "ricci": res["ricci"],
            "uprime": res["uprime"][::stride],
            "usecond": res["usecond"][::stride],
            "compare": [[list(pair) for pair in pairs[::8]] for pairs in res["compare"]],
            "radial": res["radial"],
            "area": res["area"],
            "diameter": res["diameter"],
        }


def make_workloads(out_dir: Path) -> dict:
    gh_args = ["gh-converge", "--n", "1000", "--k", "12", "--t-grid", "1,0.1,0.01",
               "--format", "json"]
    return {
        # gh-converge runs seeds s..s+4, so iterations step the base seed by 5
        "gh-converge": CliWorkload("gh-converge", gh_args, 5, out_dir),
        "estimates": CliWorkload("estimates", ["estimates", "--format", "json"], 1, out_dir),
        "pointwise": PointwiseWorkload(),
    }


def mismatches(ref, got, path: str = "") -> list[str]:
    """Where ``got`` differs from ``ref`` beyond the reference tolerance."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got)}"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, f"{path}[{i}]")]
    if isinstance(ref, bool) or isinstance(got, bool) or not (
            isinstance(ref, (int, float)) and isinstance(got, (int, float))):
        return [] if ref == got else [f"{path}: {ref!r} != {got!r}"]
    if abs(ref - got) <= REFERENCE_REL * max(abs(ref), abs(got)) + REFERENCE_ABS:
        return []
    return [f"{path}: {ref!r} != {got!r}"]
