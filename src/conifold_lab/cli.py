"""Experiment runner: sweeps, convergence runs, reports.

Reports follow one schema: ``{"experiment", "config", "rows", "asserts",
"version"}`` where every assert is ``{"name", "pass", "observed", "bound"}``.
CSV output mirrors the rows with a header line and floats printed with 17
significant digits, so identical config + seed gives byte-identical files.
Exit codes: 0 all asserted invariants pass, 1 an invariant failed, 2
configuration or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, curvature, forms, metricgeom
from .chart import OMEGA, DomainSpec, ResolvedPoint, rho, rho_1
from .errors import ConfigError
from .metricgeom import _max_workers  # noqa: F401  (unused; bench/worker.py calls it by name)
from .profile import ProfileParams, cubic_residual, eval_profiles
from .profile import eval_profile  # noqa: F401  (unused; bench/tracing.py wraps it by name)

#: The bound of each named check; a run cannot change them.
DEFAULT_TOLERANCES = {
    "cubic_residual": 1e-9,
    "usecond_fd_rel": 1e-7,
    "ricci_matrix_max_entry": 1e-4,
    "ricci_control_min_entry": 1e-2,
    "sandwich_min_eigenvalue": -1e-10,
    "trace_bound_hat": 4.0 + 1e-9,
    "norm_identity_rel": 1e-8,
    "radial_closed_form_abs": 1e-8,
    "radial_uniform_slack": 1e-6,
    "gh_monotone_slack": 0.10,
    "gh_ratio": 1.0 / 3.0,
    "gh_seed_spread": 0.25,
    "omega_delta_eps": 0.2,
    "sandwich_stability_factor": 2.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    t_grid: tuple[float, ...] = (1.0, 0.1, 0.01)
    n_samples: int = 2000
    graph_k: int = 12
    seed: int = 42
    output_path: str = "report.json"
    format: str = "json"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.t_grid:
            raise ConfigError("t_grid must be nonempty")
        if any(not (0.0 < t <= 1.0) for t in self.t_grid):
            raise ConfigError("t_grid entries must lie in (0, 1]")
        if any(a <= b for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly decreasing")
        if self.experiment == "gh-converge" and len(self.t_grid) < 2:
            raise ConfigError("gh-converge needs at least two t_grid values")
        if self.experiment == "estimates" and not min(_sweep_ts(self.t_grid)) > 0.0:
            raise ConfigError("estimates needs min(t_grid) / 100 > 0: it sweeps t/10 and t/100")
        if self.n_samples < 10:
            raise ConfigError("n_samples must be >= 10")
        if self.graph_k < 4:
            raise ConfigError("graph_k must be >= 4")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")


def _pmap(fn, items):
    """Map in order over independent work items (GH seeds; bench/tracing.py wraps it by name)."""
    return [fn(x) for x in items]


def _check(name: str, observed: float, bound: float, ok: bool) -> dict:
    return {"name": name, "pass": bool(ok), "observed": float(observed), "bound": float(bound)}


def _at_most(name: str, observed: float, bound: float) -> dict:
    return _check(name, observed, bound, observed <= bound)


def _report_only(name: str, observed: float) -> dict:
    # recorded value, not asserted against anything
    return {"name": name, "pass": True, "observed": float(observed), "bound": float(observed)}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


#: Step in rho of the centred difference of u' that u'' is checked against.
_FD_STEP = 1e-4


def _usecond_fd_rel(params: ProfileParams, rho_values: np.ndarray) -> np.ndarray:
    """Per-sample |u'' - (u'(rho + h) - u'(rho - h)) / (2 h)| / u'' at h = ``_FD_STEP``.

    The difference quotient does not use the identity (t + u') u' u'' =
    e^{2 rho} through which u'' is computed, so the gap checks u'' against
    the derivative of u', not the identity against itself.
    """
    h = _FD_STEP
    usecond = eval_profiles(params, rho_values).usecond
    fd = (eval_profiles(params, rho_values + h).uprime
          - eval_profiles(params, rho_values - h).uprime) / (2.0 * h)
    return np.abs(usecond - fd) / usecond


def _exp_profile_table(cfg: ExperimentConfig):
    n_rho = max(5, min(cfg.n_samples, 500))
    rho_values = np.linspace(-20.0, 0.0, n_rho)
    rows, max_cubic, max_fd = [], 0.0, 0.0
    for t in cfg.t_grid:
        params = ProfileParams(t)
        prof = eval_profiles(params, rho_values)
        cres = np.abs(cubic_residual(params, prof.rho, prof.uprime))
        fd_rel = _usecond_fd_rel(params, rho_values)
        max_cubic, max_fd = max(max_cubic, float(cres.max())), max(max_fd, float(fd_rel.max()))
        columns = zip(prof.rho.tolist(), prof.uprime.tolist(), prof.usecond.tolist(),
                      cres.tolist(), fd_rel.tolist())
        rows += [
            {"t": t, "rho": r, "uprime": up, "usecond": us, "cubic_residual": c,
             "usecond_fd_rel": fd}
            for r, up, us, c, fd in columns
        ]
    asserts = [
        _at_most("cubic_residual_max", max_cubic, DEFAULT_TOLERANCES["cubic_residual"]),
        _at_most("usecond_fd_rel_max", max_fd, DEFAULT_TOLERANCES["usecond_fd_rel"]),
    ]
    return rows, asserts


def _exp_diam_scaling(cfg: ExperimentConfig):
    # the rows are the closed form sqrt(t) * pi/2, so a check on them would assert an identity
    rows = []
    for t in cfg.t_grid:
        diam = metricgeom.zero_section_diameter(t)
        rows.append({"t": t, "diameter": diam, "diam_t13": diam * t ** (-1.0 / 3.0)})
    return rows, []


def _exp_gh_converge(cfg: ExperimentConfig):
    seeds = [cfg.seed + i for i in range(5)]
    per_seed = _pmap(
        lambda s: metricgeom.gh_upper_bounds(list(cfg.t_grid), cfg.n_samples, s, cfg.graph_k),
        seeds,
    )

    rows, asserts = [], []
    ratio = DEFAULT_TOLERANCES["gh_ratio"]
    for s, ests in zip(seeds, per_seed):
        rows += [{"seed": s, "t": e.t, "bound": e.bound} for e in ests]
        bounds = [e.bound for e in ests]
        worst = 0.0
        for prev, nxt in zip(bounds, bounds[1:]):
            if prev > 0:
                worst = max(worst, nxt / prev - 1.0)
        asserts.append(_at_most(f"gh_monotone_seed{s}", worst,
                                DEFAULT_TOLERANCES["gh_monotone_slack"]))
        obs_ratio = bounds[-1] / bounds[0] if bounds[0] > 0 else math.inf
        asserts.append(_check(f"gh_ratio_seed{s}", obs_ratio, ratio, obs_ratio < ratio))
    for j, t in enumerate(cfg.t_grid):
        vals = [ests[j].bound for ests in per_seed]
        spread = (max(vals) - min(vals)) / max(vals) if max(vals) > 0 else 0.0
        asserts.append(_at_most(f"gh_seed_spread_t{t:g}", spread,
                                DEFAULT_TOLERANCES["gh_seed_spread"]))
    return rows, asserts


def _exp_ricci_audit(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    rows, asserts = [], []
    stencil = curvature.StencilSpec(h=1e-3, order=4)
    pts = metricgeom.sample_domain(OMEGA, 64, cfg.seed, rho_depth=5.0)
    r = rho(pts)
    pts = [pts[i] for i in np.flatnonzero((-5.0 < r) & (r < -0.1))[:5]]
    for t in cfg.t_grid:
        samples = rng.uniform(-20.0, 0.0, size=min(cfg.n_samples, 2000))
        fd_rel = float(_usecond_fd_rel(ProfileParams(t), samples).max())
        mats = [
            float(np.abs(curvature.ricci_form(forms.calabi_family(t), p, stencil).m).max())
            for p in pts
        ]
        rows.append({"t": t, "usecond_fd_rel": fd_rel, "ricci_matrix_max": max(mats)})
        asserts.append(_at_most(f"usecond_fd_rel_t{t:g}", fd_rel,
                                DEFAULT_TOLERANCES["usecond_fd_rel"]))
        asserts.append(_at_most(f"ricci_matrix_t{t:g}", max(mats),
                                DEFAULT_TOLERANCES["ricci_matrix_max_entry"]))
    control_pt = ResolvedPoint(0.0, 0.5, 0.0)
    control = float(np.abs(curvature.ricci_form(forms.OMEGA_HAT, control_pt, stencil).m).max())
    asserts.append(_check("ricci_control_omega_hat", control,
                          DEFAULT_TOLERANCES["ricci_control_min_entry"],
                          control > DEFAULT_TOLERANCES["ricci_control_min_entry"]))
    return rows, asserts


def _loccom_min_eigs(pts: ResolvedPoint) -> tuple[float, float, float]:
    """Fibre sandwich over a stack of points: min lower and upper eigenvalue, max scaled trace."""
    restr = forms.restrict_to_fibre(forms.OMEGA_HAT, pts)
    e_r1 = np.exp(rho_1(pts))
    eye = np.eye(2)
    lower = np.linalg.eigvalsh(restr - eye)[:, 0]
    upper = np.linalg.eigvalsh((2.0 / e_r1)[:, None, None] * eye - restr)[:, 0]
    trace = np.trace(restr, axis1=1, axis2=2).real
    return float(lower.min()), float(upper.min()), float((e_r1 * trace).max())


_ESTIMATE_ROW_KEYS = ("t", "norm_V_rel", "sup_w_scaled", "sup_fibre_trace_scaled",
                      "c0", "c1", "delta", "omega_delta_diameter")


def _estimate_row(**values) -> dict:
    return {k: values.get(k) for k in _ESTIMATE_ROW_KEYS}


def _estimates_for_t(t: float, sub: ResolvedPoint) -> dict:
    """The estimate row of one t, without the small-neighbourhood columns.

    c0 and c1 are the extremes over ``sub`` of the spectrum of omega_t
    against CONIFOLD_FLAT, (t + u', u', u'') e^{-rho} (``forms``): c0 the
    smallest eigenvalue, c1 the largest times e^rho.
    """
    kind = forms.calabi_family(t)
    r = rho(sub)
    prof = eval_profiles(ProfileParams(t), r)
    nv = forms.vector_norm_sq(kind, forms.V, sub)
    nw = forms.vector_norm_sq(kind, forms.W, sub)
    trace_h = forms.fibrewise_trace_H(kind, sub)
    return _estimate_row(t=t,
                         norm_V_rel=float((np.abs(nv - prof.usecond) / prof.usecond).max()),
                         sup_w_scaled=float((np.exp(0.5 * r) * nw).max()),
                         sup_fibre_trace_scaled=float((np.exp(rho_1(sub)) * trace_h).max()),
                         c0=float((np.minimum(prof.uprime, prof.usecond) * np.exp(-r)).min()),
                         c1=float(np.maximum(t + prof.uprime, prof.usecond).max()))


#: The neighbourhoods Omega_delta of the exceptional curve that the estimates sweep measures.
_OMEGA_DELTAS = (0.05, 0.02, 0.01, 0.005)


def _sweep_ts(t_grid: tuple[float, ...]) -> tuple[float, ...]:
    """The estimates sweep's t: min(t_grid) / 1, / 10 and / 100 (not * 0.1, which rounds apart)."""
    return tuple(min(t_grid) / k for k in (1.0, 10.0, 100.0))


def _omega_delta_diameter(omega: metricgeom.CloudStructure, delta: float, t: float) -> float:
    """Sampled diameter of Omega_delta under the t-metric, on the Omega cloud dilated onto it.

    Adds the closed-form radial stub below the domain's sampling floor twice.
    """
    domain = DomainSpec(delta)
    graph = omega.dilate(domain).weigh(forms.calabi_family(t))
    return metricgeom.cloud_diameter(graph) + 2.0 * metricgeom.radial_stub(t, domain)


def _pointwise_estimates(cfg: ExperimentConfig):
    """Rows and asserts of every estimate but the Omega_delta sweep."""
    rows, asserts = [], []
    pts = metricgeom.sample_domain(OMEGA, cfg.n_samples, cfg.seed)

    # fibre comparison sandwich + fibrewise trace of the reference form
    lo_min, up_min, tr_max = _loccom_min_eigs(pts)
    tol = DEFAULT_TOLERANCES["sandwich_min_eigenvalue"]
    asserts.append(_check("fibre_sandwich_lower", lo_min, tol, lo_min >= tol))
    asserts.append(_check("fibre_sandwich_upper", up_min, tol, up_min >= tol))
    asserts.append(_at_most("fibre_trace_hat", tr_max, DEFAULT_TOLERANCES["trace_bound_hat"]))

    # norm identities, vertical collapse and tangential comparison, per t
    rel_tol = DEFAULT_TOLERANCES["norm_identity_rel"]
    sub = pts[: max(200, cfg.n_samples // 10)]
    e_rho = np.exp(rho(sub))
    nv = forms.vector_norm_sq(forms.OMEGA_HAT, forms.V, sub)
    worst_hat = float((np.abs(nv - e_rho) / e_rho).max())
    asserts.append(_at_most("norm_V_hat_rel", worst_hat, rel_tol))

    per_t = [_estimates_for_t(t, sub) for t in cfg.t_grid]
    for row in per_t:
        t = row["t"]
        rows.append(row)
        asserts.append(_at_most(f"norm_V_family_rel_t{t:g}", row["norm_V_rel"], rel_tol))
        asserts.append(_report_only(f"vertical_collapse_sup_t{t:g}", row["sup_w_scaled"]))
        asserts.append(_report_only(f"fibre_trace_sup_t{t:g}", row["sup_fibre_trace_scaled"]))
        asserts.append(_check(f"tangential_lower_t{t:g}", row["c0"], 0.0, row["c0"] > 0.0))
    for c in ("c0", "c1"):
        spread = max(r[c] for r in per_t) / min(r[c] for r in per_t)
        asserts.append(_at_most(f"tangential_{c}_stability", spread,
                                DEFAULT_TOLERANCES["sandwich_stability_factor"]))

    # radial path lengths: closed form at t = 0 and uniform boundedness
    closed = (1.5) ** (2.0 / 3.0)
    r0 = metricgeom.radial_length_from_rho(0.0, 0.0)
    asserts.append(_at_most("radial_closed_form", abs(r0 - closed),
                            DEFAULT_TOLERANCES["radial_closed_form_abs"]))
    worst = max(metricgeom.radial_length_from_rho(0.0, t) for t in cfg.t_grid)
    asserts.append(_at_most("radial_uniform_bound", worst,
                            r0 + DEFAULT_TOLERANCES["radial_uniform_slack"]))
    return rows, asserts


def _exp_estimates(cfg: ExperimentConfig):
    """The estimate sweep; its (delta, t) diameters run on ``metricgeom._fork_map``.

    The fibre dilation xi -> delta xi carries Omega onto Omega_delta, so one
    ``cloud_structure`` of Omega, built before the fork, serves every delta
    (``CloudStructure.dilate``).  Each item is one (delta, t) diameter,
    delta-major, and the items are measured while this process computes the
    pointwise estimates.  They are read in that order up to the first whose
    sampled diameter is below omega_delta_eps, which ends both the t loop
    and the delta loop of the serial sweep.  An item's error surfaces only
    when it is read, so the errors raised are the serial loop's.
    """
    eps = DEFAULT_TOLERANCES["omega_delta_eps"]
    items = [(delta, t) for delta in _OMEGA_DELTAS for t in _sweep_ts(cfg.t_grid)]
    omega = metricgeom.cloud_structure(OMEGA, max(300, cfg.n_samples // 4), cfg.graph_k, cfg.seed)
    found = None
    best_diam = math.inf
    with metricgeom._fork_map(lambda item: _omega_delta_diameter(omega, *item), items) as swept:
        rows, asserts = _pointwise_estimates(cfg)
        # shrinking small neighbourhoods: find (delta, t) with sampled diameter < eps
        for (delta, t), diam in zip(items, swept):
            rows.append(_estimate_row(t=t, delta=delta, omega_delta_diameter=diam))
            best_diam = min(best_diam, diam)
            if diam < eps:
                found = (delta, t, diam)
                break
    asserts.append(_check("omega_delta_shrinks", best_diam, eps, found is not None))
    if found:
        asserts.append(_report_only("omega_delta_delta", found[0]))
        asserts.append(_report_only("omega_delta_t", found[1]))
    return rows, asserts


_RUNNERS = {
    "estimates": _exp_estimates,
    "diam-scaling": _exp_diam_scaling,
    "gh-converge": _exp_gh_converge,
    "ricci-audit": _exp_ricci_audit,
    "profile-table": _exp_profile_table,
}
EXPERIMENTS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(k, "")) for k in header])
    return buf.getvalue()


def _io_error(exc: Exception) -> int:
    print(f"io error: {exc}", file=sys.stderr)
    return 2


def run(config: ExperimentConfig) -> int:
    """Open the output, execute the experiment, write the report, return the exit code.

    The output is opened first, so an unwritable path costs no experiment run.
    """
    try:
        fh = open(config.output_path, "w", encoding="utf-8")
    except OSError as exc:
        return _io_error(exc)
    with fh:
        rows, asserts = _RUNNERS[config.experiment](config)
        report = {
            "experiment": config.experiment,
            "config": asdict(config),
            "rows": rows,
            "asserts": asserts,
            "version": __version__,
        }
        try:
            if config.format == "json":
                fh.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
            else:
                fh.write(_rows_to_csv(rows))
            fh.flush()
        except (OSError, ValueError) as exc:
            return _io_error(exc)
    ok = all(a["pass"] for a in asserts)
    for a in asserts:
        status = "PASS" if a["pass"] else "FAIL"
        print(f"{status} {a['name']}: observed={_fmt(a['observed'])} bound={_fmt(a['bound'])}")
    print(f"{'OK' if ok else 'INVARIANT FAILURE'}: report written to {config.output_path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def _parse_t_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"bad t_grid {text!r}") from exc


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    t_grid = None if args.t_grid is None else _parse_t_grid(args.t_grid)
    given = {"t_grid": t_grid, "n_samples": args.n, "graph_k": args.k, "seed": args.seed,
             "output_path": args.out, "format": args.format}
    return ExperimentConfig(args.experiment, **{k: v for k, v in given.items() if v is not None})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conifold-lab",
        description="Verification experiments for the resolved-conifold metric family.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--t-grid", dest="t_grid", help="comma-separated decreasing t values")
    parser.add_argument("--n", type=int, help="sample count")
    parser.add_argument("--k", type=int, help="neighbour count for cloud graphs")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("csv", "json"))
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
