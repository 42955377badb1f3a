"""CLI runner: reports, determinism, exit codes."""

import ast
import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conifold_lab
from conifold_lab import __version__, cli, forms, metricgeom
from conifold_lab.chart import OMEGA, rho
from conifold_lab.cli import ExperimentConfig, main, run
from conifold_lab.errors import ConfigError, DegenerateMetric


class TestStartUp:
    """Imports in a fresh interpreter, since this one has loaded everything already."""

    @staticmethod
    def child_stdout(code: str) -> str:
        env = {**os.environ, "PYTHONPATH": str(Path(conifold_lab.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    def test_import_loads_no_scipy_stats_or_integrate(self):
        out = self.child_stdout("import sys, conifold_lab.cli; print(sorted(m for m in sys.modules "
                                "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
        assert out.strip() == "[]"

    def test_package_import_loads_no_module_and_exposes_version(self):
        out = self.child_stdout("import sys, conifold_lab; print(conifold_lab.__version__, sorted(m for m "
                                "in sys.modules if m.startswith('conifold_lab.') or m.split('.')[0] == 'scipy'))")
        assert out.split() == [__version__, "[]"]

    def test_numpy_only_modules_load_no_scipy(self):
        # the line along which metricgeom would split into numpy-only and graph code
        out = self.child_stdout("import sys, conifold_lab.chart, conifold_lab.profile, conifold_lab.forms, "
                                "conifold_lab.curvature; print(sorted(m for m in sys.modules "
                                "if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", t_grid=())
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", t_grid=(0.1, 1.0))
        for grid in ((1.5, 0.5), (1.0, 0.0), (0.5, -0.1), (float("nan"),)):
            with pytest.raises(ConfigError, match=r"t_grid entries must lie in \(0, 1\]"):
                ExperimentConfig(experiment="estimates", t_grid=grid)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", n_samples=3)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", format="xml")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ExperimentConfig(experiment="estimates", seed=-1)
        # one t would compare each bound with itself
        with pytest.raises(ConfigError, match="at least two"):
            ExperimentConfig(experiment="gh-converge", t_grid=(0.5,))
        ExperimentConfig(experiment="gh-converge", t_grid=(1.0, 0.5), seed=0)
        ExperimentConfig(experiment="diam-scaling", t_grid=(0.5,))  # it fits nothing


def tolerance_reads(source: str) -> set[str]:
    """The keys that ``source`` reads as ``DEFAULT_TOLERANCES["key"]``."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "DEFAULT_TOLERANCES" and isinstance(node.slice, ast.Constant)}


def test_every_tolerance_is_read():
    # a key that no check reads bounds nothing; the unread-name guard sees names, not keys
    assert tolerance_reads(Path(cli.__file__).read_text()) == set(cli.DEFAULT_TOLERANCES)
    source = 'T = DEFAULT_TOLERANCES["a"] + OTHER["b"] + DEFAULT_TOLERANCES[k]'
    assert tolerance_reads(source) == {"a"}


class TestProfileTable:
    def test_csv_columns_and_residuals(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        cfg = ExperimentConfig(
            experiment="profile-table",
            t_grid=(1.0, 0.1, 0.01),
            n_samples=25,
            output_path=str(out),
            format="csv",
        )
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,rho,uprime,usecond,cubic_residual,usecond_fd_rel"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[4]) <= 1e-9
            assert float(cells[5]) <= 1e-7

    def test_fd_check_catches_a_wrong_usecond(self, tmp_path, monkeypatch):
        # u'' off by 1e-6 relative, u' exact: only the derivative check can see it
        real = cli.eval_profiles

        def skewed(params, rho_values):
            prof = real(params, rho_values)
            prof.usecond = prof.usecond * (1.0 + 1e-6)
            return prof

        monkeypatch.setattr(cli, "eval_profiles", skewed)
        out = tmp_path / "table.json"
        assert main(["profile-table", "--n", "25", "--out", str(out)]) == 1
        failed = [a["name"] for a in json.loads(out.read_text())["asserts"] if not a["pass"]]
        assert failed == ["usecond_fd_rel_max"]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cfg = ExperimentConfig(
                experiment="profile-table",
                t_grid=(1.0, 0.5),
                n_samples=12,
                seed=123,
                output_path=str(out),
                format="csv",
            )
            assert run(cfg) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def csv_cell(value):
    """The CSV text of one JSON row value: 17 significant digits, empty for None."""
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


class TestCsvMirrorsJson:
    @pytest.mark.parametrize("argv", [
        # rows of the Omega_delta sweep leave the pointwise columns None
        ["estimates", "--n", "400", "--seed", "3"],
        # rows hold the seed as an int
        ["gh-converge", "--n", "120", "--k", "6", "--t-grid", "1,0.1", "--seed", "2"],
    ], ids=["estimates", "gh-converge"])
    def test_every_cell(self, tmp_path, capsys, argv):
        json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        codes = [main([*argv, "--out", str(json_out)]),
                 main([*argv, "--format", "csv", "--out", str(csv_out)])]
        assert codes[0] == codes[1]
        rows = json.loads(json_out.read_text())["rows"]
        with open(csv_out, newline="", encoding="utf-8") as fh:
            header, *cells = list(csv.reader(fh))
        assert header == list(rows[0])
        assert cells == [[csv_cell(row[k]) for k in header] for row in rows]
        # both runs reach a cell that is not a float
        kinds = {type(v) for row in rows for v in row.values()}
        assert kinds == ({float, type(None)} if argv[0] == "estimates" else {float, int})


class TestDiamScaling:
    @pytest.mark.parametrize("grid", [(0.5,), (1.0, 0.01), (0.1,)])
    def test_rows_keep_the_grid(self, tmp_path, grid):
        # one closed-form row per t of the grid, however short, and no asserts
        out = tmp_path / "diam.json"
        assert run(ExperimentConfig(experiment="diam-scaling", t_grid=grid,
                                    output_path=str(out))) == 0
        report = json.loads(out.read_text())
        assert report["rows"] == [
            {"t": t, "diameter": metricgeom.zero_section_diameter(t),
             "diam_t13": metricgeom.zero_section_diameter(t) * t ** (-1.0 / 3.0)}
            for t in grid
        ]
        assert report["asserts"] == []

    def test_json_contents(self, tmp_path):
        out = tmp_path / "diam.json"
        cfg = ExperimentConfig(
            experiment="diam-scaling",
            t_grid=(1.0, 0.1, 0.01, 0.001),
            output_path=str(out),
        )
        assert run(cfg) == 0
        report = json.loads(out.read_text())
        assert report["experiment"] == "diam-scaling"
        assert report["version"] == __version__
        assert report["asserts"] == []


#: The report-only entries of ``estimates`` at the default t grid: each
#: ``asserts`` entry of these names has its observed value as its bound.
REPORT_ONLY = {
    "vertical_collapse_sup_t1", "vertical_collapse_sup_t0.1", "vertical_collapse_sup_t0.01",
    "fibre_trace_sup_t1", "fibre_trace_sup_t0.1", "fibre_trace_sup_t0.01",
    "omega_delta_delta", "omega_delta_t",
}


def assert_no_self_bounds(reports: dict[str, list[dict]]) -> None:
    """Fail on an ``asserts`` entry whose bound equals its observed value bit for bit.

    Only ``estimates`` may hold such entries, and exactly those of ``REPORT_ONLY``.
    """
    found = {experiment: {a["name"] for a in asserts
                          if float(a["bound"]).hex() == float(a["observed"]).hex()}
             for experiment, asserts in reports.items()}
    assert found == {experiment: REPORT_ONLY if experiment == "estimates" else set()
                     for experiment in reports}


class TestNoSelfBounds:
    """A check whose bound is its own observed value asserts nothing."""

    ARGVS = {
        "profile-table": ["--n", "12"],
        "diam-scaling": [],
        "ricci-audit": ["--n", "50"],
        "gh-converge": ["--n", "120", "--k", "6", "--t-grid", "1,0.1", "--seed", "2"],
        # at n = 400 and seed 3 the sweep finds its (delta, t) at delta = 0.02
        "estimates": ["--n", "400", "--seed", "3"],
    }

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reports") / "r.json"
        reports = {}
        for experiment, argv in self.ARGVS.items():
            main([experiment, *argv, "--out", str(out)])
            reports[experiment] = json.loads(out.read_text())["asserts"]
        return reports

    def test_every_experiment(self, reports):
        assert set(reports) == set(cli.EXPERIMENTS)
        assert_no_self_bounds(reports)

    @staticmethod
    def planted(reports, experiment, entry=None, drop=None):
        out = {exp: [a for a in asserts if a["name"] != drop] for exp, asserts in reports.items()}
        out[experiment] += [entry] if entry else []
        return out

    @pytest.mark.parametrize("experiment, entry, drop", [
        ("profile-table", cli._at_most("planted", 1e-3, 1e-3), None),  # a new identity
        ("estimates", cli._report_only("planted", 0.25), None),  # a ninth name
        ("estimates", None, "omega_delta_t"),  # a stale exemption
    ], ids=["new-check", "ninth-name", "stale-exemption"])
    def test_guard_fails_on_a_planted_entry(self, reports, experiment, entry, drop):
        assert_no_self_bounds(reports)
        with pytest.raises(AssertionError):
            assert_no_self_bounds(self.planted(reports, experiment, entry, drop))

    def test_guard_compares_bits(self, reports):
        # a bound one ulp above its observed value is a real check
        entry = cli._at_most("planted", 1e-3, math.nextafter(1e-3, 1.0))
        assert_no_self_bounds(self.planted(reports, "profile-table", entry))


class TestExitCodes:
    def test_zero_tolerance_fails_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.DEFAULT_TOLERANCES, "cubic_residual", 0.0)
        out = tmp_path / "t.json"
        cfg = ExperimentConfig(
            experiment="profile-table",
            t_grid=(1.0, 0.5),
            n_samples=12,
            output_path=str(out),
        )
        assert run(cfg) == 1

    def test_config_error_is_2(self, capsys):
        assert main(["estimates", "--t-grid", "0.1,1.0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["ricci-audit", "--seed", "-1"],
        ["estimates", "--seed", "-1"],
        ["gh-converge", "--n", "60", "--k", "6", "--t-grid", "0.5"],
    ])
    def test_bad_config_runs_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_2(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="profile-table",
            t_grid=(1.0, 0.5),
            n_samples=12,
            output_path=str(tmp_path / "no" / "such" / "dir" / "x.json"),
        )
        assert run(cfg) == 2

    def test_failed_report_write_is_2(self, tmp_path, capsys, monkeypatch):
        # JSON has no NaN: the report write fails after the run, as an I/O error
        def nan_report(cfg):
            return [{"t": 1.0, "value": math.nan}], [cli._report_only("value", math.nan)]

        monkeypatch.setitem(cli._RUNNERS, "profile-table", nan_report)
        out = tmp_path / "r.json"
        assert main(["profile-table", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "io error: Out of range float values are not JSON compliant" in captured.err
        assert captured.out == ""  # no verdict printed
        assert out.read_text() == ""

    def test_unwritable_output_runs_nothing(self, tmp_path, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("the experiment ran before its output was opened")

        monkeypatch.setitem(cli._RUNNERS, "estimates", never)
        assert main(["estimates", "--out", str(tmp_path / "no" / "such" / "dir" / "r.json")]) == 2
        assert "io error" in capsys.readouterr().err


class TestMain:
    def test_missing_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_gh_converge_at_width_one(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        argv = ["gh-converge", "--t-grid", "1,0.5", "--n", "300", "--out", str(out)]
        code = main(argv)
        pooled = out.read_bytes()

        def no_process(*args, **kwargs):
            raise AssertionError("width 1 started a process")

        # two chunks per seed, yet at width 1 every chunk runs in this process
        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 1)
        monkeypatch.setattr(metricgeom.multiprocessing, "get_context", no_process)
        assert main(argv) == code
        assert out.read_bytes() == pooled


class TestFlags:
    """Each flag gives the report of the ExperimentConfig field that it sets."""

    # (the flags, the ExperimentConfig fields they set)
    CASES = [
        (["--t-grid", "1,0.5,0.25"], {"t_grid": (1.0, 0.5, 0.25)}),
        (["--n", "12"], {"n_samples": 12}),
        (["--k", "5"], {"graph_k": 5}),
        (["--seed", "7"], {"seed": 7}),
        (["--out", "other.out"], {"output_path": "other.out"}),
        (["--format", "csv"], {"format": "csv"}),
    ]

    @pytest.mark.parametrize("flags, fields", CASES,
                             ids=["t_grid", "n", "k", "seed", "out", "format"])
    def test_same_report_bytes(self, tmp_path, monkeypatch, capsys, flags, fields):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / fields.get("output_path", "report.json")
        results = []
        for go in (lambda: main(["profile-table", *flags]),
                   lambda: run(ExperimentConfig("profile-table", **fields))):
            assert go() == 0
            results.append((out.read_bytes(), capsys.readouterr().out))
            out.unlink()
        assert results[0] == results[1]

    @pytest.mark.parametrize("flags", [
        ["--t-grid", "0.5,1"],
        ["--t-grid", "1,x"],
        ["--n", "5"],
        ["--k", "3"],
        # an empty flag is a value, not an absent flag: the default grid must not run
        ["--t-grid", ""],
    ], ids=" ".join)
    def test_bad_value_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "r.json"
        assert main(["profile-table", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "five"], ["--k", "five"], ["--seed", "five"],
                                       ["--format", "xml"]], ids=" ".join)
    def test_bad_text_is_usage_error(self, tmp_path, capsys, flags):
        # argparse's own type and choices checks reject these before a config is built
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["profile-table", *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestEstimatesGreen:
    def test_estimates_passes_with_defaults(self, tmp_path):
        out = tmp_path / "est.json"
        cfg = ExperimentConfig(
            experiment="estimates",
            t_grid=(1.0, 0.1, 0.01),
            n_samples=800,
            graph_k=10,
            output_path=str(out),
        )
        assert run(cfg) == 0
        report = json.loads(out.read_text())
        names = [a["name"] for a in report["asserts"]]
        assert "fibre_sandwich_lower" in names
        assert "omega_delta_shrinks" in names
        assert all(a["pass"] for a in report["asserts"])


class TestEstimatesSweep:
    """The Omega_delta clouds run on forked workers; the report is the serial loop's."""

    # at n = 400 the sweep stops at delta = 0.02, so 0.01 and 0.005 are never read
    ARGV = ["estimates", "--n", "400", "--seed", "3"]

    def test_width_one_equals_pooled(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        argv = [*self.ARGV, "--out", str(out)]
        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 2)
        assert main(argv) == 0
        pooled = out.read_bytes(), capsys.readouterr().out

        def no_process(*args, **kwargs):
            raise AssertionError("width 1 started a process")

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 1)
        monkeypatch.setattr(metricgeom.multiprocessing, "get_context", no_process)
        assert main(argv) == 0
        assert (out.read_bytes(), capsys.readouterr().out) == pooled
        assert json.loads(pooled[0])["asserts"][-2]["observed"] == 0.02  # omega_delta_delta

    @pytest.mark.parametrize("seed, weighings", [(42, 8), (57, 5)])
    def test_weighs_only_the_t_it_reads(self, tmp_path, monkeypatch, seed, weighings):
        # seed 42 stops at (0.01, 1e-3), seed 57 at (0.02, 1e-3): the t after
        # the stop are never weighed (building whole deltas took 9 and 6)
        calls = []
        real = metricgeom._edge_weights

        def counting(kind, frame):
            calls.append(kind.t)
            return real(kind, frame)

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 1)
        monkeypatch.setattr(metricgeom, "_edge_weights", counting)
        assert main(["estimates", "--seed", str(seed), "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == weighings

    def test_no_child_outlives_main(self, tmp_path, monkeypatch):
        # four deltas on four workers: the two the sweep never reads are killed
        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 4)
        assert main([*self.ARGV, "--out", str(tmp_path / "r.json")]) == 0
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad, raises", [(0.005, False), (0.01, False), (0.05, True)])
    def test_worker_error_only_where_read(self, tmp_path, monkeypatch, bad, raises):
        real = cli._omega_delta_diameters

        def failing(cfg, delta):
            if delta == bad:
                raise DegenerateMetric(f"injected at delta = {delta}")
            return real(cfg, delta)

        def hung(signum, frame):
            # not a TimeoutError: Process.join takes any OSError for "still running"
            raise AssertionError("estimates did not return")

        monkeypatch.setattr(metricgeom, "_max_workers", lambda: 2)
        monkeypatch.setattr(cli, "_omega_delta_diameters", failing)
        argv = [*self.ARGV, "--out", str(tmp_path / "r.json")]
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            if raises:
                with pytest.raises(DegenerateMetric, match="injected"):
                    main(argv)
            else:
                assert main(argv) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []


def test_tangential_constants_equal_pencil_extremes(tmp_path):
    """c0, c1 in closed form equal the sample extremes of the generalized eigenproblem."""
    out = tmp_path / "r.json"
    assert main([*TestEstimatesSweep.ARGV, "--out", str(out)]) == 0
    rows = [r for r in json.loads(out.read_text())["rows"] if r["delta"] is None]
    # the oracle: the same sample and sub-sample as the estimates, through compare_forms
    sub = metricgeom.sample_domain(OMEGA, 400, 3)[:200]
    flat = forms.eval_form(forms.CONIFOLD_FLAT, sub)
    assert [r["t"] for r in rows] == [1.0, 0.1, 0.01]
    for row in rows:
        lmin, lmax = forms.compare_forms(forms.eval_form(forms.calabi_family(row["t"]), sub), flat)
        assert row["c0"] == pytest.approx(lmin.min(), rel=1e-14, abs=0)
        assert row["c1"] == pytest.approx((lmax * np.exp(rho(sub))).max(), rel=1e-14, abs=0)


class TestRicciAuditSmall:
    def test_small_run(self, tmp_path):
        out = tmp_path / "ricci.json"
        cfg = ExperimentConfig(
            experiment="ricci-audit",
            t_grid=(1.0, 0.1),
            n_samples=200,
            output_path=str(out),
        )
        assert run(cfg) == 0
        report = json.loads(out.read_text())
        names = [a["name"] for a in report["asserts"]]
        assert "ricci_control_omega_hat" in names


class TestGhConvergeSmall:
    def test_small_run(self, tmp_path):
        out = tmp_path / "gh.json"
        cfg = ExperimentConfig(
            experiment="gh-converge",
            t_grid=(1.0, 0.1, 0.01),
            n_samples=250,
            graph_k=8,
            seed=1,
            output_path=str(out),
        )
        code = run(cfg)
        report = json.loads(out.read_text())
        assert code in (0, 1)
        assert len(report["rows"]) == 15
        # bounds must decrease strongly even at this small n
        by_seed = {}
        for row in report["rows"]:
            by_seed.setdefault(row["seed"], []).append(row["bound"])
        for bounds in by_seed.values():
            assert bounds[-1] < bounds[0]
