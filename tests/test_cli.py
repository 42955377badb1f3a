"""CLI runner: fits, reports, determinism, exit codes."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import conifold_lab
from conifold_lab import __version__, cli, metricgeom
from conifold_lab.cli import ExperimentConfig, fit_power_law, main, run
from conifold_lab.errors import ConfigError, DegenerateMetric, NonPositiveData


class TestFitPowerLaw:
    def test_exact_sqrt_law(self):
        pairs = [(t, 7.0 * t**0.5) for t in (1.0, 0.5, 0.1, 0.01)]
        exponent, amplitude, r_sq = fit_power_law(pairs)
        assert abs(exponent - 0.5) <= 1e-10
        assert abs(amplitude - 7.0) <= 1e-9
        assert abs(r_sq - 1.0) <= 1e-12

    def test_constant_data(self):
        pairs = [(t, 3.25) for t in (1.0, 0.1, 0.01)]
        exponent, amplitude, r_sq = fit_power_law(pairs)
        assert abs(exponent) <= 1e-10
        assert abs(amplitude - 3.25) <= 1e-9
        assert r_sq == 1.0

    def test_rejects_bad_data(self):
        with pytest.raises(NonPositiveData):
            fit_power_law([(1.0, 1.0), (0.5, 2.0)])
        with pytest.raises(NonPositiveData):
            fit_power_law([(1.0, 1.0), (0.5, -2.0), (0.1, 1.0)])
        with pytest.raises(NonPositiveData):
            fit_power_law([(0.0, 1.0), (0.5, 2.0), (0.1, 1.0)])


class TestStartUp:
    def test_import_loads_no_scipy_stats_or_integrate(self):
        # a fresh interpreter, since this one has both loaded already
        code = ("import sys, conifold_lab.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
        env = {**os.environ, "PYTHONPATH": str(Path(conifold_lab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", t_grid=())
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", t_grid=(0.1, 1.0))
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", n_samples=3)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", format="xml")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="estimates", tolerances={"no_such": 1.0})


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
        assert lines[0] == "t,rho,uprime,usecond,cubic_residual,ricci_potential_residual"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[4]) <= 1e-9
            assert float(cells[5]) <= 1e-9

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


class TestDiamScaling:
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
        byname = {a["name"]: a for a in report["asserts"]}
        assert abs(byname["diam_exponent"]["observed"] - 0.5) <= 0.01
        assert "diam_t13_constant" in byname
        assert all(a["pass"] for a in report["asserts"])


class TestExitCodes:
    def test_zero_tolerance_fails_cleanly(self, tmp_path):
        out = tmp_path / "t.json"
        cfg = ExperimentConfig(
            experiment="profile-table",
            t_grid=(1.0, 0.5),
            n_samples=12,
            tolerances={"cubic_residual": 0.0},
            output_path=str(out),
        )
        assert run(cfg) == 1

    def test_config_error_is_2(self, capsys):
        assert main(["estimates", "--t-grid", "0.1,1.0"]) == 2
        assert main(["profile-table", "--format", "json", "--tol", "bogus"]) == 2
        # no experiment ever read this tolerance, so it is not a name
        assert main(["profile-table", "--tol", "area_linearity_rel=1e-8"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_nonfinite_tolerance_is_config_error(self, tmp_path, capsys, source, value):
        out = tmp_path / "r.json"
        args = ["profile-table", "--n", "10", "--out", str(out)]
        if source == "flag":
            args += ["--tol", f"cubic_residual={value}"]
        else:
            conf = tmp_path / "lab.conf"
            conf.write_text(f"tol_cubic_residual = {value}\n")
            args += ["--config", str(conf)]
        assert main(args) == 2
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

    def test_unwritable_output_runs_nothing(self, tmp_path, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("the experiment ran before its output was opened")

        monkeypatch.setitem(cli._RUNNERS, "estimates", never)
        assert main(["estimates", "--out", str(tmp_path / "no" / "such" / "dir" / "r.json")]) == 2
        assert "io error" in capsys.readouterr().err


class TestMainAndConfigFile:
    def test_cli_overrides_file(self, tmp_path, capsys):
        conf = tmp_path / "lab.conf"
        conf.write_text(
            "experiment = profile-table\n"
            "t_grid = 1,0.5\n"
            "n = 12\n"
            "seed = 5\n"
            f"out = {tmp_path/'file_out.csv'}\n"
            "format = csv\n"
            "# comment line\n"
            "tol_cubic_residual = 1e-9\n"
        )
        cli_out = tmp_path / "cli_out.csv"
        code = main(["--config", str(conf), "--out", str(cli_out)])
        assert code == 0
        assert cli_out.exists()
        assert not (tmp_path / "file_out.csv").exists()

    def test_experiment_from_file(self, tmp_path):
        conf = tmp_path / "lab.conf"
        conf.write_text(f"experiment = profile-table\nn = 12\nout = {tmp_path/'r.json'}\n")
        assert main(["--config", str(conf)]) == 0

    def test_missing_experiment(self):
        assert main([]) == 2

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


class TestFlagsMatchFile:
    """Every config-file key gives the report that its flag gives."""

    # (config-file line, the same setting as flags, the ExperimentConfig fields it sets)
    CASES = [
        ("t_grid = 1,0.5,0.25", ["--t-grid", "1,0.5,0.25"], {"t_grid": (1.0, 0.5, 0.25)}),
        ("n = 12", ["--n", "12"], {"n_samples": 12}),
        ("k = 5", ["--k", "5"], {"graph_k": 5}),
        ("seed = 7", ["--seed", "7"], {"seed": 7}),
        ("out = {out}", ["--out", "{out}"], {}),
        ("format = csv", ["--format", "csv"], {"format": "csv"}),
        ("tol_cubic_residual = 1e-7", ["--tol", "cubic_residual=1e-7"],
         {"tolerances": {"cubic_residual": 1e-7}}),
    ]

    @pytest.mark.parametrize("line, flags, fields", CASES, ids=[c[0].split()[0] for c in CASES])
    def test_same_report_bytes(self, tmp_path, capsys, line, flags, fields):
        out = tmp_path / "r.out"
        conf = tmp_path / "lab.conf"
        conf.write_text(line.format(out=out) + "\n")
        out_flag = [] if line.startswith("out") else ["--out", str(out)]
        results = []
        for argv in ([f.format(out=out) for f in flags], ["--config", str(conf)]):
            assert main(["profile-table", *argv, *out_flag]) == 0
            results.append((out.read_bytes(), capsys.readouterr().out))
        # the direct config pins which field the key sets
        assert run(ExperimentConfig("profile-table", output_path=str(out), **fields)) == 0
        results.append((out.read_bytes(), capsys.readouterr().out))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("line, flags", [
        ("t_grid = 0.5,1", ["--t-grid", "0.5,1"]),
        ("t_grid = 1,x", ["--t-grid", "1,x"]),
        ("n = 5", ["--n", "5"]),
        ("k = 3", ["--k", "3"]),
        ("tol_cubic_residual = abc", ["--tol", "cubic_residual=abc"]),
        ("tol_no_such_name = 1", ["--tol", "no_such_name=1"]),
        # an empty flag is a value, not an absent flag: the default grid must not run
        ("t_grid =", ["--t-grid", ""]),
    ])
    def test_bad_value_from_either_source(self, tmp_path, capsys, line, flags):
        out = tmp_path / "r.json"
        conf = tmp_path / "lab.conf"
        conf.write_text(line + "\n")
        for argv in (flags, ["--config", str(conf)]):
            assert main(["profile-table", *argv, "--out", str(out)]) == 2
            assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_config_path(self, tmp_path, capsys):
        # an empty path is a file that cannot be read, not an absent flag
        out = tmp_path / "r.json"
        assert main(["profile-table", "--config", "", "--out", str(out)]) == 2
        assert "config error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["n = five", "k = five", "seed = five", "format = xml"])
    def test_bad_file_text(self, tmp_path, capsys, line):
        # as flags, argparse's own type and choices checks reject these
        conf = tmp_path / "lab.conf"
        conf.write_text(line + "\n")
        assert main(["profile-table", "--config", str(conf), "--out", str(tmp_path / "r")]) == 2
        assert "config error" in capsys.readouterr().err


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
            raise TimeoutError("estimates did not return")

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
