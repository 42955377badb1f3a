"""CLI runner: fits, reports, determinism, exit codes."""

import json

import pytest

from conifold_lab import __version__, metricgeom
from conifold_lab.cli import ExperimentConfig, fit_power_law, main, run
from conifold_lab.errors import ConfigError, NonPositiveData


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

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONIFOLD_LAB_THREADS", "2")
        out = tmp_path / "r.json"
        code = main(
            ["profile-table", "--t-grid", "1,0.5", "--n", "12", "--out", str(out)]
        )
        assert code == 0
        monkeypatch.setenv("CONIFOLD_LAB_THREADS", "zebra")
        assert main(
            ["gh-converge", "--t-grid", "1,0.5", "--n", "60", "--out", str(out)]
        ) == 2
        with pytest.raises(ConfigError):
            metricgeom.gh_upper_bounds([1.0], n=60, seed=0, graph_k=6)

        def no_process(*args, **kwargs):
            raise AssertionError("a cap below 1 must run serially")

        # two chunks, yet a cap of 0 reads as 1: no process is started
        monkeypatch.setenv("CONIFOLD_LAB_THREADS", "0")
        monkeypatch.setattr(metricgeom.multiprocessing, "get_context", no_process)
        assert len(metricgeom.gh_upper_bounds([1.0], n=300, seed=0, graph_k=6)) == 1


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
