import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from seqgeo import cli, harness

from conftest import bundled_config


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tiny_config(tmp_path, model="vmf", reps=20, name="tiny.conf"):
    cfg = bundled_config(
        model,
        outdir=str(tmp_path / "out"),
        replications=reps,
        grid_n=(40, 80),
        grid_k=(20.0, 30.0) if model == "vmf" else (4.0, 6.0),
    )
    path = tmp_path / name
    path.write_text("\n".join(cfg.echo_lines()) + "\n")
    return path, cfg


class TestGeometryCommand:
    def test_vmf_verdict(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--model", "vmf", "--m", "2", "--r", "0.25", "--grid-density", "6"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "conformally m(e)-flat" in out
        assert "dual quadric" in out
        assert "GEOMETRY PASS" in out

    def test_hyperboloid_negative_curvature(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--model", "hyperboloid", "--m", "2", "--r", "0.1",
             "--grid-density", "6"],
            capsys,
        )
        assert code == cli.EXIT_OK
        assert "lambda = -0.909" in out

    def test_vmf_m3_w4(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--model", "vmf", "--m", "3", "--r", "1.0", "--grid-density", "5"],
            capsys,
        )
        assert code == cli.EXIT_OK

    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--model", "vmf", "--m", "2", "--r", "0.25",
             "--grid-density", "5", "--json"],
            capsys,
        )
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["classification"]["dual_quadric"] is True
        assert rep["classification"]["k0"] == pytest.approx(4.0, rel=1e-8)

    def test_tolerance_failure_exit_two(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--model", "vmf", "--m", "2", "--r", "0.25",
             "--grid-density", "5", "--tol", "1e-30"],
            capsys,
        )
        assert code == cli.EXIT_TOLERANCE
        assert "GEOMETRY FAIL" in out

    def test_usage_error(self, capsys):
        assert cli.main(["geometry", "--model", "watson", "--r", "1.0"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("model", ["vmf", "hyperboloid"])
    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_concentration_exit_one(self, model, r, capsys):
        code, _, err = run_cli(["geometry", "--model", model, "--r", r], capsys)
        assert code == cli.EXIT_USAGE
        assert "concentration r" in err

    @pytest.mark.parametrize("density", ["0", "1"])
    def test_grid_density_below_two_exit_one(self, density, capsys):
        code, _, err = run_cli(
            ["geometry", "--model", "vmf", "--r", "0.25", "--grid-density", density], capsys
        )
        assert code == cli.EXIT_USAGE
        assert "grid density must be at least 2" in err


class TestSimulateCommand:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        path, cfg = write_tiny_config(tmp_path, reps=12)
        code, out, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == cli.EXIT_OK
        outdir = Path(cfg.outdir)
        assert (outdir / "nonsequential.csv").exists()
        assert (outdir / "sequential.csv").exists()
        assert (outdir / "run.manifest").exists()
        first = (outdir / "sequential.csv").read_bytes()
        code, _, _ = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == cli.EXIT_OK
        assert (outdir / "sequential.csv").read_bytes() == first

    def test_config_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("model = vmf\nnonsense\n")
        code, _, err = run_cli(["simulate", "--config", str(bad)], capsys)
        assert code == cli.EXIT_USAGE
        assert "bad.conf:2" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run_cli(["simulate", "--config", "/does/not/exist.conf"], capsys)
        assert code == cli.EXIT_USAGE

    def test_exclusion_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        from seqgeo.errors import RunawayStopError

        path, _ = write_tiny_config(tmp_path, reps=8)

        def explode(config, model=None):
            raise RunawayStopError("cell nonseq:40: 2/8 replications excluded")

        monkeypatch.setattr(harness, "run_nonsequential", explode)
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == cli.EXIT_EXCLUSION
        assert "excluded" in err


def write_top_cell_config(tmp_path, reps, name):
    # real top-of-grid cells: the references are meaningful, only the
    # replication count is tiny
    base = bundled_config("vmf")
    cfg = dataclasses.replace(base, outdir=str(tmp_path / "out"), replications=reps,
                              grid_n=base.grid_n[-2:], grid_k=base.grid_k[-2:])
    path = tmp_path / name
    path.write_text("\n".join(cfg.echo_lines()) + "\n")
    return path, cfg


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("tiny")
    path, cfg = write_tiny_config(tmp_path, reps=8)
    assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
    return Path(cfg.outdir)


class TestReportCommand:
    def test_tiny_replication_run_is_inconclusive_but_passes(self, tmp_path, capsys):
        path, cfg = write_top_cell_config(tmp_path, reps=8, name="r.conf")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        code, out, _ = run_cli(["report", "--results", cfg.outdir], capsys)
        assert code == cli.EXIT_OK
        assert "inconclusive" in out

    def test_truncated_csv_names_schema(self, tmp_path, capsys):
        path, cfg = write_tiny_config(tmp_path, reps=8, name="r2.conf")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        csv = Path(cfg.outdir) / "sequential.csv"
        lines = csv.read_text().splitlines()
        header = lines[0].split(",")
        csv.write_text("\n".join([",".join(header[:-1])] + [l.rsplit(",", 1)[0] for l in lines[1:]]) + "\n")
        code, _, err = run_cli(["report", "--results", cfg.outdir], capsys)
        assert code == cli.EXIT_USAGE
        assert "excluded" in err

    def test_non_numeric_field_exit_one(self, tmp_path, capsys):
        path, cfg = write_tiny_config(tmp_path, reps=8, name="r3.conf")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_OK
        capsys.readouterr()
        csv = Path(cfg.outdir) / "nonsequential.csv"
        lines = csv.read_text().splitlines()
        lines[1] = "abc," + lines[1].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["report", "--results", cfg.outdir], capsys)
        assert code == cli.EXIT_USAGE
        assert "abc" in err

    @pytest.mark.parametrize(
        "key, value",
        [("m", "abc"), ("r", "abc"), ("u0", "abc"), ("replications", "abc"), ("u0", "0.0, 1.0")],
    )
    def test_bad_manifest_field_exit_one(self, key, value, tiny_results, tmp_path, capsys):
        outdir = tmp_path / "results"
        shutil.copytree(tiny_results, outdir)
        manifest = outdir / "run.manifest"
        lines = manifest.read_text().splitlines()
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["report", "--results", str(outdir)], capsys)
        assert code == cli.EXIT_USAGE
        assert "schema error" in err

    def test_missing_directory(self, capsys):
        code, _, err = run_cli(["report", "--results", "/nope"], capsys)
        assert code == cli.EXIT_USAGE
