import dataclasses
import math

import numpy as np
import pytest

from seqgeo import harness
from seqgeo.errors import ParameterError, RunawayStopError
from seqgeo.harness import (
    parse_config,
    rep_seed,
    run_experiment,
    run_nonsequential,
    run_sequential,
    write_results,
)

from conftest import BUNDLED_CONFIGS as BUNDLED, bundled_config


def tiny_config(outdir, model="vmf", reps=20):
    return bundled_config(
        model,
        outdir=str(outdir),
        replications=reps,
        grid_n=(40, 80),
        grid_k=(20.0, 30.0) if model == "vmf" else (4.0, 6.0),
    )


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        cfg = bundled_config("hyperboloid", outdir="x")
        path = tmp_path / "h.conf"
        path.write_text("\n".join(cfg.echo_lines()) + "\n")
        back = parse_config(path)
        assert back.echo_lines() == cfg.echo_lines()

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("model = vmf\nbogus = 1\n")
        with pytest.raises(ParameterError, match="bad.conf:2"):
            parse_config(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("model = vmf\n")
        with pytest.raises(ParameterError, match="missing"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        cfg = bundled_config("vmf", outdir="x")
        lines = [l if not l.startswith("u0") else "u0 = a, b" for l in cfg.echo_lines()]
        path = tmp_path / "bad.conf"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError):
            parse_config(path)

    def test_validation(self):
        cfg = bundled_config("vmf")
        with pytest.raises(ParameterError, match="unknown model"):
            dataclasses.replace(cfg, model="watson")
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg, replications=1)
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg, grid_n=())
        with pytest.raises(ParameterError, match="u0"):
            dataclasses.replace(cfg, u0=np.array([0.5, 1.0, 1.5]))
        with pytest.raises(ParameterError, match="grid_N"):
            dataclasses.replace(cfg, grid_n=(100, 0, 200))
        with pytest.raises(ParameterError, match="grid_K"):
            dataclasses.replace(cfg, grid_k=(194.0, -1.0))
        with pytest.raises(ParameterError, match="grid_K"):
            dataclasses.replace(cfg, grid_k=(0.0,))
        with pytest.raises(ParameterError, match="u0"):
            dataclasses.replace(cfg, u0=np.array([4.0, 1.0]))  # outside the chart
        with pytest.raises(ParameterError, match="u0"):
            dataclasses.replace(cfg, u0=np.array([0.0, 1.0]))  # on the gauge's singular set
        with pytest.raises(ParameterError, match="rank"):
            dataclasses.replace(cfg, d_matrix=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        for r in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="concentration r"):
                dataclasses.replace(cfg, r=r)
            with pytest.raises(ParameterError, match="concentration r"):
                dataclasses.replace(cfg, model="hyperboloid", r=r)

    def test_hyperboloid_negative_radial_u0_rejected(self):
        # u1 < 0 is the other branch of the chart: the estimator returns u1 >= 0,
        # so a truth point there made the fixed-N covariance read about 100 times its bound
        text = (BUNDLED / "hyperboloid.conf").read_text().replace(
            "u0 = 0.1, 1.0471975511965976", "u0 = -0.1, 1.0471975511965976")
        with pytest.raises(ParameterError, match="first chart coordinate"):
            harness.parse_config_text(text, "hyperboloid.conf")
        text = text.replace("u0 = -0.1,", "u0 = -0.0005,")  # inside the chart's slack
        assert harness.parse_config_text(text, "hyperboloid.conf").u0[0] == -0.0005


class TestSeeding:
    def test_stable_and_distinct(self):
        a = rep_seed(123, "cell:1", 0)
        assert a == rep_seed(123, "cell:1", 0)
        assert a != rep_seed(123, "cell:1", 1)
        assert a != rep_seed(123, "cell:2", 0)
        assert a != rep_seed(124, "cell:1", 0)


class TestRunners:
    def test_nonsequential_smoke_and_accounting(self, tmp_path):
        cfg = tiny_config(tmp_path)
        table = run_nonsequential(cfg)
        assert table.kind == "nonsequential"
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.excluded == 0
            assert row.stats["OCOV"].shape == (2, 2)
            assert np.allclose(row.stats["OCOV"], row.stats["OCOV"].T)
            assert np.all(np.diag(row.stats["OALB"]) > np.diag(row.stats["OCRB"]))

    def test_sequential_smoke(self, tmp_path):
        cfg = tiny_config(tmp_path, model="hyperboloid")
        table = run_sequential(cfg)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row.stats["MST"] > 0
            assert row.excluded == 0

    def test_degenerate_two_replications(self, tmp_path):
        cfg = bundled_config("vmf", outdir=str(tmp_path), replications=2,
                             grid_n=(1,), grid_k=(5.0,))
        table = run_nonsequential(cfg)
        assert len(table.rows) == 1
        assert not math.isfinite(table.rows[0].stats["OCOV_se"][0, 0]) or (
            table.rows[0].stats["OCOV_se"][0, 0] > 0
        )

    def test_exclusion_threshold(self):
        with pytest.raises(RunawayStopError):
            harness._check_exclusions(6, 500, "cell")
        harness._check_exclusions(5, 500, "cell")


class TestPersistence:
    def test_write_and_schema(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        nonseq = run_nonsequential(cfg)
        seq = run_sequential(cfg)
        paths = write_results([nonseq, seq], cfg.outdir, cfg, {"start": "t0", "end": "t1"})
        names = {p.name for p in paths}
        assert names == {"nonsequential.csv", "sequential.csv", "run.manifest"}
        header = (tmp_path / "run" / "nonsequential.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.NONSEQ_COLUMNS)
        header = (tmp_path / "run" / "sequential.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.SEQ_COLUMNS)
        manifest = (tmp_path / "run" / "run.manifest").read_text()
        assert f"seed = {cfg.seed}" in manifest
        assert "model = vmf" in manifest
        assert "version = " in manifest

    def test_empty_table_header_only(self, tmp_path):
        empty = harness.ResultTable("sequential", (), 10)
        cfg = tiny_config(tmp_path)
        write_results([empty], tmp_path, cfg)
        lines = (tmp_path / "sequential.csv").read_text().splitlines()
        assert lines == [",".join(harness.SEQ_COLUMNS)]

    def test_determinism_byte_identical(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = tiny_config(tmp_path / sub, model="vmf", reps=12)
            run_experiment(cfg)
            texts.append(
                (
                    (tmp_path / sub / "nonsequential.csv").read_bytes(),
                    (tmp_path / sub / "sequential.csv").read_bytes(),
                )
            )
        assert texts[0] == texts[1]

    def test_unwritable_directory_reports_path(self, tmp_path):
        cfg = tiny_config(tmp_path)
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(OSError, match="file"):
            write_results([harness.ResultTable("sequential", (), 2)], target / "sub", cfg)
