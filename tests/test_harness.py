import copy
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqgeo import conformal, harness
from seqgeo.errors import ParameterError, RunawayStopError
from seqgeo.models import M_MAX, MODELS
from seqgeo.harness import (
    parse_config,
    rep_seed,
    run_experiment,
    run_nonsequential,
    run_sequential,
    write_results,
)

from conftest import BUNDLED_CONFIGS as BUNDLED, MODELS_BY_NAME, bundled_config
import oracles


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
        # the flattening map reads a sum's m + 1 components through D's columns: a
        # full-rank square D ran both suites, and a (2, 5) one ended in an IndexError
        for d_matrix in (np.eye(2), np.eye(2, 5)):
            with pytest.raises(ParameterError, match=re.escape(f"m + 1) = 2 x 3, got shape {d_matrix.shape}")):
                dataclasses.replace(cfg, d_matrix=d_matrix)
        with pytest.raises(ParameterError, match=f"m <= {M_MAX}, got m = {M_MAX + 1}"):
            dataclasses.replace(cfg, m=M_MAX + 1, u0=np.full(M_MAX + 1, 0.5), d_matrix=np.eye(M_MAX + 1, M_MAX + 2))
        for r in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="concentration r"):
                dataclasses.replace(cfg, r=r)
            with pytest.raises(ParameterError, match="concentration r"):
                dataclasses.replace(cfg, model="hyperboloid", r=r)

    @pytest.mark.parametrize("model", ["vmf", "hyperboloid"])
    def test_m3_rejected_before_a_run(self, model):
        # m = 3 passed validation, and the sampler rejected it once the run had begun
        cfg = bundled_config(model)
        with pytest.raises(ParameterError, match="implemented for m = 2, got m = 3"):
            dataclasses.replace(cfg, m=3, u0=np.append(cfg.u0, 0.5), d_matrix=np.eye(3, 4))

    def test_fractional_grid_n_rejected(self):
        # int(float(v)) once read N = 100.7 as a cell of N = 100
        text = (BUNDLED / "vmf.conf").read_text()
        with pytest.raises(ParameterError, match="grid_N entry 100.7 is not an integer"):
            harness.parse_config_text(text.replace("grid_N = 100,", "grid_N = 100.7,"), "vmf.conf")
        assert harness.parse_config_text(text.replace("1000\n", "1e3\n"), "vmf.conf").grid_n[-1] == 1000

    def test_repeated_cell_rejected(self):
        # two equal entries were two cells of one id, so with one set of generators
        cfg = bundled_config("vmf")
        with pytest.raises(ParameterError, match="grid_N entry 100 is repeated"):
            dataclasses.replace(cfg, grid_n=(100, 200, 100))
        with pytest.raises(ParameterError, match="grid_K entry 10.0 is repeated"):
            dataclasses.replace(cfg, grid_k=(10.0, 10.0))
        text = (BUNDLED / "vmf.conf").read_text()
        for grid in ("grid_K = 10, 1e1", "grid_N = 100, 1e2"):
            key = grid.split()[0]
            lines = [grid if line.startswith(key) else line for line in text.splitlines()]
            with pytest.raises(ParameterError, match=f"{key} entry .* is repeated"):
                harness.parse_config_text("\n".join(lines), "vmf.conf")

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

    @given(seeds=st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=8))
    @example(seeds=[0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1])
    @settings(max_examples=60, deadline=None)
    def test_seed_words_match_seed_sequence(self, seeds):
        # the one-pass hash has SeedSequence's words, and a generator built on
        # them draws what default_rng of the seed draws
        words = harness._seed_words(seeds)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for s, row in zip(seeds, words):
            assert row.tobytes() == np.random.SeedSequence(s).generate_state(4, np.uint64).tobytes()
            gen = np.random.Generator(np.random.PCG64(harness._SeedWords(row)))
            assert gen.random(16).tobytes() == np.random.default_rng(s).random(16).tobytes()

    def test_cell_generators_call_rep_seed_per_replication(self, monkeypatch):
        # through the module global, once per replication, as the benchmark's
        # set-up marker and the traced rep_seed count read them
        calls = []
        monkeypatch.setattr(harness, "rep_seed", lambda *args: calls.append(args) or rep_seed(*args))
        gens = harness._cell_generators(20250101, "seq:1.0", 23)
        assert calls == [(20250101, "seq:1.0", rep) for rep in range(23)]
        for rep, gen in enumerate(gens):
            want = np.random.default_rng(rep_seed(20250101, "seq:1.0", rep))
            assert gen.random(16).tobytes() == want.random(16).tobytes()


class TestBatchSe:
    @pytest.mark.parametrize("r", list(range(2, 61)) + [99, 100, 500, 1001])
    def test_matches_per_batch_loops(self, r):
        # batches of 8 or more rows tell a contiguous row's pairwise sum from
        # a sequential one, so r runs past 80
        rng = np.random.default_rng(r)
        taus = rng.integers(50, 500, r).astype(float)
        devs = rng.standard_normal((r, 2))
        outers = np.einsum("ra,rb->rab", devs, devs)
        tau_means = harness._batch_means(taus)
        assert tau_means.shape == (min(r, 10),)
        assert float(harness._batch_se(tau_means)).hex() == oracles.batch_se(taus).hex()
        se = harness._batch_se(harness._batch_means(outers))
        product = harness._batch_se(tau_means * harness._batch_means(outers))
        assert se.shape == product.shape == (2, 2)
        for a in range(2):
            for b in range(2):
                assert float(se[a, b]).hex() == oracles.batch_se(outers[:, a, b]).hex()
                assert float(product[a, b]).hex() == oracles.batch_se_product(taus, outers[:, a, b]).hex()

    def test_one_batch_is_infinite(self):
        assert harness._batch_se(harness._batch_means(np.array([3.0]))) == math.inf


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

    @pytest.mark.parametrize("model", ["vmf", "hyperboloid"])
    def test_fixed_n_sums_match_oracle(self, model, monkeypatch):
        # N = 1300 and 2000 split 7 replications into blocks of 3 and 2; every
        # replication's sum has the bits of its own default_rng's draws, added
        # in order
        cfg = bundled_config(model, replications=7, grid_n=(1, 1300, 2000))
        cls = MODELS[model]
        seen = []
        mle_many = cls.mle_many
        monkeypatch.setattr(cls, "mle_many", lambda self, sums: seen.append(sums.copy()) or mle_many(self, sums))
        run_nonsequential(cfg)
        assert len(seen) == len(cfg.grid_n)
        for n, sums in zip(cfg.grid_n, seen):
            rngs = [np.random.default_rng(rep_seed(cfg.seed, f"nonseq:{n}", rep)) for rep in range(7)]
            want = oracles.sample_many(cls(cfg.m, cfg.r), cfg.u0, rngs, n).sum(axis=1)
            assert sums.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", ["vmf", "hyperboloid"])
    def test_sequential_reads_no_chart_estimate(self, model, monkeypatch):
        # the stopped sums give the flattening coordinates through stop_terms;
        # mle_many serves the fixed-N suite only
        monkeypatch.setattr(MODELS[model], "mle_many", lambda self, sums: pytest.fail("mle_many called"))
        table = run_sequential(tiny_config("unused", model=model, reps=8))
        assert [row.excluded for row in table.rows] == [0, 0]

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

    @pytest.mark.parametrize("model", ["vmf", "hyperboloid"])
    def test_read_results_round_trip(self, model, tmp_path):
        # %.17g round-trips a double, so every value reads back exactly
        cfg = bundled_config(model, outdir=str(tmp_path), replications=20)
        tables = [run_nonsequential(cfg), run_sequential(cfg)]
        write_results(tables, cfg.outdir, cfg)
        back, *rows = harness.read_results(tmp_path)
        assert back.echo_lines() == cfg.echo_lines()
        for table, read in zip(tables, rows):
            assert len(read) == len(table.rows)
            for row, got in zip(table.rows, read):
                assert list(got) == list(harness.COLUMNS[table.kind])
                assert got == {column: _column_value(row, column) for column in got}

    def test_empty_table_header_only(self, tmp_path):
        empty = harness.ResultTable("sequential", ())
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
            write_results([harness.ResultTable("sequential", ())], target / "sub", cfg)


def _column_value(row, column):
    """The value of ``row`` that ``column`` names: ``OCOV12_se`` is ``stats["OCOV_se"][0, 1]``."""
    if column in ("cell_N", "cell_K"):
        return row.cell
    if column == "excluded":
        return row.excluded
    stat, component, se = re.fullmatch(r"([A-Z]+)(\d\d)?(_se)?", column).groups()
    value = row.stats[stat + (se or "")]
    return value if component is None else value[int(component[0]) - 1, int(component[1]) - 1]


def _traced_peak(run, config) -> int:
    """Bytes ``run(config)`` allocates at its peak above what was live at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run(config)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemory:
    # a bundled config at 100 replications: the stopping loop reaches its
    # STOP_ROWS rows per call, and a fixed-N block its ROWS
    def test_sequential_peak(self):
        assert _traced_peak(run_sequential, bundled_config("vmf", replications=100)) < 1.5 * 2 ** 20

    def test_nonsequential_peak(self):
        assert _traced_peak(run_nonsequential, bundled_config("vmf", replications=100)) < 0.6 * 2 ** 20


def _sums(model_name, rng, rows):
    """Rows of sums ``(rows, 3)`` in every direction and across twelve decades of
    scale; on the hyperboloid future timelike, from near the light cone on."""
    sums = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-6, 6, (rows, 1))
    if model_name == "hyp":
        sums[:, 0] = np.hypot(sums[:, 1], sums[:, 2]) * (1.0 + np.exp(rng.uniform(-8, 4, rows)))
    return sums


class TestFlatCoordinates:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    @given(seed=st.integers(0, 2 ** 32 - 1), random_d=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_chart_path(self, model_name, seed, random_d):
        # the stopped-sum form against the estimator and the flattening map
        model = MODELS_BY_NAME[model_name]
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((2, 3)) if random_d else (1.0 if model_name == "vmf" else 0.01) * np.eye(2, 3)
        assume(np.linalg.matrix_rank(d) == 2)
        sums = _sums(model_name, rng, 64)
        nrm = model._norm(sums)
        keep = model._defined(sums, nrm) & (np.abs(sums[:, 2]) >= 1e-3 * nrm)
        sums, nrm = sums[keep], nrm[keep]
        got = conformal.flat_coordinates(model, d, sums)
        want = oracles.reference_flat_deviations(model, d, sums)
        # the chart path loses about eps |S|/|S_m| in the azimuth's round trip and, on
        # the hyperboloid, eps (|S|_E/|S|)^2 in the Minkowski norm's cancellation; the
        # error is read against the size nu r_dagger max|D| |xi|_E of the coordinates
        euclid = np.linalg.norm(sums, axis=1)
        cond = (euclid / nrm) ** 2 + euclid / np.abs(sums[:, 2])
        size = model.r_dagger * np.abs(d).max() * euclid / np.abs(sums[:, 2])
        err = np.abs(got - want).max(axis=1)
        assert np.all(err <= 16 * np.finfo(float).eps * cond * size)
