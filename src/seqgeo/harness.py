"""Monte Carlo experiment runner: fixed-N and sequential suites.

A run is declared by an :class:`ExperimentConfig`; cells and replications
are seeded independently of execution order, so identical config + seed
reproduces byte-identical result files.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import conformal, sequential
from .errors import (
    ChartError,
    EvaluationDomainError,
    GaugeSingularityError,
    ParameterError,
    RunawayStopError,
)
from .models import MODELS

N_BATCHES = 10
MAX_EXCLUDED_FRACTION = 0.01

CONFIG_KEYS = (
    "model",
    "m",
    "r",
    "u0",
    "D",
    "grid_N",
    "grid_K",
    "replications",
    "seed",
    "outdir",
)

NONSEQ_COLUMNS = (
    "cell_N",
    "OCOV11", "OCOV12", "OCOV22",
    "OCOV11_se", "OCOV12_se", "OCOV22_se",
    "OCRB11", "OCRB12", "OCRB22",
    "OALB11", "OALB12", "OALB22",
    "excluded",
)

SEQ_COLUMNS = (
    "cell_K",
    "MST", "MST_se", "SDST",
    "CCOV11", "CCOV12", "CCOV22",
    "CCOV11_se", "CCOV12_se", "CCOV22_se",
    "CCRB11", "CCRB12", "CCRB22",
    "excluded",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one simulation run."""

    model: str
    m: int
    r: float
    u0: np.ndarray
    d_matrix: np.ndarray
    grid_n: tuple[int, ...]
    grid_k: tuple[float, ...]
    replications: int
    seed: int
    outdir: str

    def __post_init__(self):
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float))
        object.__setattr__(self, "d_matrix", np.atleast_2d(np.asarray(self.d_matrix, dtype=float)))
        if self.model not in MODELS:
            raise ParameterError(f"unknown model {self.model!r}")
        if self.u0.shape != (self.m,):
            raise ParameterError(f"u0 must have m = {self.m} entries, got {self.u0.size}")
        if self.replications < 2:
            raise ParameterError("need at least 2 replications")
        if not self.grid_n or not self.grid_k:
            raise ParameterError("grids must be nonempty")
        if min(self.grid_n) < 1:
            raise ParameterError(f"grid_N entries must be at least 1, got {min(self.grid_n)}")
        bad_k = [k for k in self.grid_k if not 0.0 < k < math.inf]
        if bad_k:
            raise ParameterError(f"grid_K entries must be positive and finite, got {bad_k[0]!r}")
        model = MODELS[self.model](self.m, self.r)
        try:
            model.embed(self.u0)
            model.gauge().nu_at(self.u0)
        except (ChartError, EvaluationDomainError, GaugeSingularityError) as exc:
            msg = f"u0 = {self.u0.tolist()} is not a usable truth point: {exc}"
            raise ParameterError(msg) from exc
        if np.linalg.matrix_rank(self.d_matrix) < self.m:
            raise ParameterError(f"D must have rank m = {self.m}")

    def echo_lines(self) -> list[str]:
        return [
            f"model = {self.model}",
            f"m = {self.m}",
            f"r = {self.r!r}",
            "u0 = " + ", ".join(repr(float(v)) for v in self.u0),
            "D = " + ", ".join(repr(float(v)) for v in self.d_matrix.ravel()),
            "grid_N = " + ", ".join(str(int(v)) for v in self.grid_n),
            "grid_K = " + ", ".join(repr(float(v)) for v in self.grid_k),
            f"replications = {self.replications}",
            f"seed = {self.seed}",
            f"outdir = {self.outdir}",
        ]


def read_text(path: str | Path) -> str:
    """The text of a file; raises :class:`ParameterError` when it does not decode."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: cannot decode text ({exc.reason})") from exc


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read the line-oriented ``key = value`` config format from a file."""
    return parse_config_text(read_text(path), path)


def parse_config_text(text: str, path: str | Path) -> ExperimentConfig:
    """Parse config text; ``path`` names its source in error messages."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ParameterError(f"{path}: missing keys {missing}")

    def floats(s):
        try:
            return [float(v) for v in s.split(",")]
        except ValueError as exc:
            raise ParameterError(f"{path}: bad numeric list {s!r}") from exc

    try:
        m = int(values["m"])
        u0 = np.array(floats(values["u0"]))
        dflat = np.array(floats(values["D"]))
        return ExperimentConfig(
            model=values["model"],
            m=m,
            r=float(values["r"]),
            u0=u0,
            d_matrix=dflat.reshape(m, m + 1),
            grid_n=tuple(int(float(v)) for v in values["grid_N"].split(",")),
            grid_k=tuple(float(v) for v in values["grid_K"].split(",")),
            replications=int(values["replications"]),
            seed=int(values["seed"]),
            outdir=values["outdir"],
        )
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class CellResult:
    cell: float
    stats: dict
    excluded: int


@dataclass(frozen=True)
class ResultTable:
    kind: str  # 'nonsequential' | 'sequential'
    rows: tuple[CellResult, ...]
    replications: int


def rep_seed(base_seed: int, cell_id: str, rep: int) -> int:
    digest = hashlib.sha256(f"{cell_id}|{rep}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") ^ base_seed) & ((1 << 63) - 1)


def _batch_se(per_rep: np.ndarray) -> float:
    """Standard error by replication batching (10 batches)."""
    r = per_rep.shape[0]
    nb = min(N_BATCHES, r)
    batches = np.array_split(per_rep, nb)
    means = np.array([b.mean(axis=0) for b in batches], dtype=float)
    if nb < 2:
        return float("inf")
    return float(means.std(ddof=1) / math.sqrt(nb))


def _batch_se_product(taus: np.ndarray, outers: np.ndarray) -> float:
    """Batched standard error of E(tau) * E(outer-component)."""
    r = taus.shape[0]
    nb = min(N_BATCHES, r)
    idx = np.array_split(np.arange(r), nb)
    vals = np.array([taus[i].mean() * outers[i].mean() for i in idx])
    if nb < 2:
        return float("inf")
    return float(vals.std(ddof=1) / math.sqrt(nb))


def run_nonsequential(config: ExperimentConfig) -> ResultTable:
    """Fixed-sample-size suite: bias-corrected estimator, scaled covariance."""
    model = MODELS[config.model](config.m, config.r)
    u0 = config.u0
    ginv = sequential.crb(model, u0)
    rows = []
    for n in config.grid_n:
        cell_id = f"nonseq:{n}"
        sums = []
        for rep in range(config.replications):
            rng = np.random.default_rng(rep_seed(config.seed, cell_id, rep))
            sums.append(model.sample_many(u0, rng, n).sum(axis=0))
        u_hats, ok = model.mle_many(np.full(config.replications, float(n)), np.array(sums))
        excluded = int(np.count_nonzero(~ok))
        _check_exclusions(excluded, config.replications, cell_id)
        u_stars = sequential.bias_correct(model, u_hats[ok], float(n))
        devs = model.wrap_deviation(u_stars - u0)
        outers = np.einsum("ra,rb->rab", devs, devs) * float(n)
        ocov = outers.mean(axis=0)
        oalb = sequential.asymptotic_covariance(model, u0, float(n))
        stats = {"OCOV": ocov, "OCRB": ginv, "OALB": oalb,
                 "OCOV_se": np.array([[_batch_se(outers[:, a, b]) for b in range(2)] for a in range(2)])}
        rows.append(CellResult(cell=float(n), stats=stats, excluded=excluded))
    return ResultTable("nonsequential", tuple(rows), config.replications)


def run_sequential(config: ExperimentConfig) -> ResultTable:
    """Stopping-rule suite in the flattening coordinates, no bias correction."""
    model = MODELS[config.model](config.m, config.r)
    u0 = config.u0
    grid = model.probe_grid(count=16, margin=0.15, seed=11)
    gauge, coords = conformal.quadric_gauge(
        model.curved, np.zeros(model.m + 1), config.d_matrix, grid, gauge=model.gauge()
    )
    ubar0 = coords.forward(u0)
    ccrb = sequential.crb(model, u0, coords=coords)
    c = model.stopping_constant()
    rows = []
    for k in config.grid_k:
        cell_id = f"seq:{k!r}"
        rngs = [np.random.default_rng(rep_seed(config.seed, cell_id, rep))
                for rep in range(config.replications)]
        taus, sums, runaway = sequential.stop_cell(model, gauge, float(k), u0, rngs, c=c)
        taus = taus[~runaway].astype(float)
        u_hats, ok = model.mle_many(taus, sums[~runaway])
        excluded = int(np.count_nonzero(runaway)) + int(np.count_nonzero(~ok))
        _check_exclusions(excluded, config.replications, cell_id)
        taus = taus[ok]
        devs = coords.forward(u_hats[ok]) - ubar0
        outers = np.einsum("ra,rb->rab", devs, devs)
        mst = float(taus.mean())
        sdst = float(taus.std(ddof=1))
        ccov = mst * outers.mean(axis=0)
        ccov_se = np.array(
            [[_batch_se_product(taus, outers[:, a, b]) for b in range(2)] for a in range(2)]
        )
        stats = {
            "MST": mst,
            "MST_se": _batch_se(taus),
            "SDST": sdst,
            "CCOV": ccov,
            "CCOV_se": ccov_se,
            "CCRB": ccrb,
        }
        rows.append(CellResult(cell=float(k), stats=stats, excluded=excluded))
    return ResultTable("sequential", tuple(rows), config.replications)


def _check_exclusions(excluded: int, total: int, cell_id: str) -> None:
    if excluded > MAX_EXCLUDED_FRACTION * total:
        raise RunawayStopError(
            f"cell {cell_id}: {excluded}/{total} replications excluded (> {MAX_EXCLUDED_FRACTION:.0%})"
        )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def nonsequential_csv_rows(table: ResultTable) -> list[str]:
    out = [",".join(NONSEQ_COLUMNS)]
    for row in table.rows:
        s = row.stats
        cells = [str(int(row.cell))]
        cells += [_fmt(s["OCOV"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells += [_fmt(s["OCOV_se"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells += [_fmt(s["OCRB"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells += [_fmt(s["OALB"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells.append(str(row.excluded))
        out.append(",".join(cells))
    return out


def sequential_csv_rows(table: ResultTable) -> list[str]:
    out = [",".join(SEQ_COLUMNS)]
    for row in table.rows:
        s = row.stats
        cells = [_fmt(row.cell), _fmt(s["MST"]), _fmt(s["MST_se"]), _fmt(s["SDST"])]
        cells += [_fmt(s["CCOV"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells += [_fmt(s["CCOV_se"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells += [_fmt(s["CCRB"][i]) for i in ((0, 0), (0, 1), (1, 1))]
        cells.append(str(row.excluded))
        out.append(",".join(cells))
    return out


def write_results(
    tables: list[ResultTable],
    outdir: str | Path,
    config: ExperimentConfig,
    timings: dict | None = None,
) -> list[Path]:
    """One CSV per suite plus a manifest with the config echo and timings."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create results directory {out}: {exc}") from exc
    written = []
    for table in tables:
        rows = (
            nonsequential_csv_rows(table)
            if table.kind == "nonsequential"
            else sequential_csv_rows(table)
        )
        path = out / f"{table.kind}.csv"
        try:
            path.write_text("\n".join(rows) + "\n")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    from . import __version__

    manifest = out / "run.manifest"
    timings = timings or {}
    lines = ["[config]"]
    lines += config.echo_lines()
    lines.append("")
    lines.append("[run]")
    lines.append(f"version = {__version__}")
    lines.append(f"seed = {config.seed}")
    for key in ("start", "end"):
        if key in timings:
            lines.append(f"{key} = {timings[key]}")
    for key, val in timings.items():
        if key.startswith("cell:"):
            lines.append(f"{key} = {val:.3f}s")
    manifest.write_text("\n".join(lines) + "\n")
    written.append(manifest)
    return written


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Both suites plus persistence; returns the written paths."""
    timings = {"start": time.strftime("%Y-%m-%dT%H:%M:%S")}
    t0 = time.monotonic()
    nonseq = run_nonsequential(config)
    timings["cell:nonsequential"] = time.monotonic() - t0
    t0 = time.monotonic()
    seq = run_sequential(config)
    timings["cell:sequential"] = time.monotonic() - t0
    timings["end"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return write_results([nonseq, seq], config.outdir, config, timings)
