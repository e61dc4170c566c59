"""Monte Carlo experiment runner: fixed-N and sequential suites.

A run is declared by an :class:`ExperimentConfig`; cells and replications
are seeded independently of execution order, so identical config + seed
reproduces byte-identical result files. A cell hashes its replications'
seeds in one pass, as numpy's ``SeedSequence`` would one at a time.

A suite's cells are drawn in up to one process per CPU this process may use,
dealt round-robin: this process draws every W-th cell and forked children the
others, so the files are byte-identical whatever W is. There is no option for
it; a platform without ``os.sched_getaffinity`` draws every cell here. The
estimates, the exclusion checks and the statistics stay here, in grid order,
so a run ends with the error of the first cell that fails. ``perfbench
--trace 1`` sees the cells this process draws only. This module alone knows
a results directory: it writes and reads every file there.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import conformal, geometry, sequential
from .errors import (
    ChartError,
    EvaluationDomainError,
    GaugeSingularityError,
    ParameterError,
    RunawayStopError,
    SeqGeoError,
)
from .models import MODELS
from .tensorops import require_finite

N_BATCHES = 10
# most expected draws in one stopping cell, replications x (K nu0 + c)
DRAW_BUDGET = 2 ** 30
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

# a results directory: a CSV per table kind, each with its columns, and the manifest
COLUMNS = {"nonsequential": NONSEQ_COLUMNS, "sequential": SEQ_COLUMNS}
CSV_FILES = {kind: f"{kind}.csv" for kind in COLUMNS}
MANIFEST = "run.manifest"


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
        if max(self.grid_n) > 2 ** 20:  # one replication's 2^20 draws peak near 150 MB
            raise ParameterError(f"grid_N entry {max(self.grid_n)} is too large: at most 2^20 draws")
        bad_k = [k for k in self.grid_k if not 0.0 < k < math.inf]
        if bad_k:
            raise ParameterError(f"grid_K entries must be positive and finite, got {bad_k[0]!r}")
        for name, grid in (("grid_N", self.grid_n), ("grid_K", self.grid_k)):
            # a cell's id, and so its generators, is its value: a repeat would be a copy
            repeated = [v for i, v in enumerate(grid) if v in grid[:i]]
            if repeated:
                raise ParameterError(f"{name} entry {repeated[0]!r} is repeated")
        model = MODELS[self.model](self.m, self.r)
        if self.m != 2:
            raise ParameterError(f"the sampler and estimator are implemented for m = 2, got m = {self.m}")
        try:
            model.embed(self.u0)
            nu0 = float(model.gauge().nu_at(self.u0))
        except (ChartError, EvaluationDomainError, GaugeSingularityError, OverflowError) as exc:
            msg = f"u0 = {self.u0.tolist()} is not a usable truth point: {exc}"
            raise ParameterError(msg) from exc
        # a replication stops after about K nu0 + c draws, c > 0 for both models; the
        # budget keeps a cell to minutes and, at 2 or more replications, its step cap
        # T_MAX_FACTOR K nu0 below 2^35, so the stopping times are exact floats
        draws = [self.replications * (k * nu0 + model.stopping_constant()) for k in self.grid_k]
        if max(draws) > DRAW_BUDGET:
            k = self.grid_k[int(np.argmax(draws))]
            raise ParameterError(f"grid_K entry {k!r} is too large: {self.replications} replications "
                                 f"expect about {max(draws):.3g} draws, above the 2^30 budget")
        # stop_cell caps a replication at its step cap, and none stops before
        # T_MIN: below that every replication is a runaway
        for k in self.grid_k:
            t_max = sequential.step_cap(k, nu0)
            if t_max < sequential.T_MIN:
                raise ParameterError(f"grid_K entry {k!r} is too small: its replications are capped at "
                                     f"{t_max} draws, below the {sequential.T_MIN} a stop needs")
        if self.d_matrix.shape != (self.m, self.m + 1):  # a column per sum component
            raise ParameterError(f"D must be m x (m + 1) = {self.m} x {self.m + 1}, got shape {self.d_matrix.shape}")
        if not np.all(np.isfinite(self.d_matrix)):
            raise ParameterError("D entries must be finite")
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

    grid_n = floats(values["grid_N"])
    fractional = [v for v in grid_n if not v.is_integer()]
    if fractional:
        raise ParameterError(f"{path}: grid_N entry {fractional[0]!r} is not an integer")
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
            grid_n=tuple(int(v) for v in grid_n),
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


def rep_seed(base_seed: int, cell_id: str, rep: int) -> int:
    digest = hashlib.sha256(f"{cell_id}|{rep}".encode()).digest()
    return (int.from_bytes(digest[:8], "big") ^ base_seed) & ((1 << 63) - 1)


# numpy's SeedSequence hash, O'Neill's seed_seq_fe with a pool of four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """seed_seq_fe's running hash ``v -> (v ^ c) * (c mult)``, then ``v ^= v >> 16``;
    each call steps the constant ``c`` to ``c mult``."""

    def step(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        v = v * np.uint32(const)
        return v ^ (v >> 16)

    return step


def _seed_words(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed ``0 <= s < 2^64``
    at once, ``(len(seeds), 4)``, in uint32 array arithmetic.

    A seed's entropy words are its 32-bit limbs, low first; a seed below 2^32
    has one, and the pool hashes the missing word as it hashes a 0.
    """
    s = np.array(seeds, dtype=np.uint64)
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(s.shape, dtype=np.uint32)
    pool = [hashmix(w) for w in ((s & 0xFFFFFFFF).astype(np.uint32), (s >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = v ^ (v >> 16)
    state = _hasher(_INIT_B, _MULT_B)
    words = np.stack([state(pool[i % 4]) for i in range(8)], axis=-1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands ``PCG64`` one precomputed row of :func:`_seed_words`."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _cell_words(base_seed: int, cell_id: str, count: int) -> np.ndarray:
    """The seed words ``(count, 4)`` of every replication of a cell: ``rep_seed``
    of each, hashed in one pass by :func:`_seed_words`."""
    return _seed_words([rep_seed(base_seed, cell_id, rep) for rep in range(count)])


def _generators(words: np.ndarray) -> list[Generator]:
    """A ``Generator(PCG64)`` on each row of seed words: the generator
    ``default_rng`` of the seed hashed to that row would give."""
    return [Generator(PCG64(_SeedWords(row))) for row in words]


def _map_cells(fn, cells):
    """``fn(c)`` for each cell in grid order, the cells computed in up to one process
    per CPU this process may use.

    With ``W = min(len(cells), usable CPUs)``, this process computes ``cells[0::W]``
    and each of ``W - 1`` forked children ``cells[j::W]``, which it sends back pickled
    through a pipe; ``fn``'s value depends on its cell alone, so the values do not
    depend on ``W``. A platform without ``os.sched_getaffinity`` (CPython has it on Linux only)
    computes every cell here. A process stops at its first failing cell, and the
    error is raised when the caller reaches that cell, so a caller that checks each
    value before taking the next ends with the error a serial loop would end with.
    A child's error comes back with its type and message, or as a
    :class:`SeqGeoError` with its message where it does not unpickle; a child that
    ends without its values is an error at its first cell that names its status.
    Every child is reaped before a value is yielded, and killed first when this
    process raises.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    w = min(len(cells), len(affinity(0))) if affinity else 1
    done = {}  # cell index -> (value, error)

    def share(j):
        out = {}
        for i in range(j, len(cells), w):
            try:
                out[i] = (fn(cells[i]), None)
            except Exception as exc:
                out[i] = (None, exc)
                break
        return out

    pipes = {}  # child pid -> (its first cell index, the read end of its pipe)
    try:
        for j in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send its share and leave without unwinding the parent's stack
                status = 1
                try:
                    os.close(read_fd)
                    out = share(j)
                    for i, (value, exc) in out.items():
                        if exc is not None:
                            try:
                                blob = pickle.dumps(exc)
                            except Exception:
                                blob = b""
                            out[i] = (None, (blob, f"{type(exc).__name__}: {exc}"))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(out, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pipes[pid] = (j, os.fdopen(read_fd, "rb"))
        done.update(share(0))
        for pid, (j, pipe) in list(pipes.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pipes[pid]
            pipe.close()
            try:
                out = pickle.loads(data)
            except Exception:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                msg = f"the process computing cells {list(cells[j::w])} ended without its results ({how})"
                done[j] = (None, SeqGeoError(msg))
                continue
            for i, (value, error) in out.items():
                if error is not None:
                    blob, text = error
                    try:
                        error = pickle.loads(blob)
                    except Exception:
                        error = SeqGeoError(text)
                done[i] = (value, error)
    except BaseException:
        import signal

        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (_, pipe) in pipes.items():
            pipe.close()
            os.waitpid(pid, 0)
    for i in range(len(cells)):
        value, error = done[i]
        if error is not None:
            raise error
        yield value


def _batch_means(per_rep: np.ndarray) -> np.ndarray:
    """Means of the ``np.array_split`` batches of replications (``N_BATCHES``, or
    one per replication below that) over rows ``(r, ...)``, batch axis last.

    Each batch is reduced as one contiguous last-axis row, the summation
    order of a 1-d batch's own mean.
    """
    r = per_rep.shape[0]
    nb = min(N_BATCHES, r)
    q, extra = divmod(r, nb)
    rows = np.ascontiguousarray(np.moveaxis(per_rep, 0, -1))
    lead, cut = rows.shape[:-1], extra * (q + 1)
    head = rows[..., :cut].reshape(lead + (extra, q + 1)).mean(axis=-1)
    tail = rows[..., cut:].reshape(lead + (nb - extra, q)).mean(axis=-1)
    return np.concatenate([head, tail], axis=-1)


def _batch_se(means: np.ndarray) -> np.ndarray:
    """Standard error from batch means ``(..., nb)``; inf below two batches. ``std`` squares the
    means over a power of two near their largest, which is exact and keeps the squares finite."""
    nb = means.shape[-1]
    if nb < 2:
        return np.full(means.shape[:-1], np.inf)
    e = np.frexp(np.abs(means).max(axis=-1))[1]
    return np.ldexp(np.ldexp(means, -e[..., None]).std(axis=-1, ddof=1) / math.sqrt(nb), e)


def run_nonsequential(config: ExperimentConfig) -> ResultTable:
    """Fixed-sample-size suite: bias-corrected estimator, scaled covariance; each cell seeds
    its replications' generators in one pass, and ``sequential.fixed_sums`` draws their sums."""
    model = MODELS[config.model](config.m, config.r)
    pg0 = geometry.point_geometry(model.curved, config.u0)
    ginv = pg0.ginv
    # the second-order term of the fixed-N bound does not depend on N
    term = sequential.second_order_terms(pg0)
    words = {n: _cell_words(config.seed, f"nonseq:{n}", config.replications) for n in config.grid_n}
    cell_sums = _map_cells(lambda n: sequential.fixed_sums(model, n, config.u0, _generators(words[n])),
                           config.grid_n)
    rows = []
    for n, sums in zip(config.grid_n, cell_sums):
        cell_id = f"nonseq:{n}"
        u_hats, ok = model.mle_many(sums)
        excluded = int(np.count_nonzero(~ok))
        _check_exclusions(excluded, config.replications, cell_id)
        u_stars = sequential.bias_correct(geometry.point_geometry(model.curved, u_hats[ok]), float(n))
        devs = model.wrap_deviation(u_stars - config.u0)
        outers = np.einsum("ra,rb->rab", devs, devs) * float(n)
        ocov = outers.mean(axis=0)
        stats = {"OCOV": ocov, "OCOV_se": _batch_se(_batch_means(outers)),
                 "OCRB": ginv, "OALB": ginv + term / float(n)}
        rows.append(CellResult(cell=float(n), stats=stats, excluded=excluded))
    return ResultTable("nonsequential", tuple(rows))


def run_sequential(config: ExperimentConfig) -> ResultTable:
    """Stopping-rule suite in the flattening coordinates, no bias correction; each estimate
    is read from its stopped sum by the rule's own ``stop_terms``, and only runaways are excluded.

    The flattening map is built from the model's closed-form gauge with no check on a probe
    grid: both models are dual quadrics whose gauge solves the quadric gauge equation at
    every accepted ``r``, which ``seqgeo geometry`` and the tier-1 suite verify."""
    model = MODELS[config.model](config.m, config.r)
    pg0 = geometry.point_geometry(model.curved, config.u0)
    ubar0, jac0, _ = conformal.quadric_map(pg0, model.gauge(), config.d_matrix)
    ccrb = sequential.crb(pg0, jac0)
    words = {k: _cell_words(config.seed, f"seq:{k!r}", config.replications) for k in config.grid_k}
    stops = _map_cells(lambda k: sequential.stop_cell(model, float(k), config.u0, _generators(words[k])),
                       config.grid_k)
    rows = []
    for k, (taus, sums, runaway) in zip(config.grid_k, stops):
        cell_id = f"seq:{k!r}"
        excluded = int(np.count_nonzero(runaway))
        _check_exclusions(excluded, config.replications, cell_id)
        taus = taus[~runaway].astype(float)
        devs = conformal.flat_coordinates(model, config.d_matrix, sums[~runaway]) - ubar0
        outers = np.einsum("ra,rb->rab", devs, devs)
        mst = float(taus.mean())
        sdst = float(taus.std(ddof=1))
        with np.errstate(over="ignore", invalid="ignore"):  # D near the float range overflows them
            ccov = mst * outers.mean(axis=0)
            tau_means = _batch_means(taus)
            stats = {
                "MST": mst,
                "MST_se": float(_batch_se(tau_means)),
                "SDST": sdst,
                "CCOV": ccov,
                "CCOV_se": _batch_se(tau_means * _batch_means(outers)),
                "CCRB": ccrb,
            }
        for name, stat in stats.items():
            require_finite(stat, f"cell {cell_id}: {name}")
        rows.append(CellResult(cell=float(k), stats=stats, excluded=excluded))
    return ResultTable("sequential", tuple(rows))


def _check_exclusions(excluded: int, total: int, cell_id: str) -> None:
    if excluded > MAX_EXCLUDED_FRACTION * total:
        raise RunawayStopError(
            f"cell {cell_id}: {excluded}/{total} replications excluded (> {MAX_EXCLUDED_FRACTION:.0%})"
        )


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def csv_rows(table: ResultTable) -> list[str]:
    """A table's CSV lines: the header, then per cell its value, its stats (a matrix as its
    11, 12 and 22 entries) and its exclusions; the suites build the stats in column order."""
    out = [",".join(COLUMNS[table.kind])]
    for row in table.rows:
        values = [row.cell]
        for stat in row.stats.values():
            values += [stat[i] for i in ((0, 0), (0, 1), (1, 1))] if np.ndim(stat) else [stat]
        out.append(",".join(_fmt(v) for v in [*values, row.excluded]))
    return out


def write_results(
    tables: list[ResultTable],
    outdir: str | Path,
    config: ExperimentConfig,
    timings: dict | None = None,
) -> list[Path]:
    """One CSV per suite plus a manifest with the config echo and timings."""
    out = _results_dir(outdir)
    written = []
    for table in tables:
        path = out / CSV_FILES[table.kind]
        try:
            path.write_text("\n".join(csv_rows(table)) + "\n")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)
    from . import __version__

    manifest = out / MANIFEST
    timings = timings or {}
    lines = ["[config]", *config.echo_lines(), "", "[run]", f"version = {__version__}", f"seed = {config.seed}"]
    for key in ("start", "end"):
        if key in timings:
            lines.append(f"{key} = {timings[key]}")
    for key, val in timings.items():
        if key.startswith("cell:"):
            lines.append(f"{key} = {val:.3f}s")
    manifest.write_text("\n".join(lines) + "\n")
    written.append(manifest)
    return written


def read_results(results_dir: str | Path) -> tuple[ExperimentConfig, list[dict], list[dict]]:
    """The config a results directory's manifest echoes and the rows of its fixed-N
    and sequential CSVs, each a dict of floats by column; raises :class:`ParameterError`
    when a file does not parse or the CSV cells are not the config's grids."""
    out = Path(results_dir)
    nonseq, seq = (_read_csv(out / CSV_FILES[kind], columns) for kind, columns in COLUMNS.items())
    # the manifest's [config] section, read as a config file; the lines outside it
    # are blanked, so error messages keep the manifest's line numbers
    lines, inside = [], False
    for line in read_text(out / MANIFEST).splitlines():
        if line.strip().startswith("["):
            inside = line.strip() == "[config]"
            line = ""
        lines.append(line if inside else "")
    config = parse_config_text("\n".join(lines), out / MANIFEST)
    if ([row["cell_N"] for row in nonseq] != list(config.grid_n)
            or [row["cell_K"] for row in seq] != list(config.grid_k)):
        raise ParameterError(f"{out}: the CSV cells do not match grid_N and grid_K of {MANIFEST}")
    return config, nonseq, seq


def _read_csv(path: Path, expected_header: tuple[str, ...]) -> list[dict]:
    lines = read_text(path).strip().splitlines()
    if not lines:
        raise ParameterError(f"{path}: empty file")
    header = tuple(lines[0].split(","))
    if header != expected_header:
        missing = set(expected_header) - set(header)
        raise ParameterError(f"{path}: bad schema, missing columns {sorted(missing)}")
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(header):
            raise ParameterError(f"{path}: row has {len(vals)} fields, expected {len(header)}")
        try:
            row = {k: float(v) for k, v in zip(header, vals)}
        except ValueError as exc:
            raise ParameterError(f"{path}: {exc}") from exc
        if not all(map(math.isfinite, row.values())):
            raise ParameterError(f"{path}: non-finite value in row {line!r}")
        rows.append(row)
    return rows


def _results_dir(outdir: str | Path) -> Path:
    """The results directory, created with its parents if it is missing."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create results directory {out}: {exc}") from exc
    return out


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Both suites plus persistence; returns the written paths.

    The results directory is created first, so a path that cannot hold it
    fails before any suite runs."""
    _results_dir(config.outdir)
    timings = {"start": time.strftime("%Y-%m-%dT%H:%M:%S")}
    t0 = time.monotonic()
    nonseq = run_nonsequential(config)
    timings["cell:nonsequential"] = time.monotonic() - t0
    t0 = time.monotonic()
    seq = run_sequential(config)
    timings["cell:sequential"] = time.monotonic() - t0
    timings["end"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return write_results([nonseq, seq], config.outdir, config, timings)
