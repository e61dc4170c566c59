"""seqgeo benchmark: two workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a seqgeo checkout:

    python3 perfbench/run.py --workload fixed-n-geometry --seed 1 --seconds 60 --trace 0

Each repeat of a workload runs in a fresh single-threaded process
(``perfbench/workload.py``), one at a time, until ``--seconds`` have passed.
With ``--trace 0`` it prints the end-to-end metrics (the mean ``wall_s``
and the median ``setup_s`` and ``peak_rss_mb`` of the repeats); with ``--trace 1`` it alternates untraced and traced repeats and
prints the per-layer metrics of ``perfbench/tracing.py``. Every run checks
its outputs: repeats at one seed must agree exactly, every geometry check
must pass, and the first repeat, which runs at the bundled seed, must match
the pinned golden outputs in ``perfbench/golden``. A cell over the 1 %
exclusion cap makes the harness raise, so its repeat fails and the run
ends with an error.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workload import BUNDLED_SEED, WORKLOADS  # noqa: E402

REPLICATIONS = 100      # per cell, both bundled configs
GRID_DENSITY = 96       # probe points per geometry check
MIN_REPEATS = 3         # untraced repeats per run, whatever --seconds says
THREAD_CAP = 1          # OpenBLAS/OpenMP threads of each workload process
CHILD_TIMEOUT_S = 120
REL_TOL = 1e-12         # CSV agreement with the golden, relative

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# How each end-to-end metric is summarised over the repeats of a run. The
# machine's speed switches between states that last seconds to minutes, so
# single wall_s values are bimodal: their median jumps from one mode to the
# other as the share of time in the fast state crosses one half, while their
# mean moves in proportion to that share.
CENTRE = {"setup_s": statistics.median, "wall_s": statistics.mean, "peak_rss_mb": statistics.median}
# Throughput of each phase, printed beside the end-to-end metrics.
PHASE_RATE = {"nonsequential": "reps_per_s", "sequential": "reps_per_s", "geometry": "points_per_s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREAD_CAP)
    return env


def spawn(spec: dict) -> dict:
    """Run one repeat in a fresh process and return its result."""
    workdir = Path(spec["workdir"])
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), json.dumps(spec), str(result_path)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=_child_env(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']} repeat exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} repeat exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------------
# output checks


def golden_path(workload: str) -> Path:
    return HERE / "golden" / f"{workload}.json"


def load_golden(workload: str) -> dict:
    """The pinned outputs of a workload at the benchmark's own sizes."""
    path = golden_path(workload)
    if not path.is_file():
        raise BenchError(f"golden outputs missing: {path}")
    golden = json.loads(path.read_text())
    if (golden["replications"], golden["grid_density"]) != (REPLICATIONS, GRID_DENSITY):
        raise BenchError(f"{path} is pinned at other sizes than {REPLICATIONS} replications, "
                         f"grid_density {GRID_DENSITY}")
    return golden


def golden_view(outputs: dict) -> dict:
    """The part of a repeat's outputs that the golden pins.

    A list is the CSV of one suite and config, kept whole; a dict is one
    geometry report, of which the verdict flags and constants are kept.
    """
    keep = ("r_dagger", "pass", "conformally_flat")
    cls_keep = ("umbilic", "dual_quadric", "k0", "l0", "constant_curvature")
    return {key: out if isinstance(out, list)
            else {**{k: out[k] for k in keep}, **{k: out["classification"][k] for k in cls_keep}}
            for key, out in outputs.items()}


def _num_differs(a: str | float, b: str | float) -> bool:
    fa, fb = float(a), float(b)
    if math.isnan(fa) or math.isnan(fb):
        return not (math.isnan(fa) and math.isnan(fb))
    return not math.isclose(fa, fb, rel_tol=REL_TOL, abs_tol=0.0)


def _csv_mismatches(got: list[str], want: list[str]) -> int:
    if len(got) != len(want) or got[:1] != want[:1]:
        return max(len(got), len(want))
    count = 0
    for line_got, line_want in zip(got[1:], want[1:]):
        fields_got, fields_want = line_got.split(","), line_want.split(",")
        if len(fields_got) != len(fields_want):
            count += len(fields_want)
            continue
        count += sum(_num_differs(a, b) for a, b in zip(fields_got, fields_want))
    return count


def output_mismatch(outputs: dict, golden: dict) -> int:
    """Number of output values that disagree with the golden."""
    want = golden["outputs"]
    if set(outputs) != set(want):
        return max(len(outputs), len(want))
    got = golden_view(outputs)
    count = 0
    for key, pinned in want.items():
        if isinstance(pinned, list):
            count += _csv_mismatches(got[key], pinned)
            continue
        for field, value in pinned.items():
            if isinstance(value, bool):
                count += got[key][field] is not value
            else:
                count += _num_differs(got[key][field], value)
    return count


# ---------------------------------------------------------------------------
# measurement


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in Path("src/seqgeo").rglob("*.py"))


def _git_revision() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def measure(workload: str, seed: int, seconds: float, trace: bool,
            replications: int = REPLICATIONS, grid_density: int = GRID_DENSITY,
            min_repeats: int = MIN_REPEATS) -> dict:
    """Run the repeats of one workload and return everything that is printed."""
    workdir = Path.cwd() / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "replications": replications,
            "grid_density": grid_density, "workdir": str(workdir)}
    # Only the benchmark's own sizes have a golden; the smaller ones of the
    # smoke test are checked for determinism, the exclusion cap and the
    # geometry pass flags alone.
    golden = (load_golden(workload)
              if (replications, grid_density) == (REPLICATIONS, GRID_DENSITY) else None)
    plain, traced, seeds = [], [], []
    try:
        t0 = time.monotonic()
        while True:
            t_rep = time.monotonic()
            # Where a golden exists at this size, the first repeat runs at the
            # bundled seed and is the golden check; it is timed like the rest.
            rep_seed = BUNDLED_SEED if golden is not None and not seeds else seed
            seeds.append(rep_seed)
            plain.append(spawn(dict(spec, seed=rep_seed, trace=False)))
            if trace:
                traced.append(spawn(dict(spec, seed=rep_seed, trace=True)))
            done = len(traced) if trace else len(plain)
            # Start no repeat that would end after the deadline, once enough ran.
            t_now = time.monotonic()
            if t_now + (t_now - t_rep) - t0 > seconds and done >= (1 if trace else min_repeats):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    runs = plain + traced
    outputs_by_seed: dict[int, list] = {}
    for rep_seed, r in zip(seeds + (seeds if trace else []), runs):
        outputs_by_seed.setdefault(rep_seed, []).append(r["outputs"])
    problems = []
    diverged = sum(out != outs[0] for outs in outputs_by_seed.values() for out in outs)
    if diverged:
        problems.append(f"{diverged} repeats differ from the first at their seed")
    counts = {key: sum(r["counts"][key] for r in runs) for key in runs[0]["counts"]}
    if counts["checks_failed"]:
        problems.append(f"{counts['checks_failed']} geometry checks did not pass")
    if not all(r.get("restored", True) for r in runs):
        problems.append("tracer left a wrapper in place")
    mismatch = None
    if golden is not None:
        mismatch = output_mismatch((traced or plain)[0]["outputs"], golden)
        if mismatch:
            problems.append(f"output_mismatch {mismatch} against the golden")

    samples = {name: [r[name] for r in plain] for name in END_TO_END}
    for phase in plain[0]["phases"]:
        samples[f"{phase}.{PHASE_RATE[phase]}"] = [
            r["phases"][phase]["items"] / r["phases"][phase]["main_s"] for r in plain]
    if trace:
        metrics = {}
        for name, unit in tracing.metric_names().items():
            if name == "trace_overhead_frac":
                value = (CENTRE["wall_s"]([r["wall_s"] for r in traced])
                         / CENTRE["wall_s"](samples["wall_s"]) - 1.0)
            else:
                value = statistics.median_low(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": CENTRE[name](samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "versions": runs[0]["versions"],
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "src_seqgeo_lines": _src_lines(),
        "replications": replications,
        "grid_density": grid_density,
    }
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "repeats": len(plain), "traced_repeats": len(traced),
        "samples": samples, "provenance": provenance,
        "output_mismatch": mismatch, "problems": problems, "counts": counts,
        # An operation is one replication or one geometry check; a failed one
        # is an excluded replication or a check that did not pass.
        "result": {"correct": not problems,
                   "attempted": counts["replications"] + counts["checks"],
                   "failed": counts["excluded"] + counts["checks_failed"],
                   "metrics": metrics},
    }


def report_lines(out: dict) -> list[str]:
    """Human-readable lines printed before the result object."""
    lines = [f"workload {out['workload']}  seed {out['seed']}  repeats {out['repeats']}"
             + (f" untraced + {out['traced_repeats']} traced" if out["trace"] else "")
             + (f"  (the first at seed {BUNDLED_SEED})" if out["output_mismatch"] is not None else "")]
    for name, vals in out["samples"].items():
        q1, q3 = _quartiles(vals)
        unit = END_TO_END.get(name, "1/s")
        centre = CENTRE.get(name, statistics.median)
        lines.append(f"  {name:<26} {centre(vals):12.6g} {unit:<5} "
                     f"({centre.__name__} of {len(vals)}, q1 {q1:.6g}, q3 {q3:.6g})")
    counts = out["counts"]
    if counts["replications"]:
        frac = counts["excluded"] / counts["replications"]
        lines.append(f"  {'excluded_frac':<26} {frac:12.6g} ratio "
                     f"({counts['excluded']} of {counts['replications']})")
    if counts["checks"]:
        lines.append(f"  {'geometry_checks_failed':<26} {counts['checks_failed']:12d} count "
                     f"(of {counts['checks']})")
    mismatch = out["output_mismatch"]
    lines.append(f"  {'output_mismatch':<26} "
                 + (f"{mismatch:12d} count (golden at seed {BUNDLED_SEED})" if mismatch is not None
                    else f"{'n/a':>12} count (no golden at this size)"))
    for problem in out["problems"]:
        lines.append(f"  INCORRECT: {problem}")
    lines.append("provenance " + json.dumps(out["provenance"], sort_keys=True))
    lines.append("samples " + json.dumps(out["samples"]))
    return lines


def _terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps the running repeat.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BUNDLED_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/seqgeo/__init__.py").is_file():
        print("error: run from the root of a seqgeo checkout (src/seqgeo not found)", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report_lines(out):
        print(line)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
