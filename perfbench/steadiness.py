"""Run-to-run steadiness of the end-to-end metrics.

Run from the root of a seqgeo checkout:

    python3 perfbench/steadiness.py [--seeds 10] [--workloads mc-sequential ...] [--out FILE]

It runs ``perfbench/run.py --trace 0`` once per seed (1, 2, ...) on each
workload, at the ``run_seconds`` of ``BENCHMARK.json``, and reports for
each end-to-end metric the quartiles of the values the runs report and
their spread: (q3 - q1) / median, as ``statistics.quantiles(values, n=4)``
gives the quartiles. The spread is also given for the value of only the
first k repeats of each run, which shows how many repeats a run needs
before the metric holds still. Every run must be correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import CENTRE, WORKLOADS  # noqa: E402


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) of the values of a set of runs."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{proc.stdout}")
    samples = json.loads(next(line for line in lines if line.startswith("samples "))[8:])
    return {"seed": seed, "result": result, "samples": samples}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3, rel = spread(values)
        min_repeats = min(len(r["samples"][name]) for r in runs)
        by_k = {k: spread([CENTRE[name](r["samples"][name][:k]) for r in runs])[3]
                for k in range(1, min_repeats + 1)}
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bound,
                     "within_third_of_bound": rel < bound / 3.0,
                     "spread_by_repeats": by_k, "run_values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in report["seeds"]]
        repeats = [len(r["samples"]["wall_s"]) for r in runs]
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {"repeats_per_run": repeats, "metrics": summary,
                                         "samples": [r["samples"] for r in runs]}
        for name, s in summary.items():
            by_k = " ".join(f"{k}:{v:.3f}" for k, v in s["spread_by_repeats"].items())
            print(f"{workload:<16} {name:<12} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} (bound {s['bound']}) "
                  f"by repeats {by_k}", flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
