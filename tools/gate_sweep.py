"""Measure how often the statistical gates of ``seqgeo report`` fail at fresh seeds.

Runs both bundled experiment configs at each given seed, scores every run
with ``cli.evaluate_gates``, and prints per config the failure rate of each
kind of gate (over its conclusive checks) and of whole runs, each with a
Wilson 95 % interval. Gates, bounds and batch counts are the report's own.

    python tools/gate_sweep.py --seeds 1001-1040
    python tools/gate_sweep.py --seeds 1 2 --replications 20

At most two worker processes run at once.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import multiprocessing
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import seqgeo  # noqa: E402
from seqgeo import cli, harness  # noqa: E402
from seqgeo.errors import ParameterError, RunawayStopError  # noqa: E402

CONFIGS = ("vmf", "hyperboloid")
MAX_PROCESSES = 2
Z95 = 1.959963984540054


def wilson(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % interval of a binomial rate ``k / n``, ``n > 0``."""
    p = k / n
    den = 1.0 + Z95 ** 2 / n
    mid = (p + Z95 ** 2 / (2 * n)) / den
    half = Z95 * math.sqrt(p * (1.0 - p) / n + Z95 ** 2 / (4 * n * n)) / den
    return max(0.0, mid - half), min(1.0, mid + half)


def gate_kind(name: str) -> str:
    """The gate's name without its cell and component: ``seq K=433 CCOV12 vs CCRB12`` -> ``seq CCOV vs CCRB``."""
    name = re.sub(r" (?:[NK]=\S+|at cell \S+)", "", name)
    return re.sub(r"\b([A-Z]{4})\d\d\b", r"\1", name)


def run_one(job: tuple[str, harness.ExperimentConfig, int]) -> tuple[str, list[tuple[str, str]] | None]:
    """Run one config at one seed and return its gate entries (``None`` on an exclusion failure)."""
    name, config, seed = job
    with tempfile.TemporaryDirectory() as out:
        try:
            harness.run_experiment(dataclasses.replace(config, seed=seed, outdir=out))
        except RunawayStopError:
            return name, None
        gate, _ = cli.evaluate_gates(out)
    return name, gate.entries


def sweep(configs: dict[str, harness.ExperimentConfig], seeds: list[int]) -> list[tuple[str, list | None]]:
    jobs = [(name, config, seed) for name, config in configs.items() for seed in seeds]
    with multiprocessing.get_context("spawn").Pool(min(MAX_PROCESSES, len(jobs))) as pool:
        return pool.map(run_one, jobs, chunksize=1)


def summarize(results) -> list[str]:
    lines = []
    for name in CONFIGS:
        runs = [entries for cfg, entries in results if cfg == name]
        counts: dict[str, list[int]] = {}
        failed_runs = 0
        for entries in runs:
            if entries is None:
                failed_runs += 1
                continue
            for gate, verdict in entries:
                c = counts.setdefault(gate_kind(gate), [0, 0, 0])  # failed, conclusive, inconclusive
                if verdict.startswith("inconclusive"):
                    c[2] += 1
                else:
                    c[1] += 1
                    c[0] += verdict.startswith("FAIL")
            failed_runs += any(verdict.startswith("FAIL") for _, verdict in entries)
        excluded = sum(entries is None for entries in runs)
        lines.append(f"{name}: {len(runs)} runs, {excluded} ended in an exclusion failure")
        lines.append(f"  {'gate':<32} {'fail/checks':>12} {'rate':>7} {'95% interval':>16} {'inconcl.':>9}")
        for kind, (fail, conclusive, inconclusive) in counts.items():
            lines.append(f"  {kind:<32} {_rate(fail, conclusive)} {inconclusive:>9}")
        lines.append(f"  {'runs failing any gate':<32} {_rate(failed_runs, len(runs))}")
    return lines


def _rate(k: int, n: int) -> str:
    if n == 0:
        return f"{'0/0':>12} {'-':>7} {'-':>16}"
    lo, hi = wilson(k, n)
    return f"{f'{k}/{n}':>12} {k / n:>7.1%} {f'{lo:.1%}-{hi:.1%}':>16}"


def parse_seeds(tokens: list[str]) -> list[int]:
    """The seeds of tokens such as ``1001-1040`` or ``7``; raises ``ValueError`` on an
    empty or reversed range and on a seed given twice, which would count as two runs."""
    seeds = []
    for tok in tokens:
        first, _, last = tok.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise ValueError(f"seed range {tok!r} is empty")
        repeated = sorted(s for s in seeds if s in span)
        if repeated:
            raise ValueError(f"seed {repeated[0]} is given twice")
        seeds += span
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges such as 1001-1040")
    parser.add_argument("--replications", type=int, default=None,
                        help="replications per cell (default: the config's)")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds: {exc}")
    configs = {name: harness.parse_config(Path(seqgeo.__file__).parent / "configs" / f"{name}.conf")
               for name in CONFIGS}
    if args.replications is not None:
        # the config checks the count before any simulation runs
        try:
            configs = {name: dataclasses.replace(c, replications=args.replications) for name, c in configs.items()}
        except ParameterError as exc:
            parser.error(f"--replications: {exc}")
    for line in summarize(sweep(configs, seeds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
