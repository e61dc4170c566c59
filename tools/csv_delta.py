"""Print the largest relative change of each CSV column between two results directories.

Reads ``nonsequential.csv`` and ``sequential.csv`` from both directories,
as ``seqgeo simulate`` writes them, and prints one line per file and column:
the largest ``|a - b| / max(|a|, |b|)`` over its rows (0 where the values
are equal, inf where only one is finite). Exits 1 when a file is in only
one directory, or when the two copies of a file differ in header, in row
count or in the cell column (``cell_N``, ``cell_K``), which the deltas of the
other columns assume equal.

    python tools/csv_delta.py out/parent/vmf out/change/vmf
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seqgeo import harness  # noqa: E402

FILES = ("nonsequential.csv", "sequential.csv")


def read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in harness.read_text(path).strip().splitlines()]


def rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first results directory")
    parser.add_argument("b", type=Path, help="second results directory")
    args = parser.parse_args(argv)
    status = 0
    for name in FILES:
        pa, pb = args.a / name, args.b / name
        if not (pa.exists() or pb.exists()):
            continue
        if not (pa.exists() and pb.exists()):
            print(f"{name}: in only one directory")
            status = 1
            continue
        ra, rb = read_rows(pa), read_rows(pb)
        if ra[0] != rb[0] or len(ra) != len(rb) or [r[0] for r in ra] != [r[0] for r in rb]:
            print(f"{name}: headers or cells differ")
            status = 1
            continue
        for col, column in enumerate(ra[0]):
            delta = max((rel_change(float(x[col]), float(y[col])) for x, y in zip(ra[1:], rb[1:])),
                        default=0.0)
            print(f"{name}  {column:<10} {delta:.2g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
