"""Print the largest relative change of each CSV column between two results directories,
or of each field between two ``seqgeo geometry --json`` reports.

Given two directories, reads ``nonsequential.csv`` and ``sequential.csv``
from both, as ``seqgeo simulate`` writes them, and prints one line per file
and column: the largest ``|a - b| / max(|a|, |b|)`` over its rows (0 where
the values are equal, inf where only one is finite). Exits 1 when a file is
in only one directory, or when the two copies of a file differ in header, in
row count or in the cell column (``cell_N``, ``cell_K``), which the deltas of
the other columns assume equal, and when a path is not a directory or neither
directory holds either file.

Given two files, reads each as a ``geometry --json`` report and prints one
line per leaf, by its dotted key: the largest relative change of a number or
a list of numbers, or ``same`` for a flag or a name that is equal in both.
Exits 1 when the two reports have different keys or a flag or name differs.

    python tools/csv_delta.py out/parent/vmf out/change/vmf
    python tools/csv_delta.py parent.json change.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seqgeo import harness  # noqa: E402

FILES = tuple(harness.CSV_FILES.values())


def read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in harness.read_text(path).strip().splitlines()]


def rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def leaves(tree, prefix: str = "") -> dict:
    """The leaves of a JSON object by dotted key; a list is one leaf."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(leaves(value, f"{prefix}.{key}" if prefix else key))
    return out


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_reports(pa: Path, pb: Path) -> int:
    la, lb = leaves(json.loads(harness.read_text(pa))), leaves(json.loads(harness.read_text(pb)))
    if la.keys() != lb.keys():
        print(f"keys differ: {sorted(la.keys() ^ lb.keys())}")
        return 1
    status = 0
    for key, a in la.items():
        b = lb[key]
        xs, ys = (a, b) if isinstance(a, list) and isinstance(b, list) else ([a], [b])
        if len(xs) == len(ys) and all(map(is_number, xs + ys)):
            print(f"{key:<45} {max(map(rel_change, xs, ys), default=0.0):.2g}")
        elif a == b:
            print(f"{key:<45} same")
        else:
            print(f"{key:<45} {a!r} != {b!r}")
            status = 1
    return status


def compare_directories(da: Path, db: Path) -> int:
    for d in (da, db):
        if not d.is_dir():
            print(f"{d}: not a directory")
            return 1
    if not any((d / name).exists() for d in (da, db) for name in FILES):
        print(f"{da}, {db}: neither directory holds {' or '.join(FILES)}")
        return 1
    status = 0
    for name in FILES:
        pa, pb = da / name, db / name
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first results directory or geometry report")
    parser.add_argument("b", type=Path, help="second results directory or geometry report")
    args = parser.parse_args(argv)
    if args.a.is_file() and args.b.is_file():
        return compare_reports(args.a, args.b)
    return compare_directories(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
