"""List the ``src`` functions that none of the three subcommands enters.

Runs ``simulate`` and ``report`` on both bundled experiment configs (at
``REPLICATIONS`` replications per cell) and ``geometry``, in text and in
JSON, on both models at m = 2 and 3, all through ``cli.main`` under
``sys.setprofile``. A function counts as entered when a frame of its code
starts; functions are matched by file and first line, not by name, so a
method that shares its name with a reached one is still seen.
Prints every function never entered with its line count, the total, and each
subcommand's exit code. A function nested in an unreached one is counted
with it, not again.

    python tools/unreached.py
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

CONFIGS = ("vmf", "hyperboloid")
# replications per cell of each bundled config
REPLICATIONS = 20
# (model, m, r): the geometry cases of the README
GEOMETRY_CASES = (("vmf", 2, 0.25), ("hyperboloid", 2, 0.1), ("vmf", 3, 1.0), ("hyperboloid", 3, 0.1))


def src_functions(src: Path) -> list[tuple[str, int, int, str, tuple[str, int] | None]]:
    """Every function defined under ``src``: ``(file, first line, line count,
    qualified name, key of the enclosing function or None)``.

    The first line is the one a code object reports: the first decorator's,
    if any, else the ``def``'s.
    """
    out = []

    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((path, first, child.end_lineno - first + 1, name, parent))
                visit(child, path, name + ".", (path, first))
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", parent)
            else:
                visit(child, path, prefix, parent)

    for path in sorted(src.glob("*.py")):
        real = os.path.realpath(path)
        visit(ast.parse(path.read_text(), str(path)), real, "", None)
    return out


def run_subcommands() -> tuple[set[tuple[str, int]], list[str]]:
    """The ``(file, first line)`` of every code object entered while the
    subcommands run, and one ``"<subcommand> <case> <exit code>"`` per run."""
    entered: set[tuple[str, int]] = set()
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        import seqgeo
        from seqgeo import cli

        # a cached function is entered only on a miss, so start from empty
        # caches: a caller earlier in the process does not hide it
        for name, module in list(sys.modules.items()):
            if name.startswith("seqgeo"):
                for obj in vars(module).values():
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()
        configs = Path(seqgeo.__file__).parent / "configs"
        with tempfile.TemporaryDirectory() as tmp:
            for name in CONFIGS:
                out = Path(tmp) / name
                text = (configs / f"{name}.conf").read_text()
                text = re.sub(r"(?m)^replications = .*$", f"replications = {REPLICATIONS}", text)
                text = re.sub(r"(?m)^outdir = .*$", f"outdir = {out}", text)
                conf = Path(tmp) / f"{name}.conf"
                conf.write_text(text)
                codes.append(f"simulate {name} {cli.main(['simulate', '--config', str(conf)])}")
                codes.append(f"report {name} {cli.main(['report', '--results', str(out)])}")
            for model, m, r in GEOMETRY_CASES:
                for mode in ([], ["--json"]):
                    code = cli.main(["geometry", "--model", model, "--m", str(m), "--r", str(r)] + mode)
                    codes.append(f"geometry {model} m={m} r={r}{' --json' if mode else ''} {code}")
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(f), line) for f, line in entered}, codes


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)

    src = Path(importlib.util.find_spec("seqgeo").origin).parent
    functions = src_functions(src)
    # the subcommands' own output is not the report
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            entered, codes = run_subcommands()
        finally:
            sys.stdout = stdout

    unreached = {(path, first) for path, first, _, _, _ in functions} - entered
    listed = [f for f in functions if (f[0], f[1]) in unreached and f[4] not in unreached]
    total = 0
    for path, first, count, name, _ in listed:
        print(f"{Path(path).name}:{first}  {name}  {count} lines")
        total += count
    src_lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    print(f"total: {total} unreached lines in {len(listed)} functions, of {src_lines} src lines")
    print("exit codes: " + ", ".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
