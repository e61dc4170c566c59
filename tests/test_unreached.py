import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import unreached  # noqa: E402

# src lines that no subcommand enters (_Gate.inconclusive, _first, _hankel_sum):
# the library holds no code that only the tests use
UNREACHED_CEILING = 18


@pytest.fixture(scope="module")
def report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert unreached.main([]) == 0
    return out.getvalue().splitlines()


def test_unreached_smoke(report, tmp_path):
    listed = [(line.split()[0].split(":")[0], line.split()[1]) for line in report[:-2]]
    # functions the subcommands never enter are listed with their file; their own are not
    assert {("geometry.py", "_first"), ("models.py", "_hankel_sum")} <= set(listed)
    names = {name for _, name in listed}
    assert {"stop_cell", "frame_at", "quadric_coordinates", "cmd_report"}.isdisjoint(names)
    assert "VmfModel.sample_many" not in names
    total = sum(int(line.split()[2]) for line in report[:-2])
    assert report[-2].startswith(f"total: {total} unreached lines in {len(report) - 2} functions")
    # the frozen seed's verdicts: at 20 replications (2 per batch) report fails a
    # gate on both configs, and every geometry case passes
    geometry = [f"geometry {model} m={m} r={r}{mode} 0"
                for model, m, r in unreached.GEOMETRY_CASES for mode in ("", " --json")]
    assert report[-1] == "exit codes: " + ", ".join(
        ["simulate vmf 0", "report vmf 2", "simulate hyperboloid 0", "report hyperboloid 2"] + geometry)
    # matched by file and first line: two closures of one name, as a family
    # defines one potential per dimension, are two functions, not merged by name
    (tmp_path / "fam.py").write_text("def family(m):\n    if m == 2:\n        def fval(r):\n"
                                     "            return r\n    else:\n        def fval(r):\n"
                                     "            return -r\n    return fval\n")
    keys = [(first, name) for _, first, _, name, _ in unreached.src_functions(tmp_path)]
    assert keys == [(1, "family"), (3, "family.fval"), (6, "family.fval")]


def test_unreached_ceiling(report):
    total = int(report[-2].split()[1])
    assert total <= UNREACHED_CEILING, "\n".join(report[:-2])
