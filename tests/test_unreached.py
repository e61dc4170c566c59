import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import unreached  # noqa: E402


def test_unreached_smoke(capsys):
    assert unreached.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line.split()[1] for line in lines[:-2]]
    names = set(listed)
    # functions only the tests call are listed; the subcommands' own are not
    assert {"exp_linear_gauge", "gaussian_family", "rc_curvature"} <= names
    assert {"stop_cell", "frame_at", "quadric_gauge", "cmd_report"}.isdisjoint(names)
    # matched by file and first line: vmf_family defines one potential for
    # m = 2 and another for m >= 3, and both are listed, not merged by name
    assert listed.count("vmf_family.fval") == 2
    assert "VmfModel.sample_many" not in names
    total = sum(int(line.split()[2]) for line in lines[:-2])
    assert lines[-2].startswith(f"total: {total} unreached lines in {len(lines) - 2} functions")
    assert lines[-1].startswith("exit codes: simulate vmf 0, report vmf ")
