import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import csv_delta  # noqa: E402
from seqgeo import cli  # noqa: E402
from seqgeo.harness import CSV_FILES, NONSEQ_COLUMNS, SEQ_COLUMNS  # noqa: E402


def write_results(out: Path) -> Path:
    """A results directory's two CSVs: one fixed-N cell, two sequential cells."""
    out.mkdir()
    (out / CSV_FILES["nonsequential"]).write_text(",".join(NONSEQ_COLUMNS) + "\n"
                                                  + ",".join(["100"] + ["0.5"] * 12 + ["0"]) + "\n")
    (out / CSV_FILES["sequential"]).write_text(",".join(SEQ_COLUMNS) + "\n"
                                               + "\n".join(",".join([k] + ["2.25"] * 12 + ["0"]) for k in ("5", "7"))
                                               + "\n")
    return out


def deltas(out: str) -> dict:
    return {tuple(line.split()[:2]): float(line.split()[2]) for line in out.splitlines()}


def test_identical_directories_read_zero(tmp_path, capsys):
    a = write_results(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    assert csv_delta.main([str(a), str(b)]) == 0
    got = deltas(capsys.readouterr().out)
    assert len(got) == len(NONSEQ_COLUMNS) + len(SEQ_COLUMNS)
    assert set(got.values()) == {0.0}


def test_one_value_is_reported_under_its_column(tmp_path, capsys):
    a = write_results(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    seq = b / "sequential.csv"
    lines = seq.read_text().splitlines()
    cells = lines[2].split(",")
    cells[SEQ_COLUMNS.index("CCOV12")] = "2.5"
    lines[2] = ",".join(cells)
    seq.write_text("\n".join(lines) + "\n")
    assert csv_delta.main([str(a), str(b)]) == 0
    got = deltas(capsys.readouterr().out)
    assert got[("sequential.csv", "CCOV12")] == 0.1  # |2.25 - 2.5| / 2.5
    assert {key for key, value in got.items() if value} == {("sequential.csv", "CCOV12")}


def test_header_or_cells_differ_exit_one(tmp_path, capsys):
    a = write_results(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    seq = b / "sequential.csv"
    seq.write_text(seq.read_text().replace("\n7,", "\n8,"))
    assert csv_delta.main([str(a), str(b)]) == 1
    assert "sequential.csv: headers or cells differ" in capsys.readouterr().out
    (b / "nonsequential.csv").unlink()
    assert csv_delta.main([str(a), str(b)]) == 1
    assert "nonsequential.csv: in only one directory" in capsys.readouterr().out


def test_missing_or_empty_directories_exit_one(tmp_path, capsys):
    # a mistyped path, or two directories without results, once read as "no change"
    a = write_results(tmp_path / "a")
    missing = tmp_path / "missing"
    assert csv_delta.main([str(a), str(missing)]) == 1
    assert f"{missing}: not a directory" in capsys.readouterr().out
    assert csv_delta.main([str(missing), str(a)]) == 1
    assert f"{missing}: not a directory" in capsys.readouterr().out
    empty_a, empty_b = tmp_path / "empty_a", tmp_path / "empty_b"
    empty_a.mkdir()
    empty_b.mkdir()
    assert csv_delta.main([str(empty_a), str(empty_b)]) == 1
    assert "neither directory holds nonsequential.csv or sequential.csv" in capsys.readouterr().out
    # one CSV in one directory is a difference, and is reported as before
    assert csv_delta.main([str(a), str(empty_b)]) == 1
    assert "nonsequential.csv: in only one directory" in capsys.readouterr().out


def test_geometry_reports(tmp_path, capsys):
    # two geometry --json reports: a line per leaf, the relative change of a
    # number or a list of numbers, flags and names compared exactly
    rep = cli.geometry_report("vmf", 2, 0.25, grid_density=4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(rep, default=float))
    b.write_text(json.dumps(rep, default=float))
    assert csv_delta.main([str(a), str(b)]) == 0
    got = {line.split()[0]: line.split()[1] for line in capsys.readouterr().out.splitlines()}
    assert got["pass"] == got["model"] == got["classification.umbilic"] == "same"
    assert got["weyl_schouten_worst_point"] == got["classification.k0"] == "0"
    assert set(got.values()) == {"0", "same"}

    rep["weyl_schouten_residuals"]["w3"] = 2.0 * rep["weyl_schouten_residuals"]["w3"]
    rep["weyl_schouten_worst_point"][1] += 1.0
    b.write_text(json.dumps(rep, default=float))
    assert csv_delta.main([str(a), str(b)]) == 0
    got = {line.split()[0]: line.split()[1] for line in capsys.readouterr().out.splitlines()}
    assert got["weyl_schouten_residuals.w3"] == "0.5"
    assert {key for key, value in got.items() if value not in ("0", "same")} == {
        "weyl_schouten_residuals.w3", "weyl_schouten_worst_point"}

    rep["conformally_flat"] = False
    b.write_text(json.dumps(rep, default=float))
    assert csv_delta.main([str(a), str(b)]) == 1
    assert "conformally_flat" in capsys.readouterr().out
    del rep["h1_bar_residual"]
    b.write_text(json.dumps(rep, default=float))
    assert csv_delta.main([str(a), str(b)]) == 1
    assert "keys differ: ['h1_bar_residual']" in capsys.readouterr().out
