import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import gate_sweep  # noqa: E402


def test_sweep_smoke(capsys):
    # both bundled configs at two seeds and 20 replications, scored by the report's gates
    assert gate_sweep.main(["--seeds", "1-2", "--replications", "20"]) == 0
    out = capsys.readouterr().out
    for name in gate_sweep.CONFIGS:
        assert f"{name}: 2 runs" in out
    assert out.count("runs failing any gate") == 2
    for kind in ("nonseq OCOV vs OALB", "seq CCOV vs CCRB", "seq MST vs K*nu+c", "exclusions"):
        assert out.count(f"  {kind} ") == 2


def test_gate_kind_drops_cell_and_component():
    assert gate_sweep.gate_kind("seq K=433.0127 CCOV12 vs CCRB12") == "seq CCOV vs CCRB"
    assert gate_sweep.gate_kind("nonseq N=1000 OALB22 > OCRB22") == "nonseq OALB > OCRB"
    assert gate_sweep.gate_kind("seq K=194.8557 MST vs K*nu+c") == "seq MST vs K*nu+c"
    assert gate_sweep.gate_kind("exclusions at cell 100") == "exclusions"
    assert gate_sweep.gate_kind("seq SDST/sqrt(K) stability") == "seq SDST/sqrt(K) stability"


def test_wilson_interval():
    lo, hi = gate_sweep.wilson(18, 40)
    assert lo == pytest.approx(0.3071, abs=1e-4) and hi == pytest.approx(0.6017, abs=1e-4)
    assert gate_sweep.wilson(0, 10) == pytest.approx((0.0, 0.2775), abs=1e-4)
    assert gate_sweep.wilson(10, 10) == pytest.approx((0.7225, 1.0), abs=1e-4)
    assert gate_sweep.parse_seeds(["1001-1003", "7"]) == [1001, 1002, 1003, 7]


@pytest.mark.parametrize("seeds, message", [
    (["1040-1001"], "seed range '1040-1001' is empty"),
    (["1001-1003", "1002"], "seed 1002 is given twice"),
    (["7", "5-8"], "seed 7 is given twice"),
    (["x"], "invalid literal"),
], ids=["reversed", "repeated", "repeated-in-range", "not-a-number"])
def test_bad_seeds_are_usage_errors(seeds, message, capsys):
    # a reversed range gave no seeds and a Pool(0) traceback; a repeated seed ran twice
    # and counted as two independent runs; neither runs a simulation now
    with pytest.raises(SystemExit) as exc:
        gate_sweep.main(["--seeds", *seeds])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


@pytest.mark.parametrize("replications", ["1", "0", "-5"])
def test_bad_replications_are_usage_errors(replications, capsys, monkeypatch):
    # a count below 2 raised ParameterError inside the worker pool; now it is
    # refused before any simulation
    monkeypatch.setattr(gate_sweep, "sweep", lambda *args: pytest.fail("a simulation ran"))
    with pytest.raises(SystemExit) as exc:
        gate_sweep.main(["--seeds", "1", "--replications", replications])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--replications: need at least 2 replications" in err
