import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import gate_sweep  # noqa: E402
import ulp_noise  # noqa: E402
from seqgeo import models  # noqa: E402
from seqgeo.harness import NONSEQ_COLUMNS, SEQ_COLUMNS  # noqa: E402

from conftest import U0_HYP, U0_VMF  # noqa: E402


def test_noise_is_one_ulp_and_goes(vmf, hyp):
    original = models._DirectionalModel.sample_many
    for model, u0 in ((vmf, U0_VMF), (hyp, U0_HYP)):
        plain = model.sample_many(u0, [np.random.default_rng(3)], 200)
        with ulp_noise.ulp_noise():
            noisy = model.sample_many(u0, [np.random.default_rng(3)], 200)
        assert np.all((noisy == plain * (1.0 - ulp_noise.EPS)) | (noisy == plain * (1.0 + ulp_noise.EPS)))
        assert np.any(noisy != plain)
    assert models._DirectionalModel.sample_many is original


def test_ulp_noise_smoke(capsys):
    # both bundled configs at 4 replications: a draw's ulp moves the covariances
    # by rounding noise and leaves the cells and the bounds as they are
    assert ulp_noise.main(["--replications", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "replications" in line] == [
        f"{name}: 4 replications, draws times 1 +- 2^-52" for name in gate_sweep.CONFIGS]
    deltas = [(line.split()[1], float(line.split()[2])) for line in lines if ".csv" in line]
    assert len(deltas) == 2 * (len(NONSEQ_COLUMNS) + len(SEQ_COLUMNS))
    assert all(delta == 0.0 for column, delta in deltas if column[:4] in ("cell", "OCRB", "OALB", "CCRB"))
    assert 0.0 < max(delta for _, delta in deltas) < 1e-10
