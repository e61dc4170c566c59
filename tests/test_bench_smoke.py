"""Tier-1 smoke test of the benchmark workload at a tiny size, and its golden check.

It runs ``perfbench/workload.py``'s ``run()`` in this process, untraced and
traced, so that a change to the entry points the benchmark marks
(``geometry.classify``, ``harness.rep_seed``) or wraps shows up here and not
only in a benchmark run. It also runs each workload once untraced at the
benchmark's own sizes and bundled seed, and checks its outputs against the
golden that ``perfbench/run.py`` checks, so that a change that moves an
output past the golden's 1e-12 fails here too.
"""

import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workload

    return workload


@pytest.mark.parametrize("name", ["mc-sequential", "fixed-n-geometry"])
def test_outputs_match_golden(workload, name, tmp_path):
    import run

    spec = {"workload": name, "seed": workload.BUNDLED_SEED, "replications": run.REPLICATIONS,
            "grid_density": run.GRID_DENSITY, "trace": 0, "workdir": str(tmp_path),
            "t_spawn": time.monotonic()}
    outputs = workload.run(spec)["outputs"]
    assert run.output_mismatch(outputs, run.load_golden(name)) == 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["mc-sequential", "fixed-n-geometry"])
def test_workload_runs_clean(workload, name, trace, tmp_path):
    spec = {"workload": name, "seed": 1, "replications": 4, "grid_density": 4,
            "trace": trace, "workdir": str(tmp_path), "t_spawn": time.monotonic()}
    result = workload.run(spec)
    counts = result["counts"]
    assert counts["replications"] > 0
    assert counts["excluded"] == 0
    assert counts["checks_failed"] == 0
    if name == "fixed-n-geometry":
        assert counts["checks"] == len(workload.GEOMETRY_CASES)
    if trace:
        layers = result["layers"]
        assert result["restored"]
        assert layers["geometry.frame_at.calls"] > 0
        if name == "mc-sequential":
            # the shape the benchmark reads: one sampler call per burst over the
            # live replications of a cell, at least one per cell of the two
            # bundled 10-cell grid_K, and one replication seed each, the first
            # ending set-up
            assert layers["models.sample_many.calls"] >= 20
            assert layers["harness.rep_seed.calls"] == counts["replications"]
            # the flattening map is built from the closed-form gauge, so the
            # sequential suite runs no geometry verification
            assert layers["geometry.classify.calls"] == 0
            assert layers["conformal.gauge_pde_residual.calls"] == 0
            # the stopping rule and the estimate both read stop_terms, so the
            # sequential suite makes no estimator call, and criterion_many is gone
            assert layers["models.mle_many.calls"] == 0
            assert layers["models.criterion_many.calls"] == 0
        else:
            # one sampler call per block of ROWS // N replications of a cell:
            # one block of 4 per cell of the two bundled 10-cell grid_N, but
            # two for the hyperboloid's N = 1300 (ROWS // 1300 = 3); one seed
            # per replication, and one bias correction per cell
            assert layers["models.sample_many.calls"] == 21
            assert layers["harness.rep_seed.calls"] == counts["replications"]
            assert layers["sequential.bias_correct.calls"] == 20
            # one Weyl-Schouten call per geometry case, over its probe grid's bundle
            assert layers["conformal.weyl_schouten.calls"] == 3
            # per config one bundle at the truth point, read by the CRB and the
            # second-order term, and one per cell's bias correction; per geometry
            # case one over the probe grid, read by classify, the Weyl-Schouten
            # set and the gauge equation, and one for the flattened checks, which
            # the flattening map reads too
            assert layers["geometry.frame_at.calls"] == 2 * (1 + 10) + 3 * (1 + 1)
