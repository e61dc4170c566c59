"""Smoke test of the benchmark at a tiny size, traced and untraced.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric ``BENCHMARK.json`` declares is printed with its
unit, that the work counts repeat exactly between two traced runs, and the
bypass predictions of ``perfbench/README.md``. It is not part of tier 1.
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {"replications": 4, "grid_density": 4}
# Counts that must repeat exactly: they depend on the seed, never on timing.
EXACT_COUNTS = (
    "models.sample_many.calls",
    "models.sample_many.draws",
    "sequential.run_stopping.calls",
    "geometry.frame_at.calls",
    "models.mle_direction.undefined",
    "sequential.run_stopping.runaway",
)


@pytest.fixture(scope="module", autouse=True)
def at_checkout_root():
    old = os.getcwd()
    os.chdir(HERE.parent)
    yield
    os.chdir(old)


@pytest.fixture(scope="module")
def declared():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _units(out):
    return {name: m["unit"] for name, m in out["result"]["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload, declared):
    end_to_end, per_layer = declared
    plain = run.measure(workload, 1, 0, trace=False, min_repeats=1, **TINY)
    traced = [run.measure(workload, 1, 0, trace=True, **TINY) for _ in range(2)]
    for out in (plain, *traced):
        assert out["result"]["correct"], out["problems"]
        assert out["output_mismatch"] is None  # no golden at this size
        assert out["result"]["attempted"] >= 1

    assert _units(plain) == end_to_end
    text = "\n".join(run.report_lines(plain))
    for name in ("setup_s", "wall_s", "reps_per_s", "peak_rss_mb", "excluded_frac", "output_mismatch"):
        assert name in text
    if workload == "fixed-n-geometry":
        assert "points_per_s" in text

    first, second = (t["result"]["metrics"] for t in traced)
    assert _units(traced[0]) == per_layer
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert traced[0]["result"]["failed"] == traced[1]["result"]["failed"]

    calls = {name: m["value"] for name, m in first.items()}
    # one untraced and one traced repeat
    replications = traced[0]["counts"]["replications"] // 2
    if workload == "fixed-n-geometry":
        assert calls["models.sample_many.calls"] == replications
        assert calls["sequential.run_stopping.calls"] == 0
        assert calls["conformal.weyl_schouten.calls"] == 3 * TINY["grid_density"]
    else:
        assert calls["sequential.bias_correct.calls"] == 0
        assert calls["models.sample_many.calls"] >= 4 * replications
        assert calls["conformal.weyl_schouten.calls"] == 0


def test_self_time_subtracts_direct_children():
    spans = []
    for name, start, end, parent in (("harness.run_sequential", 0.0, 10.0, None),
                                     ("sequential.run_stopping", 2.0, 5.0, 0),
                                     ("models.sample_many", 3.0, 4.0, 1),
                                     ("sequential.run_stopping", 6.0, 7.0, 0)):
        span = tracing.Span(name, start, parent)
        span.end = end
        span.note = 5 if name == "models.sample_many" else (4, 0.5)
        spans.append(span)
    got = tracing.layer_metrics(spans, traced_wall_s=10.0)
    assert got["harness.run_sequential.self_s"] == 6.0
    assert got["sequential.run_stopping.self_s"] == 3.0
    assert got["models.sample_many.self_s"] == 1.0
    assert got["sequential.run_stopping.calls"] == 2
    assert got["sequential.run_stopping.bursts_per_call"] == 0.5
    assert got["sequential.run_stopping.useful_draw_ratio"] == 8 / 5
    # (run_stopping 3 + sample_many 1) / 10; the root harness.run_sequential is left out
    assert got["trace.named_self_frac"] == 0.4
