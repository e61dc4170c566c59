"""One repeat of one benchmark workload, in a fresh process.

Run from the root of a seqgeo checkout by ``perfbench/run.py``; it imports
the library from ``src/`` of that checkout, runs the workload through the
public entry points only, and writes one JSON result file:

    python3 perfbench/workload.py SPEC_JSON RESULT_PATH

``SPEC_JSON`` holds ``workload``, ``seed``, ``replications``,
``grid_density``, ``trace``, ``workdir`` and ``t_spawn`` (the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide, so set-up time counts interpreter start-up too).
"""

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

BUNDLED_SEED = 20250101
# The phases each workload runs, in order. ``sequential`` loads the sampler's
# per-call cost and the stopping loop; ``nonsequential`` and ``geometry`` both
# load the per-point geometry, and only ``geometry`` reaches m = 3 and the
# Weyl-Schouten/flatness layer.
WORKLOADS = {
    "mc-sequential": ("sequential",),
    "fixed-n-geometry": ("nonsequential", "geometry"),
}
MC_CONFIGS = ("vmf", "hyperboloid")
# (model, m, r) of each geometry check, as in the README's examples plus m = 3.
GEOMETRY_CASES = (("vmf", 2, 0.25), ("hyperboloid", 2, 0.1), ("vmf", 3, 1.0))


class FirstCall:
    """Marks the first call of one public function after each ``arm``.

    The end-to-end run uses it to split an entry point's own set-up (model
    build, quadric gauge, CRB) from its main loop without tracing: the
    first replication seed, or the first classification, ends set-up.
    """

    def __init__(self, module, attr: str):
        self.module, self.attr = module, attr
        self.original = getattr(module, attr)
        self.t = None
        setattr(module, attr, self)

    def arm(self) -> None:
        self.t = None

    def __call__(self, *args, **kwargs):
        if self.t is None:
            self.t = time.monotonic()
        return self.original(*args, **kwargs)

    def remove(self) -> None:
        setattr(self.module, self.attr, self.original)


def _plain(value):
    """JSON form of the numpy scalars inside a geometry report."""
    return value.item()


def _versions(np) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def run(spec: dict) -> dict:
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import numpy as np

    import seqgeo
    from seqgeo import cli, geometry, harness

    if Path(seqgeo.__file__).resolve().parent != (src / "seqgeo").resolve():
        raise RuntimeError(f"imported seqgeo from {seqgeo.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(seqgeo)
    seed = int(spec["seed"])
    rep_marker = FirstCall(harness, "rep_seed")
    cls_marker = FirstCall(geometry, "classify")

    outputs: dict = {}
    phases: dict = {}
    counts = {"replications": 0, "excluded": 0, "checks": 0, "checks_failed": 0}
    in_call_setup = 0.0
    t_main = time.monotonic()
    for phase in WORKLOADS[spec["workload"]]:
        items, main_s = 0, 0.0
        if phase == "geometry":
            for model, m, r in GEOMETRY_CASES:
                cls_marker.arm()
                t_call = time.monotonic()
                rep = cli.geometry_report(model, m, r, grid_density=spec["grid_density"])
                t_done = time.monotonic()
                in_call_setup += cls_marker.t - t_call
                main_s += t_done - cls_marker.t
                outputs[f"{model}-m{m}"] = json.loads(json.dumps(rep, default=_plain))
                counts["checks"] += 1
                counts["checks_failed"] += 0 if rep["pass"] else 1
                items += spec["grid_density"]
        else:
            run_suite = harness.run_nonsequential if phase == "nonsequential" else harness.run_sequential
            for name in MC_CONFIGS:
                config = dataclasses.replace(
                    harness.parse_config(src / "seqgeo" / "configs" / f"{name}.conf"),
                    replications=spec["replications"], seed=seed,
                    outdir=str(Path(spec["workdir"]) / name))
                rep_marker.arm()
                t_call = time.monotonic()
                table = run_suite(config)
                (path,) = [p for p in harness.write_results([table], config.outdir, config)
                           if p.suffix == ".csv"]
                t_done = time.monotonic()
                in_call_setup += rep_marker.t - t_call
                main_s += t_done - rep_marker.t
                outputs[f"{phase}-{name}"] = path.read_text().splitlines()
                reps = len(table.rows) * config.replications
                counts["replications"] += reps
                counts["excluded"] += sum(row.excluded for row in table.rows)
                items += reps
        phases[phase] = {"items": items, "main_s": main_s}
    t_end = time.monotonic()
    cls_marker.remove()
    rep_marker.remove()

    result = {
        "setup_s": (t_main - spec["t_spawn"]) + in_call_setup,
        "wall_s": (t_end - t_main) - in_call_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phases": phases,
        "counts": counts,
        "outputs": outputs,
        "versions": _versions(np),
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics

        result["restored"] = tracer.restored()
        result["layers"] = layer_metrics(tracer.spans, t_end - t_main)
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    result = run(spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
