"""Pin the golden outputs that every benchmark run is checked against.

Run from the root of a seqgeo checkout whose outputs are the reference:

    python3 perfbench/pin_golden.py

It runs each workload once at the bundled seed and at the benchmark's
sizes, and writes ``perfbench/golden/<workload>.json``. Re-pinning changes
what counts as correct, so a change that does it must say why.
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import GRID_DENSITY, REPLICATIONS, WORKLOADS, golden_path, golden_view, spawn
from workload import BUNDLED_SEED


def main() -> int:
    workdir = Path.cwd() / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            res = spawn({"workload": workload, "seed": BUNDLED_SEED, "replications": REPLICATIONS,
                         "grid_density": GRID_DENSITY, "workdir": str(workdir), "trace": False})
            golden = {"seed": BUNDLED_SEED, "replications": REPLICATIONS,
                      "grid_density": GRID_DENSITY,
                      "outputs": golden_view(res["outputs"])}
            path = golden_path(workload)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(path)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
