"""Measure how far one ulp of noise in the draws moves the CSVs of ``seqgeo simulate``.

Runs both bundled experiment configs twice at their frozen seed: once as they
are, and once with every component of every draw that ``sample_many`` returns
multiplied by ``1 + 2**-52`` or ``1 - 2**-52``, the sign read from that
component's own last mantissa bit, so the noise is the same whichever process
draws a cell. Prints per config the largest relative change of
each CSV column between the two runs, as ``tools/csv_delta.py`` prints it. A
change to the program after the sampler that keeps each draw within an ulp
moves the CSVs by about this much; the 1e-12 golden check of the benchmark
is read against these numbers.

    python tools/ulp_noise.py
    python tools/ulp_noise.py --replications 20
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import csv_delta  # noqa: E402
import gate_sweep  # noqa: E402
from seqgeo import harness, models  # noqa: E402

EPS = 2.0 ** -52


@contextlib.contextmanager
def ulp_noise():
    """While the block runs, every draw of ``sample_many`` comes back with each component
    multiplied by ``1 + EPS`` where its last mantissa bit is set and by ``1 - EPS`` where
    it is clear: the signs depend on the draws alone, not on the calls or the process."""
    original = models._DirectionalModel.sample_many

    def sample_many(self, u, rngs, size):
        x = original(self, u, rngs, size)
        x *= np.where(x.view(np.uint64) & 1, 1.0 + EPS, 1.0 - EPS)
        return x

    models._DirectionalModel.sample_many = sample_many
    try:
        yield
    finally:
        models._DirectionalModel.sample_many = original


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _, configs = gate_sweep.parse_bundled(parser, argv)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in configs.items():
            plain, noisy = Path(tmp, name, "plain"), Path(tmp, name, "noisy")
            harness.run_experiment(dataclasses.replace(config, outdir=str(plain)))
            with ulp_noise():
                harness.run_experiment(dataclasses.replace(config, outdir=str(noisy)))
            print(f"{name}: {config.replications} replications, draws times 1 +- 2^-52")
            status = csv_delta.compare_directories(plain, noisy) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
