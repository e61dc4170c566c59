import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import seqgeo
from seqgeo.harness import ExperimentConfig, parse_config
from seqgeo.models import HyperboloidModel, LinearGaussianModel, VmfModel

U0_VMF = np.array([math.pi / 6.0, math.pi / 3.0])
U0_HYP = np.array([0.1, math.pi / 3.0])
BUNDLED_CONFIGS = Path(seqgeo.__file__).parent / "configs"


def chart_rows(model, max_rows, azimuth_margin=0.0):
    """Lists of chart points away from the singular set, as ``(P, m)`` arrays.

    The polar axes keep a 0.15 margin from 0 and pi; the azimuth keeps
    ``azimuth_margin`` from 0 and 2 pi.
    """
    axes = [st.floats(0.05, 1.5) if kind == "hyp" else st.floats(0.15, math.pi - 0.15)
            for kind in model.kinds[:-1]]
    axes.append(st.floats(azimuth_margin, 2.0 * math.pi - azimuth_margin))
    return st.lists(st.tuples(*axes), min_size=1, max_size=max_rows).map(np.array)


def bundled_config(name: str, **changes) -> ExperimentConfig:
    """The bundled experiment config ``name``, with ``changes`` applied."""
    return dataclasses.replace(parse_config(BUNDLED_CONFIGS / f"{name}.conf"), **changes)


@pytest.fixture(scope="session")
def vmf():
    return VmfModel(2, 0.25)


@pytest.fixture(scope="session")
def hyp():
    return HyperboloidModel(2, 0.1)


@pytest.fixture(scope="session")
def vmf3():
    return VmfModel(3, 1.0)


@pytest.fixture(scope="session")
def hyp3():
    return HyperboloidModel(3, 0.1)


@pytest.fixture(scope="session")
def linear():
    return LinearGaussianModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.25]]))


@pytest.fixture(scope="session")
def vmf_grid(vmf):
    return vmf.probe_grid(count=12, margin=0.2, seed=3)


@pytest.fixture(scope="session")
def hyp_grid(hyp):
    return hyp.probe_grid(count=12, margin=0.2, seed=3)
