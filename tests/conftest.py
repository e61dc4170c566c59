import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import seqgeo
from seqgeo.errors import ParameterError
from seqgeo.geometry import CurvedFamily, Jet
from seqgeo.harness import ExperimentConfig, parse_config
from seqgeo.models import HyperboloidModel, VmfModel
from seqgeo.tensorops import as_coords

from ambient import constant_gauge

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


class LinearGaussianModel:
    """Flat fixture: an affine submanifold of a Gaussian mean family.

    Zero curvature everywhere, closed-form estimator, criterion equal to
    the sample size; used to pin down degenerate behaviour of the
    sequential machinery. The criterion is not scale-free, so the sums do
    not give it: the model counts the draws it makes from each generator,
    which is a replication's sample size when the replication owns a fresh
    generator, as in the harness. The ambient metric is the identity, so both
    normals are one orthonormal basis of the complement of the columns of
    ``a``, from a complete QR.
    """

    def __init__(self, a_matrix):
        a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
        self.a = a
        self.n, self.m = a.shape
        if np.linalg.matrix_rank(a) < self.m:
            raise ParameterError("embedding matrix must have full column rank")
        self._pinv = np.linalg.pinv(a)
        self._drawn = {}  # id of a generator -> (the generator, the draws made from it)
        normal = np.linalg.qr(a, mode="complete")[0][:, self.m:].T
        flat2, flat3 = np.zeros((self.m, self.m, self.n)), np.zeros((self.m, self.m, self.m, self.n))

        def jet(us):
            theta = (a * us[..., None, :]).sum(axis=-1)
            const = (np.broadcast_to(x, us.shape[:-1] + x.shape)
                     for x in (a.T, a.T, flat2, flat2, flat3, flat3, normal, normal))
            return Jet(theta, theta, *const)

        self.curved = CurvedFamily(n=self.n, m=self.m, jet=jet)

    def stopping_constant(self) -> float:
        return 0.0

    def embed(self, u):
        t = self.a @ as_coords(u)
        return t, t.copy()

    def gauge(self):
        return constant_gauge(1.0)

    def sample_many(self, u, rngs, size: int) -> np.ndarray:
        mean = self.a @ as_coords(u)
        # the draws made before this call, per generator; the dict holds each
        # generator, so its id is not reused
        self._before = np.array([self._drawn.get(id(rng), (rng, 0))[1] for rng in rngs])
        self._drawn.update((id(rng), (rng, t + size)) for rng, t in zip(rngs, self._before))
        return mean + np.stack([rng.standard_normal((size, self.n)) for rng in rngs])

    def mle_many(self, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The estimator from sample means ``(R, n)``: it is not scale-free, so it reads no sums."""
        return means @ self._pinv.T, np.ones(means.shape[0], dtype=bool)

    def stop_terms(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Criterion ``t``, gauge 1, always defined, at the running sums ``(R, size, n)``
        of the last ``sample_many`` call: ``t`` counts the draws of row ``i``'s generator."""
        shape = sums.shape[:-1]
        t = self._before[:, None] + np.arange(1, shape[-1] + 1)
        return t.astype(float), np.ones(shape), np.ones(shape, dtype=bool)

    def wrap_deviation(self, dev):
        return np.array(dev, dtype=float)


# the model fixtures by name, for hypothesis tests, which rerun a test without
# its function-scoped fixtures (so without ``request.getfixturevalue``)
MODELS_BY_NAME = {"vmf": VmfModel(2, 0.25), "hyp": HyperboloidModel(2, 0.1),
                  "vmf3": VmfModel(3, 1.0), "hyp3": HyperboloidModel(3, 0.1)}


@pytest.fixture(scope="session")
def vmf():
    return MODELS_BY_NAME["vmf"]


@pytest.fixture(scope="session")
def hyp():
    return MODELS_BY_NAME["hyp"]


@pytest.fixture(scope="session")
def vmf3():
    return MODELS_BY_NAME["vmf3"]


@pytest.fixture(scope="session")
def hyp3():
    return MODELS_BY_NAME["hyp3"]


@pytest.fixture(scope="session")
def linear():
    return LinearGaussianModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.25]]))


@pytest.fixture(scope="session")
def vmf_grid(vmf):
    return vmf.probe_grid(count=12, margin=0.2, seed=3)


@pytest.fixture(scope="session")
def hyp_grid(hyp):
    return hyp.probe_grid(count=12, margin=0.2, seed=3)
