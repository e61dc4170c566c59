import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgeo import tensorops as tops
from seqgeo.errors import EvaluationDomainError, SingularMetricError
from seqgeo.tensorops import Point, invert_matrix

from oracles import VMF_G11, VMF_G22, iv_ratio_series


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(EvaluationDomainError):
            Point(np.array([1.0, np.nan]))

    def test_rejects_unknown_chart(self):
        with pytest.raises(EvaluationDomainError):
            Point(np.array([1.0]), chart="banana")

    def test_immutable(self):
        p = Point(np.array([1.0, 2.0]), "u")
        with pytest.raises(ValueError):
            p.coords[0] = 3.0


class TestInvert:
    def test_identity(self):
        assert np.allclose(invert_matrix(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = invert_matrix(np.diag([2.0, 8.0]))
        assert np.allclose(out, np.diag([0.5, 0.125]))

    def test_vmf_metric_closed_form(self):
        # induced metric of the sphere model at (pi/6, pi/3): diagonal with
        # entries r*r_dagger and r*r_dagger/4, r_dagger from the series oracle
        rd = iv_ratio_series(0.25, 0.5)
        g = np.diag([0.25 * rd, 0.25 * rd * 0.25])
        assert g[0, 0] == pytest.approx(VMF_G11, abs=1e-15)
        assert g[1, 1] == pytest.approx(VMF_G22, abs=1e-15)
        out = invert_matrix(g)
        assert out[0, 0] == pytest.approx(1.0 / VMF_G11, rel=1e-12)
        assert out[1, 1] == pytest.approx(1.0 / VMF_G22, rel=1e-12)

    @given(
        eigs=st.lists(st.floats(1e-4, 1e4), min_size=2, max_size=4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_identity(self, eigs, seed):
        rng = np.random.default_rng(seed)
        d = len(eigs)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = q @ np.diag(eigs) @ q.T
        inv = invert_matrix(a)
        assert np.abs(a @ inv - np.eye(d)).max() < 1e-10 * max(1.0, np.abs(a).max() / min(eigs))

    def test_condition_cap(self):
        a = np.diag([1.0, 1e-12])
        with pytest.raises(SingularMetricError):
            invert_matrix(a, cond_cap=1e10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            invert_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nan_entry_raises(self):
        with pytest.raises(EvaluationDomainError):
            invert_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_inf_entry_raises(self):
        with pytest.raises(EvaluationDomainError):
            invert_matrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_stack_rows_match_single(self):
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((4, 3, 3)))[0]
        stack = q @ (rng.uniform(0.5, 4.0, (4, 3, 1)) * q.swapaxes(-1, -2))
        stack = 0.5 * (stack + stack.swapaxes(-1, -2))
        out = invert_matrix(stack)
        assert out.shape == stack.shape
        for row, inv in zip(stack, out):
            assert inv.tobytes() == invert_matrix(row).tobytes()
        assert invert_matrix(stack[:0]).shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [np.diag([1.0, 1e-12]), np.diag([1.0, 0.0]),
                                     np.array([[1.0, 2.0], [0.0, 1.0]])],
                             ids=["condition", "pivot", "asymmetric"])
    def test_stack_fails_as_its_bad_row(self, bad):
        with pytest.raises((ValueError, SingularMetricError)) as alone:
            invert_matrix(bad)
        good = np.array([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
            invert_matrix(np.stack([good, bad, good]))

