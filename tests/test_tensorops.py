import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgeo import tensorops as tops
from seqgeo.errors import EvaluationDomainError, NoConvergenceError, SingularMetricError
from seqgeo.tensorops import Point, differentiate, invert_matrix, newton_solve

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


class TestDifferentiate:
    def test_square_first_derivative(self):
        val = differentiate(lambda x: float(x[0] ** 2), np.array([1.0]), order=1)
        assert val[0] == pytest.approx(2.0, abs=1e-8)

    def test_exp_third_derivative(self):
        val = differentiate(lambda x: math.exp(x[0]), np.array([0.0]), order=3)
        assert val[0, 0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_bilinear_hessian(self):
        val = differentiate(lambda x: float(x[0] * x[1]), np.array([0.3, -0.7]), order=2)
        assert val[0, 1] == pytest.approx(1.0, abs=1e-8)
        assert val[0, 0] == pytest.approx(0.0, abs=1e-8)
        assert val[1, 1] == pytest.approx(0.0, abs=1e-8)

    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        x0=st.floats(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_cubic_polynomials_exact(self, coeffs, x0):
        a, b, c, d = coeffs
        f = lambda x: a + b * x[0] + c * x[0] ** 2 + d * x[0] ** 3
        pt = np.array([x0])
        g1 = differentiate(f, pt, order=1)[0]
        g2 = differentiate(f, pt, order=2)[0, 0]
        g3 = differentiate(f, pt, order=3)[0, 0, 0]
        scale = 1.0 + abs(a) + abs(b) + abs(c) + abs(d)
        assert g1 == pytest.approx(b + 2 * c * x0 + 3 * d * x0 ** 2, abs=1e-8 * scale)
        assert g2 == pytest.approx(2 * c + 6 * d * x0, abs=1e-8 * scale)
        assert g3 == pytest.approx(6 * d, abs=1e-8 * scale)

    def test_mixed_cubic_exact_2d(self):
        f = lambda x: x[0] ** 2 * x[1] - 2.0 * x[0] * x[1] + x[1] ** 3
        t3 = differentiate(f, np.array([0.4, -0.9]), order=3)
        assert t3[0, 0, 1] == pytest.approx(2.0, abs=1e-8)
        assert t3[1, 1, 1] == pytest.approx(6.0, abs=1e-8)
        assert t3[0, 0, 0] == pytest.approx(0.0, abs=1e-8)

    def test_symmetry_is_exact(self):
        f = lambda x: math.sin(x[0]) * math.exp(0.5 * x[1]) + x[0] * x[1] ** 2
        pt = np.array([0.3, 0.7])
        h = differentiate(f, pt, order=2)
        assert np.array_equal(h, h.T)
        t = differentiate(f, pt, order=3)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.array_equal(t, t.transpose(perm))

    def test_third_from_analytic_hessian(self):
        f = lambda x: math.exp(x[0])
        hess = lambda x: np.array([[math.exp(x[0])]])
        val = differentiate(f, np.array([0.0]), order=3, hessian=hess)
        assert val[0, 0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_non_finite_evaluation_raises(self):
        f = lambda x: float("nan") if x[0] < 0 else x[0] ** 0.5
        with pytest.raises(EvaluationDomainError):
            differentiate(f, np.array([0.0]), order=1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            differentiate(lambda x: x[0], np.array([0.0]), order=1, step=-1.0)


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


class TestNewtonSolve:
    def test_identity_family(self):
        res = newton_solve(lambda x: x, np.array([1.5, -2.0]), np.zeros(2), tol=1e-12)
        assert np.allclose(res.coords, [1.5, -2.0])

    def test_poisson_log_inverse(self):
        res = newton_solve(lambda x: np.exp(x), np.array([1.0]), np.array([0.5]), tol=1e-12)
        assert res.coords[0] == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_self_duality(self):
        # gradient of |x|^2/2 is the identity map
        res = newton_solve(lambda x: x.copy(), np.array([0.2, 0.4, -1.0]), np.ones(3))
        assert np.allclose(res.coords, [0.2, 0.4, -1.0])

    def test_roundtrip_to_tolerance(self):
        f = lambda x: np.array([x[0] ** 3 + x[0], math.tanh(x[1])])
        target = np.array([2.5, 0.4])
        res = newton_solve(f, target, np.array([1.0, 0.0]), tol=1e-11)
        assert np.abs(f(res.coords) - target).max() <= 1e-11

    def test_preserves_chart(self):
        res = newton_solve(lambda x: x, np.array([1.0]), Point(np.array([0.0]), "eta"))
        assert res.chart == "eta"

    def test_divergence_raises(self):
        with pytest.raises(NoConvergenceError):
            newton_solve(lambda x: np.exp(x), np.array([-1.0]), np.array([0.0]), max_iter=20)
