import dataclasses
import math

import numpy as np
import pytest

from seqgeo import geometry
from seqgeo.conformal import connection_coordinate_change
from seqgeo.errors import EvaluationDomainError

from ambient import (
    ExponentialFamily,
    ModelMisspecificationError,
    alpha_connection,
    ambient_probes,
    ambient_rc_curvature,
    eta_of_theta,
    family_of,
    gaussian_family,
    metric,
    poisson_family,
    rc_curvature,
    skewness,
)
from conftest import U0_VMF
from oracles import fd_field_derivative, fd_hessian, iv_ratio_series, vmf_theta_of_eta


@pytest.fixture(scope="module")
def gauss2():
    return gaussian_family(2)


@pytest.fixture(scope="module")
def pois1():
    return poisson_family(1)


class TestDualCoordinates:
    def test_gaussian_identity(self, gauss2):
        eta = eta_of_theta(gauss2, np.array([1.0, 2.0]))
        assert np.allclose(eta, [1.0, 2.0])

    def test_poisson_log_link(self, pois1):
        assert eta_of_theta(pois1, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_vmf_mean_parameter_against_series(self, vmf):
        theta = 0.25 * np.array([1.0, 0.0, 0.0])
        eta = eta_of_theta(family_of(vmf), theta)
        rd = iv_ratio_series(0.25, 0.5)
        assert eta[0] == pytest.approx(rd, abs=1e-10)
        assert eta[0] == pytest.approx(0.08298816507359685, abs=1e-12)
        assert np.allclose(eta[1:], 0.0)

    def test_domain_violation(self, hyp):
        with pytest.raises(EvaluationDomainError):
            eta_of_theta(family_of(hyp), np.array([1.0, 0.0, 0.0]))  # future-pointing


class TestMetric:
    def test_gaussian_theta_chart(self, gauss2):
        g = metric(gauss2, np.array([0.3, 0.1]))
        assert np.allclose(g, np.eye(2))

    def test_poisson_unit(self, pois1):
        g = metric(pois1, np.array([0.0]))
        assert g[0, 0] == pytest.approx(1.0)

    def test_vmf_eigenvalue_split(self, vmf):
        theta = 0.25 * np.array([1.0, 0.0, 0.0])
        g = metric(family_of(vmf), theta)
        rd = iv_ratio_series(0.25, 0.5)
        h = 1e-6
        rd_prime = (iv_ratio_series(0.25 + h, 0.5) - iv_ratio_series(0.25 - h, 0.5)) / (2 * h)
        assert g[0, 0] == pytest.approx(rd_prime, abs=1e-9)
        assert g[1, 1] == pytest.approx(rd / 0.25, rel=1e-12)
        assert g[2, 2] == pytest.approx(rd / 0.25, rel=1e-12)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_analytic_matches_finite_difference(self, model_name, request):
        model = request.getfixturevalue(model_name)
        fam = family_of(model)
        for theta in ambient_probes(model, count=4):
            g = metric(fam, theta)
            g_fd = fd_hessian(fam.psi, theta, h=3e-4)
            assert np.abs(g - g_fd).max() < 1e-4 * max(1.0, np.abs(g).max())

    def test_indefinite_hessian_rejected(self):
        fam = ExponentialFamily(
            n=1,
            psi=lambda t: -float(t[0] ** 2),
            grad=lambda t: -2.0 * t,
            hess=lambda t: np.array([[-2.0]]),
            third=lambda t: np.zeros((1, 1, 1)),
        )
        with pytest.raises(ModelMisspecificationError):
            metric(fam, np.array([0.2]))

    def test_nan_hessian_raises(self, vmf):
        fam = dataclasses.replace(family_of(vmf), hess=lambda t: np.full((3, 3), np.nan))
        with pytest.raises(EvaluationDomainError):
            metric(fam, 0.25 * np.array([1.0, 0.0, 0.0]))


class TestSkewness:
    def test_gaussian_zero(self, gauss2):
        assert np.allclose(skewness(gauss2, np.array([0.4, -0.2])), 0.0)

    def test_poisson_unit(self, pois1):
        assert skewness(pois1, np.array([0.0]))[0, 0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_matches_metric_derivative(self, model_name, request):
        model = request.getfixturevalue(model_name)
        theta = ambient_probes(model, count=1)[0]
        t = skewness(family_of(model), theta)
        fd = fd_field_derivative(lambda x: metric(family_of(model), x), theta, 1e-5)
        assert np.abs(t - fd).max() < 1e-4 * max(1.0, np.abs(t).max())


class TestAlphaConnection:
    def test_one_affine(self, vmf):
        theta = np.array([0.2, 0.05, 0.1])
        assert np.allclose(alpha_connection(family_of(vmf), theta, 1.0), 0.0)

    def test_gaussian_any_alpha(self, gauss2):
        for a in (-1.0, 0.0, 0.7):
            assert np.allclose(alpha_connection(gauss2, np.array([1.0, 1.0]), a), 0.0)

    def test_poisson_mixture(self, pois1):
        g = alpha_connection(pois1, np.array([0.0]), -1.0)
        assert g[0, 0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_duality_identity(self, model_name, alpha, request):
        model = request.getfixturevalue(model_name)
        fam = family_of(model)
        theta = ambient_probes(model, count=1, seed=29)[0]
        dg = fd_field_derivative(lambda x: metric(fam, x), theta, 1e-6)
        ga = alpha_connection(fam, theta, alpha)
        gma = alpha_connection(fam, theta, -alpha)
        assert np.abs(dg - (ga + gma.transpose(0, 2, 1))).max() < 1e-6 * max(1.0, np.abs(dg).max())


class TestCoordinateChange:
    def test_identity_change(self, vmf):
        theta = np.array([0.2, 0.05, 0.1])
        gam = alpha_connection(family_of(vmf), theta, -1.0)
        g = metric(family_of(vmf), theta)
        pulled, inhom = connection_coordinate_change(gam, np.eye(3), np.zeros((3, 3, 3)), g)
        assert np.abs(pulled + inhom - gam).max() < 1e-14

    def test_linear_change_of_flat_stays_flat(self, gauss2):
        b = np.array([[2.0, 1.0], [0.0, 1.0]])
        pulled, inhom = connection_coordinate_change(
            np.zeros((2, 2, 2)), b, np.zeros((2, 2, 2)), np.eye(2)
        )
        assert np.allclose(pulled + inhom, 0.0)

    def test_rank_deficient_basis_rejected(self):
        with pytest.raises(Exception):
            connection_coordinate_change(
                np.zeros((2, 2, 2)), np.ones((2, 2)), np.zeros((2, 2, 2)), np.eye(2)
            )

    def test_vmf_w_chart_reproduces_extrinsic_curvature(self, vmf):
        # Chart w = (u, v) with the mean-affine ancillary: theta(w) through the
        # exact inverse of the mean map. The (a, b, normal) block of the
        # transformed +1 connection is the extrinsic curvature -g_ab/r_dagger.
        u0 = U0_VMF
        fam = vmf.curved
        frame = geometry.frame_at(fam, u0)

        def theta_of_w(w):
            f = geometry.frame_at(fam, w[:2])
            eta = f.eta + w[2] * f.normal_eta[0]
            return vmf_theta_of_eta(eta)

        w0 = np.array([u0[0], u0[1], 0.0])
        basis = fd_field_derivative(theta_of_w, w0, 1e-5)  # B[beta, i]
        flat = fd_field_derivative(lambda w: fd_field_derivative(theta_of_w, w, 1e-5).ravel(), w0, 1e-4)
        dbasis = flat.reshape(3, 3, 3)  # d_beta B[gamma, i]
        g_theta = metric(family_of(vmf), frame.theta)
        pulled, inhom = connection_coordinate_change(np.zeros((3, 3, 3)), basis, dbasis, g_theta)
        gam_w = pulled + inhom
        g_ab = geometry.point_geometry(fam, u0).g
        expected = -g_ab / vmf.r_dagger
        assert np.abs(gam_w[:2, :2, 2] - expected).max() < 2e-3 * abs(expected).max()


class TestCurvature:
    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_fixture_families_flat(self, alpha, gauss2, pois1):
        for fam, pt in ((gauss2, np.array([0.5, -0.3])), (poisson_family(2), np.array([0.2, -0.4]))):
            r = ambient_rc_curvature(fam, pt, alpha)
            assert np.abs(r).max() < 1e-5

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_model_ambients_flat(self, alpha, model_name, request):
        model = request.getfixturevalue(model_name)
        for theta in ambient_probes(model, count=3, seed=31):
            r = ambient_rc_curvature(family_of(model), theta, alpha)
            assert np.abs(r).max() < 1e-5

    def test_antisymmetry_first_slots(self, vmf):
        theta = ambient_probes(vmf, count=1, seed=37)[0]
        fam = family_of(vmf)
        vals = rc_curvature(lambda x: alpha_connection(fam, x, 0.0), lambda x: metric(fam, x), theta)
        assert np.abs(vals + vals.transpose(1, 0, 2, 3)).max() < 1e-12

    def test_riemannian_sphere_value(self):
        # round 2-sphere: all-lower curvature with R_1221 = sin^2(u1)
        def met(u):
            return np.diag([1.0, math.sin(u[0]) ** 2])

        def gam(u):
            s, c = math.sin(u[0]), math.cos(u[0])
            out = np.zeros((2, 2, 2))
            out[0, 1, 1] = out[1, 0, 1] = s * c
            out[1, 1, 0] = -s * c
            return out

        u = np.array([0.8, 0.3])
        r = rc_curvature(gam, met, u)
        assert r[0, 1, 1, 0] == pytest.approx(math.sin(0.8) ** 2, abs=1e-8)
