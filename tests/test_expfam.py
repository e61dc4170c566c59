import dataclasses
import math

import numpy as np
import pytest

from seqgeo import expfam, geometry
from seqgeo.errors import EvaluationDomainError, ModelMisspecificationError
from seqgeo.expfam import (
    alpha_connection,
    ambient_rc_curvature,
    connection_coordinate_change,
    eta_of_theta,
    metric,
    rc_curvature,
    skewness,
    theta_of_eta,
)
from seqgeo.models import gaussian_family, poisson_family
from seqgeo.tensorops import Point

from conftest import U0_VMF
from oracles import STEP1, fd_field_derivative, fd_hessian, iv_ratio_series, rel_steps


@pytest.fixture(scope="module")
def gauss2():
    return gaussian_family(2)


@pytest.fixture(scope="module")
def pois1():
    return poisson_family(1)


def ambient_probes(model, count=8, radii=(0.5, 2.0), seed=13):
    """Points of the ambient chart at moderate radius, built from the model chart."""
    rng = np.random.default_rng(seed)
    grid = model.probe_grid(count=count, margin=0.3, seed=seed)
    scales = rng.uniform(*radii, size=count) / model.r
    return np.array([s * model.embed(u)[0] for s, u in zip(scales, grid)])


class TestDualCoordinates:
    def test_gaussian_identity(self, gauss2):
        eta = eta_of_theta(gauss2, np.array([1.0, 2.0]))
        assert np.allclose(eta.coords, [1.0, 2.0])
        assert eta.chart == "eta"
        pair = theta_of_eta(gauss2, np.array([3.0, -1.0]))
        assert np.allclose(pair.theta.coords, [3.0, -1.0])

    def test_poisson_log_link(self, pois1):
        assert eta_of_theta(pois1, np.array([0.0])).coords[0] == pytest.approx(1.0)
        pair = theta_of_eta(pois1, np.array([math.e]))
        assert pair.theta.coords[0] == pytest.approx(1.0, abs=1e-12)

    def test_vmf_mean_parameter_against_series(self, vmf):
        theta = 0.25 * np.array([1.0, 0.0, 0.0])
        eta = eta_of_theta(vmf.family, theta).coords
        rd = iv_ratio_series(0.25, 0.5)
        assert eta[0] == pytest.approx(rd, abs=1e-10)
        assert eta[0] == pytest.approx(0.08298816507359685, abs=1e-12)
        assert np.allclose(eta[1:], 0.0)

    def test_vmf_inversion_roundtrip(self, vmf):
        eta = 0.08298816507359685 * np.array([1.0, 0.0, 0.0])
        pair = theta_of_eta(vmf.family, eta)
        assert np.abs(pair.theta.coords - [0.25, 0.0, 0.0]).max() < 1e-9

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_legendre_identity_on_probes(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for theta in ambient_probes(model):
            eta = eta_of_theta(model.family, theta)
            pair = theta_of_eta(model.family, eta.coords)
            gap = pair.psi_value + pair.phi_value - float(pair.theta.coords @ pair.eta.coords)
            assert abs(gap) < 1e-8
            assert np.abs(pair.theta.coords - theta).max() < 1e-8

    def test_domain_violation(self, hyp):
        with pytest.raises(EvaluationDomainError):
            eta_of_theta(hyp.family, np.array([1.0, 0.0, 0.0]))  # future-pointing


class TestMetric:
    def test_gaussian_theta_chart(self, gauss2):
        g = metric(gauss2, Point(np.array([0.3, 0.1]), "theta"))
        assert np.allclose(g, np.eye(2))

    def test_poisson_unit(self, pois1):
        g = metric(pois1, Point(np.array([0.0]), "theta"))
        assert g[0, 0] == pytest.approx(1.0)

    def test_vmf_eigenvalue_split(self, vmf):
        theta = 0.25 * np.array([1.0, 0.0, 0.0])
        g = metric(vmf.family, Point(theta, "theta"))
        rd = iv_ratio_series(0.25, 0.5)
        h = 1e-6
        rd_prime = (iv_ratio_series(0.25 + h, 0.5) - iv_ratio_series(0.25 - h, 0.5)) / (2 * h)
        assert g[0, 0] == pytest.approx(rd_prime, abs=1e-9)
        assert g[1, 1] == pytest.approx(rd / 0.25, rel=1e-12)
        assert g[2, 2] == pytest.approx(rd / 0.25, rel=1e-12)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_analytic_matches_finite_difference(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for theta in ambient_probes(model, count=4):
            g = metric(model.family, Point(theta, "theta"))
            g_fd = fd_hessian(model.family.psi, theta, h=3e-4)
            assert np.abs(g - g_fd).max() < 1e-4 * max(1.0, np.abs(g).max())

    def test_eta_chart_contravariant(self, vmf):
        theta = np.array([0.21, 0.1, -0.05])
        eta = eta_of_theta(vmf.family, theta)
        g_eta = metric(vmf.family, eta)
        g_theta = metric(vmf.family, Point(theta, "theta"))
        assert np.abs(g_eta @ g_theta - np.eye(3)).max() < 1e-10
        # independent route: Jacobian of the inverse mean map
        jac = fd_field_derivative(lambda e: theta_of_eta(vmf.family, e).theta.coords, eta.coords,
                                  rel_steps(eta.coords, STEP1)).T
        assert np.abs(g_eta - jac).max() < 1e-6

    def test_indefinite_hessian_rejected(self):
        fam = expfam.ExponentialFamily(
            n=1,
            psi=lambda t: -float(t[0] ** 2),
            grad=lambda t: -2.0 * t,
            hess=lambda t: np.array([[-2.0]]),
            third=lambda t: np.zeros((1, 1, 1)),
            eta_inverse=lambda e: -0.5 * e,
        )
        with pytest.raises(ModelMisspecificationError):
            metric(fam, Point(np.array([0.2]), "theta"))

    def test_nan_hessian_raises(self, vmf):
        fam = dataclasses.replace(vmf.family, hess=lambda t: np.full((3, 3), np.nan))
        with pytest.raises(EvaluationDomainError):
            metric(fam, Point(0.25 * np.array([1.0, 0.0, 0.0]), "theta"))


class TestSkewness:
    def test_gaussian_zero(self, gauss2):
        assert np.allclose(skewness(gauss2, np.array([0.4, -0.2])), 0.0)

    def test_poisson_unit(self, pois1):
        assert skewness(pois1, np.array([0.0]))[0, 0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_matches_metric_derivative(self, model_name, request):
        model = request.getfixturevalue(model_name)
        theta = ambient_probes(model, count=1)[0]
        t = skewness(model.family, theta)
        h = 1e-5
        fd = np.empty_like(t)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (
                metric(model.family, Point(theta + e, "theta"))
                - metric(model.family, Point(theta - e, "theta"))
            ) / (2 * h)
        assert np.abs(t - fd).max() < 1e-4 * max(1.0, np.abs(t).max())


class TestAlphaConnection:
    def test_one_affine(self, vmf):
        theta = np.array([0.2, 0.05, 0.1])
        assert np.allclose(alpha_connection(vmf.family, theta, 1.0), 0.0)

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
        theta = ambient_probes(model, count=1, seed=29)[0]
        h = 1e-6
        dg = np.empty((3, 3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            dg[i] = (
                metric(model.family, Point(theta + e, "theta"))
                - metric(model.family, Point(theta - e, "theta"))
            ) / (2 * h)
        ga = alpha_connection(model.family, theta, alpha)
        gma = alpha_connection(model.family, theta, -alpha)
        assert np.abs(dg - (ga + gma.transpose(0, 2, 1))).max() < 1e-6 * max(1.0, np.abs(dg).max())


class TestCoordinateChange:
    def test_identity_change(self, vmf):
        theta = np.array([0.2, 0.05, 0.1])
        gam = alpha_connection(vmf.family, theta, -1.0)
        g = metric(vmf.family, Point(theta, "theta"))
        out = connection_coordinate_change(gam, np.eye(3), np.zeros((3, 3, 3)), g)
        assert np.abs(out - gam).max() < 1e-14

    def test_linear_change_of_flat_stays_flat(self, gauss2):
        b = np.array([[2.0, 1.0], [0.0, 1.0]])
        out = connection_coordinate_change(
            np.zeros((2, 2, 2)), b, np.zeros((2, 2, 2)), np.eye(2)
        )
        assert np.allclose(out, 0.0)

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
            eta = fam.eta(w[:2]) + w[2] * geometry.frame_at(fam, w[:2]).normal_eta[0]
            return theta_of_eta(vmf.family, eta).theta.coords

        w0 = np.array([u0[0], u0[1], 0.0])
        basis = fd_field_derivative(theta_of_w, w0, 1e-5)  # B[beta, i]
        flat = fd_field_derivative(lambda w: fd_field_derivative(theta_of_w, w, 1e-5).ravel(), w0, 1e-4)
        dbasis = flat.reshape(3, 3, 3)  # d_beta B[gamma, i]
        g_theta = metric(vmf.family, Point(fam.theta(u0), "theta"))
        gam_w = connection_coordinate_change(np.zeros((3, 3, 3)), basis, dbasis, g_theta)
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
            r = ambient_rc_curvature(model.family, theta, alpha)
            assert np.abs(r).max() < 1e-5

    def test_antisymmetry_first_slots(self, vmf):
        theta = ambient_probes(vmf, count=1, seed=37)[0]
        vals = rc_curvature(
            lambda x: alpha_connection(vmf.family, x, 0.0),
            lambda x: metric(vmf.family, Point(x, "theta")),
            theta,
        )
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
