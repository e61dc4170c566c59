import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgeo.errors import ChartError, EvaluationDomainError, UnsupportedShapeError
from seqgeo.geometry import classify, frame_at, point_geometry
from seqgeo.models import HyperboloidModel, LinearGaussianModel, VmfModel, gaussian_family

from conftest import U0_HYP, U0_VMF, chart_rows
from oracles import (
    HYP_G11,
    HYP_G22,
    VMF_G11,
    VMF_G22,
    christoffel_first_kind,
    direct_rc_curvature,
    fd_family,
    numeric_clone,
    t_akk,
)


class TestFrames:
    def test_vmf_normal_is_radial(self, vmf):
        f = frame_at(vmf.curved, U0_VMF)
        theta = vmf.curved.theta(U0_VMF)
        assert np.abs(f.normal_theta[0] - theta / 0.25).max() < 1e-12
        assert np.abs(f.normal_eta[0] - vmf.curved.eta(U0_VMF) / vmf.r_dagger).max() < 1e-12

    def test_hyperboloid_normal_signs(self, hyp):
        f = frame_at(hyp.curved, U0_HYP)
        theta = hyp.curved.theta(U0_HYP)
        eta = hyp.curved.eta(U0_HYP)
        assert np.abs(f.normal_theta[0] + theta / 0.1).max() < 1e-12
        assert np.abs(f.normal_eta[0] - eta / 11.0).max() < 1e-12

    def test_linear_embedding_numeric_normals(self, linear):
        u = np.array([0.4, -0.2])
        f = frame_at(linear.curved, u)
        # identity ambient metric: normals orthogonal to the columns of A
        assert np.abs(f.normal_theta @ linear.a).max() < 1e-8
        assert np.abs(f.normal_theta @ f.normal_eta.T - np.eye(1)).max() < 1e-10

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_orthogonality_invariants(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=8, margin=0.2, seed=5):
            f = frame_at(model.curved, u)
            assert np.abs(f.tangent_theta @ f.normal_eta.T).max() < 1e-8
            assert abs(float(f.normal_theta[0] @ f.normal_eta[0]) - 1.0) < 1e-8

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_numeric_frames_match_analytic(self, model_name, request):
        model = request.getfixturevalue(model_name)
        clone = numeric_clone(model)
        for u in model.probe_grid(count=5, margin=0.25, seed=8):
            fa = frame_at(model.curved, u)
            fn = frame_at(clone, u)
            assert np.abs(fa.tangent_theta - fn.tangent_theta).max() < 1e-6
            assert np.abs(fa.normal_theta - fn.normal_theta).max() < 1e-6
            assert np.abs(fa.normal_eta - fn.normal_eta).max() < 1e-6

    def test_rank_deficiency_raises(self, vmf):
        with pytest.raises(ChartError):
            frame_at(vmf.curved, np.array([0.0, 1.0]))  # pole: Jacobian drops rank

    def test_codimension_two_biorthonormal(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, -0.5], [0.0, 1.0]])
        fam = fd_family(ambient=gaussian_family(4), m=2, embed_theta=lambda u: a @ u)
        f = frame_at(fam, np.array([0.3, -0.1]))
        assert f.normal_theta.shape == (2, 4)
        assert np.abs(f.normal_theta @ a).max() < 1e-10
        assert np.abs(f.normal_theta @ f.normal_eta.T - np.eye(2)).max() < 1e-10
        assert np.abs(t_akk(fam, np.array([0.3, -0.1]))).max() < 1e-12


class TestInducedMetric:
    def test_vmf_closed_form(self, vmf):
        g = point_geometry(vmf.curved, U0_VMF).g
        assert g[0, 0] == pytest.approx(VMF_G11, rel=1e-12)
        assert g[1, 1] == pytest.approx(VMF_G22, rel=1e-12)
        assert abs(g[0, 1]) < 1e-15

    def test_hyperboloid_closed_form(self, hyp):
        g = point_geometry(hyp.curved, U0_HYP).g
        assert g[0, 0] == pytest.approx(HYP_G11, rel=1e-12)
        assert g[1, 1] == pytest.approx(HYP_G22, rel=1e-12)

    def test_linear_gram_matrix(self, linear):
        g = point_geometry(linear.curved, np.array([0.3, 0.9])).g
        assert np.abs(g - linear.a.T @ linear.a).max() < 1e-12

    def test_general_m_product_form(self, vmf3):
        u = np.array([0.7, 1.1, 0.4])
        g = point_geometry(vmf3.curved, u).g
        rr = vmf3.r * vmf3.r_dagger
        expected = rr * np.diag(
            [1.0, math.sin(u[0]) ** 2, math.sin(u[0]) ** 2 * math.sin(u[1]) ** 2]
        )
        assert np.abs(g - expected).max() < 1e-12 * rr


class TestSubConnections:
    def test_linear_flat(self, linear):
        pg = point_geometry(linear.curved, np.array([0.1, 0.2]))
        assert np.allclose(pg.g1, 0.0)
        assert np.allclose(pg.gm1, 0.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_duality_residual(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=5, margin=0.2, seed=7):
            pg = point_geometry(model.curved, u)
            dg = np.empty((2, 2, 2))
            h = 1e-6
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                dg[a] = (
                    point_geometry(model.curved, u + e).g
                    - point_geometry(model.curved, u - e).g
                ) / (2 * h)
            res = np.abs(dg - (pg.g1 + pg.gm1.transpose(0, 2, 1))).max()
            assert res < 1e-6

    def test_nan_eta_hessian_raises(self, vmf):
        def jet(us):
            j = vmf.curved.jet(us)
            return j._replace(hess_eta=np.full_like(j.hess_eta, np.nan))

        for u in (U0_VMF, np.stack([U0_VMF, U0_VMF])):
            pg = point_geometry(dataclasses.replace(vmf.curved, jet=jet), u)
            assert np.all(np.isfinite(pg.g1))
            with pytest.raises(EvaluationDomainError):
                pg.gm1

    def test_vmf_christoffel_oracle(self, vmf):
        # the sub-skewness vanishes, so both connections equal the metric
        # Christoffel symbols of the scaled round metric
        pg = point_geometry(vmf.curved, U0_VMF)
        chris = christoffel_first_kind(lambda u: point_geometry(vmf.curved, u).g, U0_VMF)
        assert np.abs(pg.g1 - chris).max() < 1e-9
        assert np.abs(pg.gm1 - chris).max() < 1e-9
        assert np.abs(0.5 * (pg.g1 + pg.gm1) - chris).max() < 1e-9


class TestExtrinsicCurvature:
    def test_vmf_closed_forms(self, vmf):
        pg = point_geometry(vmf.curved, U0_VMF)
        assert np.abs(pg.h1[:, :, 0] + pg.g / vmf.r_dagger).max() < 1e-14
        assert np.abs(pg.hm1[:, :, 0] + pg.g / vmf.r).max() < 1e-14

    def test_hyperboloid_closed_forms(self, hyp):
        pg = point_geometry(hyp.curved, U0_HYP)
        assert np.abs(pg.h1[:, :, 0] + pg.g / hyp.r_dagger).max() < 1e-14
        assert np.abs(pg.hm1[:, :, 0] - pg.g / hyp.r).max() < 1e-14

    def test_linear_flat(self, linear):
        pg = point_geometry(linear.curved, np.array([0.0, 0.0]))
        assert np.allclose(pg.h1, 0.0)
        assert np.allclose(pg.hm1, 0.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_es_duality_with_frame_derivative(self, model_name, request):
        # 0 = d_b g_{a kappa} forces H^(-1)_{ab k} = -(d_b B_k^j) B_{aj}
        model = request.getfixturevalue(model_name)
        fam = model.curved
        u = model.probe_grid(count=1, margin=0.3, seed=21)[0]
        hm1 = point_geometry(fam, u).hm1
        h = 1e-6
        gamma_bka = np.empty((2, 2))
        for b in range(2):
            e = np.zeros(2)
            e[b] = h
            dnk = (frame_at(fam, u + e).normal_theta[0] - frame_at(fam, u - e).normal_theta[0]) / (2 * h)
            gamma_bka[b] = frame_at(fam, u).tangent_eta @ dnk
        assert np.abs(hm1[:, :, 0] + gamma_bka.T).max() < 1e-6


class TestGaussCurvature:
    def test_vmf_value(self, vmf):
        pg = point_geometry(vmf.curved, U0_VMF)
        expected = pg.g[0, 0] * pg.g[1, 1] / (vmf.r * vmf.r_dagger)
        assert pg.r1[0, 1, 1, 0] == pytest.approx(expected, rel=1e-12)
        assert pg.rm1[0, 1, 1, 0] == pytest.approx(expected, rel=1e-12)

    def test_hyperboloid_value(self, hyp):
        pg = point_geometry(hyp.curved, U0_HYP)
        expected = -pg.g[0, 0] * pg.g[1, 1] / (hyp.r * hyp.r_dagger)
        assert pg.r1[0, 1, 1, 0] == pytest.approx(expected, rel=1e-12)

    def test_linear_flat(self, linear):
        pg = point_geometry(linear.curved, np.array([1.0, -1.0]))
        assert np.allclose(pg.r1, 0.0)
        assert np.allclose(pg.rm1, 0.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_duality_and_antisymmetry(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=4, margin=0.25, seed=17):
            pg = point_geometry(model.curved, u)
            assert np.abs(pg.r1 + pg.rm1.transpose(0, 1, 3, 2)).max() < 1e-6
            assert np.abs(pg.r1 + pg.r1.transpose(1, 0, 2, 3)).max() < 1e-12

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_matches_direct_curvature(self, model_name, request):
        model = request.getfixturevalue(model_name)
        u = model.probe_grid(count=2, margin=0.3, seed=19)
        for point in u:
            pg = point_geometry(model.curved, point)
            for alpha, ref in ((1, pg.r1), (-1, pg.rm1)):
                direct = direct_rc_curvature(model.curved, point, alpha)
                assert np.abs(direct - ref).max() < 1e-4


class TestClassification:
    def test_vmf(self, vmf, vmf_grid):
        cls = classify(vmf.curved, vmf_grid)
        assert cls.umbilic and cls.dual_quadric
        assert cls.es_epsilon == pytest.approx(vmf.r_dagger / vmf.r, rel=1e-10)
        assert cls.k0 == pytest.approx(1.0 / vmf.r, rel=1e-10)
        assert cls.l0 == pytest.approx(1.0 / vmf.r_dagger, rel=1e-10)
        assert np.abs(cls.theta0).max() < 1e-10
        assert np.abs(cls.eta0).max() < 1e-10
        assert cls.constant_curvature == pytest.approx(1.0 / (vmf.r * vmf.r_dagger), rel=1e-10)
        assert cls.quadric_identity_residual < 1e-8

    def test_hyperboloid(self, hyp, hyp_grid):
        cls = classify(hyp.curved, hyp_grid)
        assert cls.umbilic and cls.dual_quadric
        assert cls.es_epsilon == pytest.approx(-hyp.r_dagger / hyp.r, rel=1e-10)
        assert cls.k0 == pytest.approx(-1.0 / hyp.r, rel=1e-10)
        assert cls.l0 == pytest.approx(1.0 / hyp.r_dagger, rel=1e-10)
        assert cls.constant_curvature == pytest.approx(-1.0 / (hyp.r * hyp.r_dagger), rel=1e-10)
        assert cls.constant_curvature < 0
        assert cls.quadric_identity_residual < 1e-8

    def test_linear_is_flat_umbilic_not_quadric(self, linear):
        rng = np.random.default_rng(3)
        grid = rng.uniform(-1.0, 1.0, size=(10, 2))
        cls = classify(linear.curved, grid)
        assert cls.umbilic
        assert not cls.dual_quadric
        assert abs(cls.constant_curvature) < 1e-10

    def test_numeric_frames_classification(self, vmf, vmf_grid):
        cls = classify(numeric_clone(vmf), vmf_grid, tolerance=1e-4)
        assert cls.tolerance == 1e-4
        assert cls.umbilic and cls.dual_quadric
        assert cls.k0 == pytest.approx(4.0, rel=1e-5)

    def test_codim_two_rejected(self, linear):
        fam = fd_family(ambient=gaussian_family(4), m=2,
                        embed_theta=lambda u: np.concatenate([u, [0.0, 0.0]]))
        with pytest.raises(UnsupportedShapeError):
            classify(fam, np.zeros((3, 2)))


class TestSkewnessContraction:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_t_akk_vanishes(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=5, margin=0.2, seed=23):
            assert np.abs(t_akk(model.curved, u)).max() < 1e-6

    def test_linear_zero(self, linear):
        assert np.abs(t_akk(linear.curved, np.array([0.2, -0.6]))).max() < 1e-12


FIELDS = ("g", "ginv", "gkk_inv", "ht", "he", "g1", "gm1", "h1", "hm1", "r1", "rm1")
BATCH_MODELS = {"vmf": VmfModel(2, 0.25), "hyp": HyperboloidModel(2, 0.1),
                "vmf3": VmfModel(3, 1.0), "hyp3": HyperboloidModel(3, 0.1)}


def assert_rows_match_single(fam, us):
    batch = point_geometry(fam, us)
    for i, u in enumerate(us):
        single = point_geometry(fam, u)
        for name in FIELDS:
            got, want = getattr(batch, name)[i], getattr(single, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestBatchedBundle:
    """A bundle over rows carries, row by row, the bytes of each point's own bundle."""

    @pytest.mark.parametrize("model_name", sorted(BATCH_MODELS))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_rows_match_single(self, model_name, data):
        model = BATCH_MODELS[model_name]
        assert_rows_match_single(model.curved, data.draw(chart_rows(model, 6)))

    @given(us=chart_rows(BATCH_MODELS["vmf"], 3, azimuth_margin=0.15))
    @settings(max_examples=4, deadline=None)
    def test_numeric_clone_rows_match_single(self, us):
        # the clone's finite-difference stencil must stay inside the chart's
        # azimuth range, so its azimuth keeps the polar axes' margin
        assert_rows_match_single(numeric_clone(BATCH_MODELS["vmf"]), us)

    def test_numeric_clone_stencil_leaves_the_chart(self):
        # at an azimuth of 2 pi - 2e-3 the stencil step (about 4.6e-3) crosses
        # the chart's 2 pi + 1e-3 bound, which the clone's embedding checks
        with pytest.raises(ChartError, match="azimuthal"):
            point_geometry(numeric_clone(BATCH_MODELS["vmf"]), np.array([[1.0, 6.28125]]))

    @given(us=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=5).map(np.array))
    @settings(max_examples=10, deadline=None)
    def test_linear_rows_match_single(self, us):
        model = LinearGaussianModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.25]]))
        assert_rows_match_single(model.curved, us)

    @pytest.mark.parametrize("model_name", sorted(BATCH_MODELS))
    def test_batch_of_one_and_empty(self, model_name):
        model = BATCH_MODELS[model_name]
        fams = [model.curved] + ([numeric_clone(model)] if model.m == 2 else [])
        u = model.probe_grid(count=1, margin=0.2, seed=5)
        for fam in fams:
            assert_rows_match_single(fam, u)
            single, empty = point_geometry(fam, u[0]), point_geometry(fam, u[:0])
            for name in FIELDS:
                assert getattr(empty, name).shape == (0,) + getattr(single, name).shape, name

    def test_rank_check_names_the_row(self, vmf):
        def jet(us):
            # the tangent frame vanishes where u1 = 0.5
            j = vmf.curved.jet(us)
            return j._replace(tangent_theta=j.tangent_theta * (us[..., :1, None] != 0.5))

        us = np.array([[1.0, 1.0], [0.5, 2.0], [1.2, 0.3]])
        with pytest.raises(ChartError, match=r"u=array\(\[0\.5, 2\. \]\)"):
            frame_at(dataclasses.replace(vmf.curved, jet=jet), us)
