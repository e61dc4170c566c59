import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgeo.errors import ChartError, EvaluationDomainError, UnsupportedShapeError
from seqgeo.geometry import classify, frame_at, point_geometry
from seqgeo.models import HyperboloidModel

from ambient import direct_rc_curvature, family_of, fd_family, g1, gaussian_family, numeric_clone, t_akk
from conftest import MODELS_BY_NAME, U0_HYP, U0_VMF, LinearGaussianModel, chart_rows
from oracles import (
    HYP_G11,
    HYP_G22,
    VMF_G11,
    VMF_G22,
    christoffel_first_kind,
    fd_field_derivative,
    fd_ricci_derivative,
    quadric_centres,
)


class TestFrames:
    def test_vmf_normal_is_radial(self, vmf):
        f = frame_at(vmf.curved, U0_VMF)
        theta, eta = vmf.embed(U0_VMF)
        assert np.abs(f.normal_theta[0] - theta / 0.25).max() < 1e-12
        assert np.abs(f.normal_eta[0] - eta / vmf.r_dagger).max() < 1e-12

    def test_hyperboloid_normal_signs(self, hyp):
        f = frame_at(hyp.curved, U0_HYP)
        theta, eta = hyp.embed(U0_HYP)
        assert np.abs(f.normal_theta[0] + theta / 0.1).max() < 1e-12
        assert np.abs(f.normal_eta[0] - eta / 11.0).max() < 1e-12

    def test_linear_embedding_numeric_normals(self, linear):
        u = np.array([0.4, -0.2])
        fam = fd_family(gaussian_family(3), 2, lambda x: linear.a @ x)
        f = frame_at(fam, u)
        # identity ambient metric: the oracle's normals orthogonal to the columns of A
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
        fam = fd_family(gaussian_family(4), 2, lambda u: a @ u)
        f = frame_at(fam, np.array([0.3, -0.1]))
        assert f.normal_theta.shape == (2, 4)
        assert np.abs(f.normal_theta @ a).max() < 1e-10
        assert np.abs(f.normal_theta @ f.normal_eta.T - np.eye(2)).max() < 1e-10
        assert np.abs(t_akk(gaussian_family(4), fam, np.array([0.3, -0.1]))).max() < 1e-12


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
        assert np.allclose(g1(pg), 0.0)
        assert np.allclose(pg.gm1, 0.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_duality_residual(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=5, margin=0.2, seed=7):
            pg = point_geometry(model.curved, u)
            dg = fd_field_derivative(lambda x: point_geometry(model.curved, x).g, u, 1e-6)
            res = np.abs(dg - (g1(pg) + pg.gm1.transpose(0, 2, 1))).max()
            assert res < 1e-6

    def test_nan_eta_hessian_raises(self, vmf):
        def jet(us):
            j = vmf.curved.jet(us)
            return j._replace(hess_eta=np.full_like(j.hess_eta, np.nan))

        for u in (U0_VMF, np.stack([U0_VMF, U0_VMF])):
            pg = point_geometry(dataclasses.replace(vmf.curved, jet=jet), u)
            assert np.all(np.isfinite(g1(pg)))
            with pytest.raises(EvaluationDomainError):
                pg.gm1

    def test_vmf_christoffel_oracle(self, vmf):
        # the sub-skewness vanishes, so both connections equal the metric
        # Christoffel symbols of the scaled round metric
        pg = point_geometry(vmf.curved, U0_VMF)
        chris = christoffel_first_kind(lambda u: point_geometry(vmf.curved, u).g, U0_VMF)
        assert np.abs(g1(pg) - chris).max() < 1e-9
        assert np.abs(pg.gm1 - chris).max() < 1e-9
        assert np.abs(0.5 * (g1(pg) + pg.gm1) - chris).max() < 1e-9


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

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_ricci_derivative_matches_central_difference(self, model_name, data):
        # the closed-form d_e Ric_bc of a bundle over rows against a central
        # difference of the Ricci tensor at each row
        model = MODELS_BY_NAME[model_name]
        us = data.draw(chart_rows(model, 4))
        chart = partial(point_geometry, model.curved)
        dric = chart(us).dric
        for i, u in enumerate(us):
            fd = fd_ricci_derivative(chart, u)
            assert np.abs(dric[i] - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max()), u


class TestClassification:
    def test_vmf(self, vmf, vmf_grid):
        pg = point_geometry(vmf.curved, vmf_grid)
        cls = classify(pg)
        assert cls.umbilic and cls.dual_quadric
        assert cls.es_epsilon == pytest.approx(vmf.r_dagger / vmf.r, rel=1e-10)
        assert cls.k0 == pytest.approx(1.0 / vmf.r, rel=1e-10)
        assert cls.l0 == pytest.approx(1.0 / vmf.r_dagger, rel=1e-10)
        theta0, eta0 = quadric_centres(pg, cls.k0, cls.l0)
        assert np.abs(theta0).max() < 1e-10
        assert np.abs(eta0).max() < 1e-10
        assert cls.constant_curvature == pytest.approx(1.0 / (vmf.r * vmf.r_dagger), rel=1e-10)
        assert cls.quadric_identity_residual < 1e-8

    def test_hyperboloid(self, hyp, hyp_grid):
        cls = classify(point_geometry(hyp.curved, hyp_grid))
        assert cls.umbilic and cls.dual_quadric
        assert cls.es_epsilon == pytest.approx(-hyp.r_dagger / hyp.r, rel=1e-10)
        assert cls.k0 == pytest.approx(-1.0 / hyp.r, rel=1e-10)
        assert cls.l0 == pytest.approx(1.0 / hyp.r_dagger, rel=1e-10)
        assert cls.constant_curvature == pytest.approx(-1.0 / (hyp.r * hyp.r_dagger), rel=1e-10)
        assert cls.constant_curvature < 0
        assert cls.quadric_identity_residual < 1e-8

    @pytest.mark.parametrize("m", [2, 3])
    def test_hyperboloid_large_concentration_is_dual_quadric(self, m):
        # the identity's target 1/(k0 l0) is about -1e9 here, and rounding alone
        # puts its absolute residual near 2e-6; relative to the target it is 2e-15
        model = HyperboloidModel(m, 1e9)
        cls = classify(point_geometry(model.curved, model.probe_grid(count=12, margin=0.15, seed=11)))
        assert cls.dual_quadric
        assert cls.quadric_identity_residual <= cls.tolerance

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    def test_fits_match_per_point_reference(self, model_name):
        # a per-point reference for the array reductions: the slope fits solve
        # the same least-squares matrix, its points' column scaled by the power
        # of two at its maximum, so k0 and l0 keep their bits; the sums of
        # epsilon and lambda run in another order
        model = MODELS_BY_NAME[model_name]
        grid = model.probe_grid(count=12, margin=0.15, seed=11)
        cls = classify(point_geometry(model.curved, grid))
        pgs = [point_geometry(model.curved, u) for u in grid]

        def slope(vecs, points):
            scale = 2.0 ** -math.frexp(max(float(np.abs(pt).max()) for pt in points))[1]
            a_rows, b_rows = [], []
            for vec, pt in zip(vecs, points):
                for i in range(model.m + 1):
                    row = np.zeros(model.m + 2)
                    row[0], row[1 + i] = pt[i] * scale, -1.0
                    a_rows.append(row)
                    b_rows.append(vec[i])
            return float(np.linalg.lstsq(np.array(a_rows), np.array(b_rows), rcond=None)[0][0] * scale)

        assert cls.k0 == slope([p.jet.normal_theta[0] for p in pgs], [p.jet.theta for p in pgs])
        assert cls.l0 == slope([p.jet.normal_eta[0] for p in pgs], [p.jet.eta for p in pgs])
        eps = sum(float(np.sum(p.hm1 * p.h1)) for p in pgs) / sum(float(np.sum(p.h1 * p.h1)) for p in pgs)
        # each point's curvature pattern and R^(1) scaled by the pattern's own size
        num = den = 0.0
        for p in pgs:
            gmax = np.abs(p.g).max()
            gn = p.g / gmax
            pat = np.einsum("ad,bc->abcd", gn, gn) - np.einsum("ac,bd->abcd", gn, gn)
            pmax = np.abs(pat).max()
            num += float(np.sum(p.r1 / gmax / gmax / pmax * (pat / pmax)))
            den += float(np.sum((pat / pmax) ** 2))
        lam = num / den
        assert cls.es_epsilon == pytest.approx(eps, rel=64 * np.finfo(float).eps, abs=0.0)
        assert cls.constant_curvature == pytest.approx(lam, rel=64 * np.finfo(float).eps, abs=0.0)

    def test_linear_is_flat_umbilic_not_quadric(self, linear):
        rng = np.random.default_rng(3)
        grid = rng.uniform(-1.0, 1.0, size=(10, 2))
        cls = classify(point_geometry(linear.curved, grid))
        assert cls.umbilic
        assert not cls.dual_quadric
        assert abs(cls.constant_curvature) < 1e-10

    def test_numeric_frames_classification(self, vmf, vmf_grid):
        cls = classify(point_geometry(numeric_clone(vmf), vmf_grid), tolerance=1e-4)
        assert cls.tolerance == 1e-4
        assert cls.umbilic and cls.dual_quadric
        assert cls.k0 == pytest.approx(4.0, rel=1e-5)

    def test_codim_two_rejected(self, linear):
        fam = fd_family(gaussian_family(4), 2, lambda u: np.concatenate([u, [0.0, 0.0]]))
        with pytest.raises(UnsupportedShapeError):
            classify(point_geometry(fam, np.zeros((3, 2))))


class TestSkewnessContraction:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_t_akk_vanishes(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=5, margin=0.2, seed=23):
            assert np.abs(t_akk(family_of(model), model.curved, u)).max() < 1e-6

    def test_linear_zero(self, linear):
        assert np.abs(t_akk(gaussian_family(3), linear.curved, np.array([0.2, -0.6]))).max() < 1e-12


FIELDS = ("g", "ginv", "gkk_inv", "ht", "he", "gm1", "h1", "hm1", "r1", "rm1", "dric")
JET_VALUES = ("theta", "eta")


def assert_rows_match_single(fam, us):
    batch = point_geometry(fam, us)
    for i, u in enumerate(us):
        single = point_geometry(fam, u)
        pairs = [(getattr(batch, name)[i], getattr(single, name), name) for name in FIELDS]
        pairs += [(getattr(batch.jet, name)[i], getattr(single.jet, name), name) for name in JET_VALUES]
        for got, want, name in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestBatchedBundle:
    """A bundle over rows carries, row by row, the bytes of each point's own bundle."""

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_rows_match_single(self, model_name, data):
        model = MODELS_BY_NAME[model_name]
        assert_rows_match_single(model.curved, data.draw(chart_rows(model, 6)))

    @given(us=chart_rows(MODELS_BY_NAME["vmf"], 3, azimuth_margin=0.15))
    @settings(max_examples=4, deadline=None)
    def test_numeric_clone_rows_match_single(self, us):
        # the clone's finite-difference stencil must stay inside the chart's
        # azimuth range, so its azimuth keeps the polar axes' margin
        assert_rows_match_single(numeric_clone(MODELS_BY_NAME["vmf"]), us)

    def test_numeric_clone_stencil_leaves_the_chart(self):
        # at an azimuth of 2 pi - 2e-3 the stencil step (about 4.6e-3) crosses
        # the chart's 2 pi + 1e-3 bound, which the clone's embedding checks
        with pytest.raises(ChartError, match="azimuthal"):
            point_geometry(numeric_clone(MODELS_BY_NAME["vmf"]), np.array([[1.0, 6.28125]]))

    @given(us=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=5).map(np.array))
    @settings(max_examples=10, deadline=None)
    def test_linear_rows_match_single(self, us):
        model = LinearGaussianModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.25]]))
        assert_rows_match_single(model.curved, us)

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    def test_batch_of_one_and_empty(self, model_name):
        model = MODELS_BY_NAME[model_name]
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
