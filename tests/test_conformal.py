import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgeo import cli, geometry
from seqgeo.conformal import (
    Gauge,
    conformal_sub_quantities,
    connection_coordinate_change,
    flatness_test,
    gauge_pde_residual,
    quadric_map,
    ubar_chart_connection,
    weyl_schouten,
)
from seqgeo.errors import ChartError, GaugeSingularityError, ParameterError, UnsupportedShapeError
from seqgeo.geometry import point_geometry
from seqgeo.models import MODELS

from ambient import (
    conformal_chart_geometry,
    conformal_connection,
    conformal_rc_curvature,
    constant_gauge,
    curved_chart,
    curved_skewness,
    exp_linear_gauge,
    expfam_chart_geometry,
    expfam_gauge,
    expfam_gauge_on_theta,
    family_of,
    fd_family,
    gaussian_family,
    rows_chart,
)
from conftest import MODELS_BY_NAME, U0_HYP, U0_VMF
from oracles import (
    HYP_NU0,
    STEP1,
    STEP2,
    VMF_NU0,
    VMF_UBAR0,
    fd_field_derivative,
    fd_hessian,
    fd_map_hessian,
    max_residuals,
    reference_flatness,
    reference_weyl_schouten,
    rel_steps,
    scalar_affine_potentials,
)


D_VMF = np.eye(2, 3)
D_HYP = np.eye(2, 3) / 100.0


@pytest.fixture(scope="module")
def vmf_geom(vmf):
    return curved_chart(vmf.curved)


@pytest.fixture(scope="module")
def graph_surface():
    """A surface in the flat Gaussian family that is not conformally flat.

    The graph of ``1/2 u1^2 + 0.3 u2^3 + 0.2 u1 u2^2``, with the
    finite-difference jet, on 8 points of [-0.8, 0.8]^2.
    """
    fam = fd_family(
        gaussian_family(3),
        2,
        lambda u: np.array([u[0], u[1], 0.5 * u[0] ** 2 + 0.3 * u[1] ** 3 + 0.2 * u[0] * u[1] ** 2]),
    )
    return fam, np.random.default_rng(3).uniform(-0.8, 0.8, (8, 2))


@pytest.fixture(scope="module")
def arbitrary_gauge():
    return exp_linear_gauge(np.array([0.3, -0.15]))


class TestGauge:
    def test_positive_required(self):
        g = Gauge(nu=lambda xs: -np.ones(xs.shape[:-1]), s=np.zeros_like, ds=np.zeros_like)
        with pytest.raises(GaugeSingularityError):
            g.nu_at(np.array([0.0]))

    def test_vmf_gauge_values(self, vmf):
        g = vmf.gauge()
        assert g.nu_at(np.array([math.pi / 2, math.pi / 2])) == pytest.approx(1.0)
        assert g.nu_at(U0_VMF) == pytest.approx(VMF_NU0, rel=1e-14)
        assert g.nu_at(U0_VMF) == pytest.approx(2.3094011, abs=1e-6)
        with pytest.raises(GaugeSingularityError):
            g.nu_at(np.array([0.0, 1.0]))

    def test_hyperboloid_gauge_value(self, hyp):
        assert hyp.gauge().nu_at(U0_HYP) == pytest.approx(HYP_NU0, rel=1e-14)
        assert hyp.gauge().nu_at(U0_HYP) == pytest.approx(11.5278, abs=1e-4)


class TestMetricSkewness:
    """The transformed metric is nu g and the transformed skewness is
    Gamma_bar(-1) - Gamma_bar(+1), both read from the transformed chart."""

    def test_unit_gauge_is_identity(self, vmf, vmf_geom):
        x = np.array([0.8, 1.0])
        p = vmf_geom(x)
        assert np.abs((p.gm1 - p.g1) - curved_skewness(family_of(vmf), vmf.curved, x)).max() < 1e-15
        p_bar = conformal_chart_geometry(vmf_geom, constant_gauge(1.0))(x)
        assert np.abs(p_bar.g - p.g).max() < 1e-15
        assert np.abs((p_bar.gm1 - p_bar.g1) - (p.gm1 - p.g1)).max() < 1e-15

    def test_constant_two(self, vmf_geom):
        x = np.array([0.8, 1.0])
        p = vmf_geom(x)
        p_bar = conformal_chart_geometry(vmf_geom, constant_gauge(2.0))(x)
        assert np.abs(p_bar.g - 2 * p.g).max() < 1e-15
        assert np.abs((p_bar.gm1 - p_bar.g1) - 2 * (p.gm1 - p.g1)).max() < 1e-15

    def test_vmf_gauge_scales_metric(self, vmf, vmf_geom):
        g = vmf_geom(U0_VMF).g
        gbar = conformal_chart_geometry(vmf_geom, vmf.gauge())(U0_VMF).g
        assert np.abs(gbar - VMF_NU0 * g).max() < 1e-14


class TestConnection:
    def test_zero_log_gradient(self, vmf_geom):
        x = np.array([0.8, 1.0])
        p = vmf_geom(x)
        gam = p.gm1
        out = conformal_connection(gam, p.g, constant_gauge(3.0), -1.0, x)
        assert np.abs(out - 3.0 * gam).max() < 1e-14

    def test_flat_identity_direct_substitution(self):
        gauge = exp_linear_gauge(np.array([1.0, 0.0]))
        x = np.zeros(2)
        nu = gauge.nu_at(x)
        out = conformal_connection(np.zeros((2, 2, 2)), np.eye(2), gauge, -1.0, x)
        assert out[0, 0, 0] == pytest.approx(2.0 * nu)
        assert out[0, 1, 1] == pytest.approx(nu)
        assert out[1, 1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_flattening_kills_connection(self, vmf, hyp, vmf_grid, hyp_grid):
        for model, dmat, grid in ((vmf, D_VMF, vmf_grid), (hyp, D_HYP, hyp_grid)):
            gauge = model.gauge()
            for u in grid[:4]:
                pg = geometry.point_geometry(model.curved, u)
                pulled, inhom = ubar_chart_connection(pg, gauge, dmat)
                assert np.abs(pulled + inhom).max() < 1e-5


class TestCurvatureTransform:
    def test_zero_log_gradient_scales(self, vmf_geom):
        x = np.array([0.8, 1.0])
        p = vmf_geom(x)
        r = p.rm1
        out = conformal_rc_curvature(
            r, p.g, p.gm1, p.g1,
            constant_gauge(2.5), -1.0, x,
        )
        assert np.abs(out - 2.5 * r).max() < 1e-12

    def test_affine_gauge_flattens_full_family(self, vmf):
        # explicit gauge of the ambient family: both unit-connection
        # curvatures must vanish after the transformation
        gauge = expfam_gauge_on_theta(family_of(vmf), 1.0, [0.5, -0.2, 0.1])
        geom = expfam_chart_geometry(family_of(vmf))
        theta = vmf.embed(np.array([0.9, 1.1]))[0] * 3.0
        p = geom(theta)
        for alpha in (-1.0, 1.0):
            r = p.rm1 if alpha == -1.0 else -p.rm1.transpose(0, 1, 3, 2)
            ga = p.gm1 if alpha == -1.0 else p.g1
            gma = p.g1 if alpha == -1.0 else p.gm1
            out = conformal_rc_curvature(r, p.g, ga, gma, gauge, alpha, theta)
            assert np.abs(out).max() < 1e-5

    def test_gaussian_n2_affine_gauge_flattens(self):
        fam = gaussian_family(2)
        gauge = expfam_gauge_on_theta(fam, 1.0, [0.4, -0.3])
        geom = expfam_chart_geometry(fam)
        pt = np.array([0.3, 0.2])
        p = geom(pt)
        out = conformal_rc_curvature(
            np.zeros((2, 2, 2, 2)), p.g, p.gm1, p.g1,
            gauge, -1.0, pt,
        )
        assert np.abs(out).max() < 1e-8

    def test_quadric_gauge_flattens_submanifold(self, vmf, vmf_geom):
        geom_bar = conformal_chart_geometry(vmf_geom, vmf.gauge())
        for u in (np.array([0.7, 0.9]), np.array([1.2, 1.9])):
            assert np.abs(geom_bar(u).rm1).max() < 1e-4

    def test_duality_preserved(self, vmf_geom, arbitrary_gauge):
        # metric-derivative and curvature duality survive an arbitrary positive gauge
        geom_bar = conformal_chart_geometry(vmf_geom, arbitrary_gauge)
        x = np.array([0.9, 1.1])
        dg = fd_field_derivative(lambda y: geom_bar(y).g, x, 1e-6)
        p_bar, p = geom_bar(x), vmf_geom(x)
        res = dg - (p_bar.g1 + p_bar.gm1.transpose(0, 2, 1))
        assert np.abs(res).max() < 1e-6
        rm1_bar = p_bar.rm1
        r1 = -p.rm1.transpose(0, 1, 3, 2)
        r1_bar = conformal_rc_curvature(
            r1, p.g, p.g1, p.gm1,
            arbitrary_gauge, 1.0, x,
        )
        assert np.abs(r1_bar + rm1_bar.transpose(0, 1, 3, 2)).max() < 1e-4


def one_point(chart, x):
    """The Weyl-Schouten set at one point: a batch of one, read at ``[0]``."""
    ws = weyl_schouten(chart(np.asarray(x, dtype=float)[None]))
    return type(ws)(ws.w4[0], ws.w3[0], ws.w2[0])


class TestWeylSchouten:
    def test_full_family_vanishes(self):
        geom = rows_chart(expfam_chart_geometry(gaussian_family(2)))
        ws = one_point(geom, np.array([0.3, -0.2]))
        assert all(v < 1e-12 for v in max_residuals(ws).values())

    def test_vmf_m2_flat(self, vmf_geom):
        ws = one_point(vmf_geom, np.array([0.9, 1.2]))
        res = max_residuals(ws)
        assert res["w4"] < 1e-12  # dimension-two identity
        assert res["w3"] < 1e-8
        assert res["w2"] < 1e-12

    def test_w4_antisymmetric_first_slots(self, vmf3):
        geom = partial(point_geometry, vmf3.curved)
        ws = one_point(geom, np.array([0.8, 1.1, 0.5]))
        vals = ws.w4
        assert np.abs(vals + vals.transpose(1, 0, 2, 3)).max() < 1e-12

    def test_vmf_m3_w4(self, vmf3):
        geom = partial(point_geometry, vmf3.curved)
        ws = one_point(geom, np.array([0.8, 1.1, 0.5]))
        assert max_residuals(ws)["w4"] < 1e-4

    @pytest.mark.parametrize("name", ["vmf", "vmf3", "hyp", "hyp3"])
    def test_one_bundle_per_point_set(self, name, request, monkeypatch):
        # a geometry report takes two jets: one bundle over its whole probe
        # grid, and one over 6 points for the flattened checks, which the
        # flattening map reads too; classify, the flatness test and the gauge
        # equation read the grid's bundle and take none, at more than 128 points
        model = request.getfixturevalue(name)
        m, density = model.m, 259
        jets = []
        frame_at = geometry.frame_at
        monkeypatch.setattr(geometry, "frame_at", lambda fam, u: jets.append(u) or frame_at(fam, u))
        model_name = {"circ": "vmf", "hyp": "hyperboloid"}[model.kinds[0]]
        assert cli.geometry_report(model_name, m, model.r, grid_density=density)["pass"]
        assert [u.shape for u in jets] == [(density, m), (6, m)]
        pg = point_geometry(model.curved, model.probe_grid(count=density, margin=0.15, seed=11))
        jets.clear()
        cls = geometry.classify(pg)
        flatness_test(pg)
        gauge_pde_residual(pg, model.gauge(), cls.k0 * cls.l0)
        assert jets == []

    @pytest.mark.parametrize("step", [None, 1e-4])
    @pytest.mark.parametrize("name", ["vmf", "hyp", "vmf3", "hyp3", "graph_surface"])
    def test_matches_reference_bits(self, name, step, request):
        # the one-bundle kernel over a grid against the stencil oracle at each
        # point, at the oracle's relative step and at a fixed one: w4 and w2
        # have its bits, and w3 differs from it by no more than the stencil's
        # error, which is largest (4e-6 relative) on graph_surface, whose Ricci
        # tensor the stencil reads from a finite-difference jet
        if name == "graph_surface":
            fam, grid = request.getfixturevalue(name)
        else:
            model = request.getfixturevalue(name)
            fam, grid = model.curved, model.probe_grid(count=20, margin=0.15, seed=11)
        chart = partial(point_geometry, fam)
        pg = chart(grid)
        got, dric = weyl_schouten(pg), pg.dric
        for i, x in enumerate(grid):
            want = reference_weyl_schouten(chart, x, step)
            for field in ("w4", "w2"):
                assert getattr(got, field)[i].tobytes() == getattr(want, field).tobytes(), (x, field)
            assert np.abs(got.w3[i] - want.w3).max() <= 1e-5 * np.abs(dric[i]).max(), x

    def test_dimension_one_rejected(self):
        geom = expfam_chart_geometry(gaussian_family(1))
        with pytest.raises(UnsupportedShapeError):
            weyl_schouten(geom(np.array([[0.1]])))

    def test_w4_invariant_w3_covariant(self, vmf_geom, arbitrary_gauge):
        x = np.array([0.9, 1.1])
        plain = one_point(vmf_geom, x)
        bar = one_point(rows_chart(conformal_chart_geometry(vmf_geom, arbitrary_gauge)), x)
        assert np.abs(bar.w4 - plain.w4).max() < 1e-4
        s = arbitrary_gauge.s(x)
        predicted = plain.w3 + np.einsum("ijkl,l->ijk", plain.w4, s)
        assert np.abs(bar.w3 - predicted).max() < 1e-4
        assert np.abs(bar.w2 - plain.w2).max() < 1e-4

    def test_w4_invariance_in_three_dimensions(self, vmf3):
        geom = curved_chart(vmf3.curved)
        gauge = exp_linear_gauge(np.array([0.2, -0.1, 0.05]))
        x = np.array([0.9, 1.0, 0.7])
        plain = one_point(geom, x)
        bar = one_point(rows_chart(conformal_chart_geometry(geom, gauge)), x)
        assert np.abs(bar.w4 - plain.w4).max() < 1e-4


class TestFlatness:
    def test_gaussian_full_family(self):
        geom = rows_chart(expfam_chart_geometry(gaussian_family(2)))
        rng = np.random.default_rng(1)
        rep = flatness_test(geom(rng.normal(size=(5, 2))))
        assert rep.flat and max(rep.residuals["w3"], rep.residuals["w2"]) < 1e-12

    def test_vmf_m2(self, vmf_geom, vmf_grid):
        rep = flatness_test(vmf_geom(vmf_grid[:6]))
        assert rep.flat

    def test_hyperboloid_m2(self, hyp, hyp_grid):
        rep = flatness_test(point_geometry(hyp.curved, hyp_grid[:6]))
        assert rep.flat

    def test_vmf_m3_uses_w4(self, vmf3):
        grid = vmf3.probe_grid(count=4, margin=0.3, seed=2)
        rep = flatness_test(point_geometry(vmf3.curved, grid))
        assert rep.flat

    def test_graph_surface_rejected(self, graph_surface):
        # negative control: a verdict that ignored the curvature would pass
        fam, grid = graph_surface
        tolerance = 1e-4
        pg = point_geometry(fam, grid)
        rep = flatness_test(pg, tolerance=tolerance)
        assert rep.flat is False
        assert rep.residuals["w3"] > 1e3 * tolerance
        cls = geometry.classify(pg, tolerance=1e-4)
        assert cls.umbilic is False and cls.umbilic_residual > 1e3 * cls.tolerance
        assert cls.dual_quadric is False and cls.dual_quadric_residual > 1e3 * cls.tolerance

    @pytest.mark.parametrize("name", ["vmf", "hyp", "vmf3", "graph_surface"])
    def test_matches_per_point_loop(self, name, request):
        # the verdict over one bundle against a loop over the reference, one
        # point at a time, on a grid of more than 128 points
        if name == "graph_surface":
            fam, grid = request.getfixturevalue(name)
        else:
            model = request.getfixturevalue(name)
            fam, grid = model.curved, model.probe_grid(count=131, margin=0.15, seed=11)
        chart = partial(point_geometry, fam)
        got, want = flatness_test(chart(grid)), reference_flatness(chart, grid, one_point)
        assert (got.flat, got.residuals) == (want.flat, want.residuals)
        assert got.worst_point.tobytes() == want.worst_point.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_first_maximal_point_wins(self, dim):
        # a chart whose curvature scales with u_0^2: the points at u_0 = 1 and
        # u_0 = -1, at rows 3 and 130 of the grid, tie exactly, and the first is the worst
        base = np.random.default_rng(5).normal(size=(dim,) * 4)
        dric = np.zeros((dim,) * 3)
        dric[0] = 2.0 * np.einsum("lijl->ij", base)  # the metric is the identity: Ric = u_0^2 Ric(base)

        def chart(x):
            lead = x.shape[:-1]
            return SimpleNamespace(u=x, ginv=np.broadcast_to(np.eye(dim), lead + (dim, dim)),
                                   gm1=np.zeros(lead + (dim,) * 3),
                                   rm1=(x[..., 0] ** 2)[..., None, None, None, None] * base,
                                   dric=x[..., 0, None, None, None] * dric)

        grid = np.random.default_rng(6).uniform(-0.5, 0.5, (133, dim))
        grid[3, 0], grid[130, 0] = 1.0, -1.0
        grid[130, 1:] = grid[3, 1:]
        rep = flatness_test(chart(grid))
        want = reference_flatness(chart, grid, one_point)
        assert rep.residuals == want.residuals
        assert rep.worst_point.tobytes() == grid[3].tobytes() == want.worst_point.tobytes()


class TestExpfamGauge:
    def test_trivial_constants_identity(self):
        fam = gaussian_family(2)
        gauge, (forward, derivatives) = expfam_gauge(fam, 1.0, [0.0, 0.0], [0.0, 0.0], np.eye(2))
        eta = np.array([0.4, -0.2])
        assert gauge.nu_at(eta) == pytest.approx(1.0)
        assert np.allclose(forward(eta), eta)

    def test_gaussian_scalar_closed_forms(self):
        fam = gaussian_family(1)
        gauge, (forward, derivatives) = expfam_gauge(fam, 1.0, [1.0], [0.0], [[1.0]])
        eta = np.array([0.7])
        assert gauge.nu_at(eta) == pytest.approx(1.0 / 1.7)
        h = forward(eta)
        assert h[0] == pytest.approx(0.7 / 1.7)
        phi_bar, _, _ = scalar_affine_potentials(1.0, 1.0, 0.0, 1.0)
        assert phi_bar(h) == pytest.approx((0.7 ** 2 / 2) / 1.7, rel=1e-10)
        # contravariant metric in the new chart: finite differences of the
        # potential against the pushforward of the scaled Fisher information
        fd = fd_hessian(phi_bar, h, rel_steps(h, STEP2))[0, 0]
        deta_dh = 1.0 / derivatives(eta)[0][0, 0]
        push = gauge.nu_at(eta) * 1.0 * deta_dh ** 2
        assert fd == pytest.approx(push, rel=1e-4)
        assert fd == pytest.approx(1.7 ** 3, rel=1e-4)

    def test_legendre_identity_on_grid(self):
        fam = gaussian_family(1)
        gauge, (forward, derivatives) = expfam_gauge(fam, 1.0, [1.0], [0.0], [[1.0]])
        phi_bar, psi_bar, grad = scalar_affine_potentials(1.0, 1.0, 0.0, 1.0)
        for eta_val in (-0.4, 0.0, 0.7, 1.5):
            eta = np.array([eta_val])
            h = forward(eta)
            xi = grad(h)
            psi_val, h_sol = psi_bar(xi, h)
            gap = psi_val + phi_bar(h) - float(xi @ h)
            assert abs(gap) < 1e-8
            assert np.abs(h_sol - h).max() < 1e-6

    def test_gauge_jacobian_matches_fd(self):
        fam = gaussian_family(2)
        gauge, (forward, derivatives) = expfam_gauge(fam, 1.0, [0.5, -0.25], [0.1, 0.0], [[2.0, 0.0], [1.0, 1.0]])
        eta = np.array([0.3, 0.6])
        fd = fd_field_derivative(forward, eta, rel_steps(eta, STEP1)).T
        assert np.abs(derivatives(eta)[0] - fd).max() < 1e-8

    def test_singular_denominator(self):
        fam = gaussian_family(1)
        gauge, _ = expfam_gauge(fam, 0.0, [1.0], [0.0], [[1.0]])
        with pytest.raises(GaugeSingularityError):
            gauge.nu_at(np.array([0.0]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            expfam_gauge(gaussian_family(2), 1.0, [0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)))


class TestQuadricGauge:
    def test_vmf_map_and_residual(self, vmf, vmf_grid):
        gauge = vmf.gauge()
        ub = quadric_map(point_geometry(vmf.curved, U0_VMF), gauge, D_VMF)[0]
        eta = vmf.embed(U0_VMF)[1]
        assert np.abs(ub - VMF_NU0 * eta[:2]).max() < 1e-14
        assert ub[0] == pytest.approx(VMF_UBAR0[0], rel=1e-12)
        assert ub[1] == pytest.approx(VMF_UBAR0[1], rel=1e-12)
        res = gauge_pde_residual(point_geometry(vmf.curved, vmf_grid), gauge, 1.0 / (vmf.r * vmf.r_dagger))
        assert res < 1e-6

    def test_hyperboloid_residual(self, hyp, hyp_grid):
        gauge = hyp.gauge()
        res = gauge_pde_residual(point_geometry(hyp.curved, hyp_grid), gauge, -1.0 / (hyp.r * hyp.r_dagger))
        assert res < 1e-6
        assert gauge.nu_at(U0_HYP) == pytest.approx(11.527782803679804, rel=1e-12)

    def test_vmf_m3_gauge_solves_equation(self, vmf3):
        grid = vmf3.probe_grid(count=6, margin=0.3, seed=4)
        res = gauge_pde_residual(
            point_geometry(vmf3.curved, grid), vmf3.gauge(), 1.0 / (vmf3.r * vmf3.r_dagger)
        )
        assert res < 1e-6

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("m", [2, 3])
    def test_dual_quadric_gauge_at_every_scale(self, name, m):
        # the sequential suite builds its flattening map with no check, so both
        # models must be dual quadrics whose gauge solves the quadric gauge
        # equation at every r they accept, 1e-12 to 1e300
        grid = MODELS[name](m, 1.0).probe_grid(count=16, margin=0.15, seed=11)
        for e in range(-12, 301):
            try:
                model = MODELS[name](m, 10.0 ** e)
            except ParameterError:
                continue
            pg = point_geometry(model.curved, grid)
            cls = geometry.classify(pg)
            assert cls.dual_quadric, e
            assert gauge_pde_residual(pg, model.gauge(), cls.k0 * cls.l0) <= 1e-6, e

    def test_jacobian_and_inverse(self, vmf):
        _, _, at = model_map(vmf, D_VMF)
        fd = fd_field_derivative(lambda u: at(u)[0], U0_VMF, rel_steps(U0_VMF, STEP1)).T
        ub, jac, _ = at(U0_VMF)
        assert np.abs(jac - fd).max() < 1e-7
        # the map inverts by Newton steps on its closed-form Jacobian
        back = U0_VMF + 0.05
        for _ in range(20):
            ubar, jac, _ = at(back)
            back = back - np.linalg.solve(jac, ubar - ub)
        assert np.abs(back - U0_VMF).max() < 1e-10

    def test_wrong_gauge_rejected(self, vmf, vmf_grid):
        k0l0 = 1.0 / (vmf.r * vmf.r_dagger)
        assert gauge_pde_residual(point_geometry(vmf.curved, vmf_grid), constant_gauge(2.0), k0l0) > 1e-6

    def test_non_quadric_rejected(self, linear):
        rng = np.random.default_rng(5)
        grid = rng.uniform(-1, 1, size=(8, 2))
        assert geometry.classify(point_geometry(linear.curved, grid)).dual_quadric is False


class TestSubQuantities:
    def test_zero_log_gradient_scales(self, vmf):
        gauge = constant_gauge(2.0)
        u = np.array([0.8, 1.0])
        pg = geometry.point_geometry(vmf.curved, u)
        gam_bar, h1_bar = conformal_sub_quantities(pg, gauge)
        assert np.abs(gam_bar - 2.0 * pg.gm1).max() < 1e-14
        # s_kappa is the mean extrinsic curvature, so H_bar(1) = nu K(1), with
        # K(1) = H(1) - g (g^ab H(1)_ab / m) the conformal 1-extrinsic curvature
        mean = np.einsum("abk,ab->k", pg.h1, pg.ginv) / vmf.m
        k1 = pg.h1 - np.einsum("ab,k->abk", pg.g, mean)
        assert np.abs(h1_bar - 2.0 * k1).max() < 1e-14

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_mean_curvature_choice_kills_h1(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=4, margin=0.2, seed=9):
            pg = geometry.point_geometry(model.curved, u)
            _, h1_bar = conformal_sub_quantities(pg, model.gauge())
            k1 = h1_bar / model.gauge().nu_at(u)
            assert np.abs(h1_bar).max() < 1e-6
            assert np.abs(k1).max() < 1e-12

    def test_conformal_es_transform_rule(self, vmf):
        # K built from transformed ingredients equals nu K for any s_kappa
        gauge = vmf.gauge()
        u = np.array([0.7, 1.3])
        nu = gauge.nu_at(u)
        s_kappa = np.array([0.37])
        pg = geometry.point_geometry(vmf.curved, u)
        k1 = conformal_sub_quantities(pg, gauge)[1] / nu
        h1_bar = nu * (pg.h1 - np.einsum("ab,k->abk", pg.g, s_kappa))
        gbar = nu * pg.g
        hbar_k = np.einsum("abk,ab->k", h1_bar, np.linalg.inv(gbar)) / vmf.m
        k_bar = h1_bar - np.einsum("ab,k->abk", gbar, hbar_k)
        assert np.abs(k_bar - nu * k1).max() < 1e-12


def model_map(model, dmat=None):
    """The model's gauge, a D (by default one that mixes every mean coordinate), and the
    flattening map ``(ubar, jacobian, hessian)`` of that D on the bundle at a point or rows."""
    m = model.m
    if dmat is None:
        dmat = np.eye(m, m + 1) + 0.25 * np.arange(1, m * (m + 1) + 1).reshape(m, m + 1) / (m * m)
    gauge = model.gauge()
    return gauge, dmat, lambda u: quadric_map(point_geometry(model.curved, u), gauge, dmat)


def gauge_rows(model, max_rows):
    """Lists of chart points off the gauge's singular set, as ``(P, m)`` arrays:
    the azimuth, like the polar axes, keeps a 0.15 margin from every zero of sin."""
    polar = [st.floats(0.05, 1.5) if kind == "hyp" else st.floats(0.15, math.pi - 0.15)
             for kind in model.kinds[:-1]]
    azimuth = st.floats(0.15, math.pi - 0.15) | st.floats(math.pi + 0.15, 2.0 * math.pi - 0.15)
    return st.lists(st.tuples(*polar, azimuth), min_size=1, max_size=max_rows).map(np.array)


def affine_map():
    fam = gaussian_family(2)
    return expfam_gauge(fam, 1.0, [0.5, -0.25], [0.1, 0.0], [[2.0, 0.0], [1.0, 1.0]])


def assert_same_bytes(rows, single):
    assert rows.shape == single.shape and rows.tobytes() == single.tobytes()


class TestClosedFormMap:
    """The flattening map's closed-form derivatives, over points and rows."""

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    def test_hessian_matches_differenced_jacobian(self, model_name):
        model = MODELS_BY_NAME[model_name]
        _, _, at = model_map(model)
        for u in model.probe_grid(count=3, margin=0.3, seed=19):
            hess = at(u)[2]
            fd = fd_map_hessian(lambda x: at(x)[1], u)
            assert np.abs(hess - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_affine_hessian_matches_differenced_jacobian(self):
        _, (_, derivatives) = affine_map()
        for eta in (np.array([0.3, 0.6]), np.array([-0.4, 1.2])):
            hess = derivatives(eta)[1]
            fd = fd_map_hessian(lambda x: derivatives(x)[0], eta)
            assert np.abs(fd).max() > 0.1
            assert np.abs(hess - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_rows_match_single(self, model_name, data):
        model = MODELS_BY_NAME[model_name]
        gauge, _, at = model_map(model)
        us = data.draw(gauge_rows(model, 5))
        rows = [gauge.nu(us), gauge.s(us), gauge.ds(us), *at(us)]
        for i, u in enumerate(us):
            single = [gauge.nu(u), gauge.s(u), gauge.ds(u), *at(u)]
            for got, want in zip(rows, single):
                assert_same_bytes(got[i], np.asarray(want))

    @given(etas=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=5).map(np.array))
    @settings(max_examples=10, deadline=None)
    def test_affine_rows_match_single(self, etas):
        gauge, (forward, derivatives) = affine_map()
        rows = [gauge.nu(etas), gauge.s(etas), gauge.ds(etas), forward(etas), *derivatives(etas)]
        for i, eta in enumerate(etas):
            single = [gauge.nu(eta), gauge.s(eta), gauge.ds(eta), forward(eta),
                      *derivatives(eta)]
            for got, want in zip(rows, single):
                assert_same_bytes(got[i], np.asarray(want))

    def test_affine_singular_row(self):
        gauge, (forward, derivatives) = affine_map()
        etas = np.array([[0.3, 0.6], [0.0, 4.0]])  # 1 + 0.5 * 0 - 0.25 * 4 = 0
        assert gauge.nu(etas)[1] == math.inf
        with pytest.raises(GaugeSingularityError):
            gauge.nu_at(etas)
        with pytest.raises(GaugeSingularityError):
            forward(etas)


def flattening_kernels(model, us):
    """The three batched flattening-chart kernels at ``us``, a point or rows, from one bundle."""
    gauge, dmat, _ = model_map(model)
    pg = point_geometry(model.curved, us)
    _, jac, hess = quadric_map(pg, gauge, dmat)
    return [*conformal_sub_quantities(pg, gauge), *ubar_chart_connection(pg, gauge, dmat),
            *connection_coordinate_change(pg.gm1, jac, hess, pg.g)]


class TestBatchedKernels:
    """Row ``i`` of a flattening-chart kernel over rows has the bytes of point ``i``'s own call."""

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_rows_match_single(self, model_name, data):
        model = MODELS_BY_NAME[model_name]
        us = data.draw(gauge_rows(model, 5))
        rows = flattening_kernels(model, us)
        for i, u in enumerate(us):
            for got, want in zip(rows, flattening_kernels(model, u)):
                assert_same_bytes(got[i], want)

    @pytest.mark.parametrize("model_name", sorted(MODELS_BY_NAME))
    def test_batch_of_one(self, model_name):
        model = MODELS_BY_NAME[model_name]
        u = model.probe_grid(count=1, margin=0.2, seed=5)
        for got, want in zip(flattening_kernels(model, u), flattening_kernels(model, u[0])):
            assert_same_bytes(got, want[None])

    def test_rank_check_covers_every_row(self):
        basis = np.stack([np.eye(2), np.ones((2, 2))])
        with pytest.raises(ChartError, match="rank deficient"):
            connection_coordinate_change(np.zeros((2, 2, 2, 2)), basis, np.zeros((2, 2, 2, 2)),
                                         np.stack([np.eye(2)] * 2))
