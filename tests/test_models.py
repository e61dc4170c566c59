import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from seqgeo import expfam, geometry
from seqgeo.errors import (
    ChartError,
    GaugeSingularityError,
    ParameterError,
    UnsupportedShapeError,
)
from seqgeo.models import (
    HyperboloidModel,
    LinearGaussianModel,
    VmfModel,
    hyperboloid_mean_resultant,
    vmf_mean_resultant,
)

from conftest import U0_HYP, U0_VMF
from oracles import (
    HYP_C,
    VMF_C,
    iv_ratio_series,
    STEP1,
    fd_field_derivative,
    kv_ratio_recurrence,
    numeric_clone,
    polar_gauge_log_gradient,
    rel_steps,
)


class TestParameters:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            VmfModel(1, 0.25)
        with pytest.raises(ParameterError):
            VmfModel(2, -1.0)
        with pytest.raises(ParameterError):
            HyperboloidModel(2, 0.0)
        # the metric scale r * r_dagger underflows (vmf) or overflows (hyperboloid)
        with pytest.raises(ParameterError):
            VmfModel(2, 1e-200)
        with pytest.raises(ParameterError):
            HyperboloidModel(2, 1e-310)

    def test_mean_resultant_ranges(self):
        assert 0.0 < VmfModel(2, 0.25).r_dagger < 1.0
        assert HyperboloidModel(2, 0.1).r_dagger > 1.0


class TestMeanResultant:
    def test_hyperboloid_closed_form_exact(self):
        assert hyperboloid_mean_resultant(0.1, 2) == pytest.approx(11.0, abs=1e-14)
        assert hyperboloid_mean_resultant(0.5, 2) == pytest.approx(3.0, abs=1e-14)

    def test_vmf_against_series(self):
        for r in (0.05, 0.25, 1.0, 3.0):
            assert vmf_mean_resultant(r, 2) == pytest.approx(
                iv_ratio_series(r, 0.5), abs=1e-10
            )
        assert vmf_mean_resultant(0.25, 2) == pytest.approx(0.08298816507359685, abs=1e-13)

    def test_vmf_general_dimension_against_series(self):
        for m, nu in ((3, 1.0), (4, 1.5), (5, 2.0)):
            assert vmf_mean_resultant(0.8, m) == pytest.approx(
                iv_ratio_series(0.8, nu), abs=1e-10
            )

    def test_hyperboloid_even_dimension_recurrence(self):
        assert hyperboloid_mean_resultant(0.7, 4) == pytest.approx(
            kv_ratio_recurrence(0.7, 4), abs=1e-14
        )

    def test_monotone_in_concentration(self):
        assert vmf_mean_resultant(10.0, 2) > vmf_mean_resultant(1.0, 2)
        assert hyperboloid_mean_resultant(10.0, 2) < hyperboloid_mean_resultant(1.0, 2)
        grid = np.geomspace(0.01, 20.0, 30)
        vals = [vmf_mean_resultant(r, 2) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            vmf_mean_resultant(0.0, 2)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_ratios_over_the_full_concentration_range(self, m):
        # unscaled Bessel values overflow (I) and underflow (K) from rho ~ 700
        rhos = np.unique(np.concatenate([np.geomspace(1e-8, 1e5, 60), [700.0, 800.0]]))
        nu = 0.5 * (m - 1)
        vmf_vals = np.array([vmf_mean_resultant(r, m) for r in rhos])
        hyp_vals = np.array([hyperboloid_mean_resultant(r, m) for r in rhos])
        assert np.all(np.isfinite(vmf_vals)) and np.all(np.isfinite(hyp_vals))
        assert np.all((vmf_vals > 0.0) & (vmf_vals < 1.0))
        assert np.all(hyp_vals > 1.0)
        assert np.all(np.diff(vmf_vals) > 0.0)
        assert np.all(np.diff(hyp_vals) < 0.0)
        for r in rhos[rhos <= 10.0]:
            assert vmf_mean_resultant(r, m) == pytest.approx(iv_ratio_series(r, nu), rel=1e-10)
        for r in rhos[rhos <= 100.0]:
            reference = special.kv(nu + 1.0, r) / special.kv(nu, r)
            assert hyperboloid_mean_resultant(r, m) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("ratio, bessel, sign", [
        (vmf_mean_resultant, mpmath.besseli, 1.0),
        (hyperboloid_mean_resultant, mpmath.besselk, -1.0),
    ], ids=["vmf", "hyp"])
    @given(m=st.integers(2, 6), rho=st.floats(-8.0, 12.0).map(lambda x: 10.0 ** x))
    @example(m=3, rho=2.0 ** 30).via("the first argument where scipy's ive/kve return NaN")
    @example(m=2, rho=1.4e-3).via("cancellation in coth(rho) - 1/rho")
    @settings(max_examples=60, deadline=None)
    def test_ratio_against_mpmath(self, ratio, bessel, sign, m, rho):
        # vmf increases from 0 to 1 and the hyperboloid decreases from inf to 1
        value, further = ratio(rho, m), ratio(1.01 * rho, m)
        assert math.isfinite(value)
        assert (0.0 < value < 1.0) if sign > 0 else value > 1.0
        assert sign * (further - value) > 0.0
        nu = mpmath.mpf(m - 1) / 2
        with mpmath.workdps(50):
            reference = bessel(nu + 1, rho) / bessel(nu, rho)
            assert abs(value - reference) <= 1e-13 * reference

    @pytest.mark.parametrize("cls", [VmfModel, HyperboloidModel])
    def test_odd_dimension_large_concentration_builds(self, cls):
        model = cls(3, 800.0)
        assert math.isfinite(model.r_dagger)
        theta, _ = model.embed(model.probe_grid(count=1)[0])
        assert math.isfinite(model.family.psi_at(theta))


class TestEmbedding:
    def test_vmf_table(self, vmf):
        theta, eta = vmf.embed(U0_VMF)
        s1, c1 = math.sin(math.pi / 6), math.cos(math.pi / 6)
        s2, c2 = math.sin(math.pi / 3), math.cos(math.pi / 3)
        assert np.abs(theta - 0.25 * np.array([c1, s1 * c2, s1 * s2])).max() < 1e-15
        assert np.abs(eta - vmf.r_dagger * np.array([c1, s1 * c2, s1 * s2])).max() < 1e-15
        assert np.linalg.norm(theta) == pytest.approx(0.25)
        assert np.linalg.norm(eta) == pytest.approx(vmf.r_dagger)

    def test_hyperboloid_table(self, hyp):
        theta, eta = hyp.embed(U0_HYP)
        assert theta[0] == pytest.approx(-0.1 * math.cosh(0.1), abs=1e-15)
        assert eta[0] == pytest.approx(11.0 * math.cosh(0.1), rel=1e-14)
        assert theta[0] ** 2 - theta[1] ** 2 - theta[2] ** 2 == pytest.approx(0.01, rel=1e-12)

    def test_vmf_pole_degeneracy(self, vmf):
        theta, _ = vmf.embed(np.array([0.0, 2.3]))
        assert np.abs(theta - [0.25, 0.0, 0.0]).max() < 1e-15

    def test_out_of_range_rejected(self, vmf):
        with pytest.raises(ChartError):
            vmf.embed(np.array([4.0, 1.0]))
        with pytest.raises(ChartError):
            vmf.embed(np.array([1.0, 7.0]))

    @pytest.mark.parametrize("model_name", ["vmf", "hyp", "vmf3"])
    def test_eta_table_consistent_with_potential(self, model_name, request):
        model = request.getfixturevalue(model_name)
        for u in model.probe_grid(count=6, margin=0.2, seed=3):
            theta, eta = model.embed(u)
            eta_from_psi = expfam.eta_of_theta(model.family, theta).coords
            assert np.abs(eta - eta_from_psi).max() < 1e-8


class TestSampler:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_moments_and_support(self, model_name, request):
        model = request.getfixturevalue(model_name)
        u0 = U0_VMF if model_name == "vmf" else U0_HYP
        rng = np.random.default_rng(123)
        xs = model.sample_many(u0, rng, 100_000)
        residual = max(model.support_residual(x) for x in xs[:2000])
        assert residual < 1e-12
        mean = xs.mean(axis=0)
        expected = model.r_dagger * model.direction(u0)
        se = xs.std(axis=0, ddof=1) / math.sqrt(xs.shape[0])
        assert np.all(np.abs(mean - expected) <= 3.0 * se)

    def test_single_draw_type(self, vmf, hyp):
        rng = np.random.default_rng(0)
        for model, u0 in ((vmf, U0_VMF), (hyp, U0_HYP)):
            xs = model.sample_many(u0, rng, 1)
            assert xs.shape == (1, 3)
            assert model.support_residual(xs[0]) < 1e-12
        assert xs[0, 0] > 0

    def test_support_residual_flags_off_support(self, vmf, hyp):
        assert vmf.support_residual(np.array([1.0, 1.0, 0.0])) > 0.4
        assert hyp.support_residual(np.array([1.0, 1.0, 0.0])) == pytest.approx(1.0)
        assert hyp.support_residual(np.array([-1.0, 0.0, 0.0])) == math.inf  # past sheet

    def test_determinism(self, vmf):
        a = vmf.sample_many(U0_VMF, np.random.default_rng(99), 16)
        b = vmf.sample_many(U0_VMF, np.random.default_rng(99), 16)
        assert np.array_equal(a, b)

    def test_only_m2_supported(self, vmf3):
        with pytest.raises(UnsupportedShapeError):
            vmf3.sample_many(np.array([0.5, 0.5, 0.5]), np.random.default_rng(0), 2)


class TestMle:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_population_mean_recovers_truth(self, model_name, request):
        model = request.getfixturevalue(model_name)
        grid = model.probe_grid(count=8, margin=0.2, seed=5)
        etas = np.array([model.embed(u)[1] for u in grid])
        us, ok = model.mle_many(np.ones(len(grid)), etas)
        assert ok.all()
        assert np.abs(us - grid).max() < 1e-10

    def test_vmf_angles_of_normalized_vector(self, vmf):
        xbar = np.array([0.5, 0.5, 0.0]) / math.sqrt(0.5)
        us, _ = vmf.mle_many(np.ones(1), xbar[None, :])
        u = us[0]
        assert u[0] == pytest.approx(math.pi / 4)
        assert u[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_maximality_grid_oracle(self, model_name, request):
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(7)
        xbar = model.sample_many(
            U0_VMF if model_name == "vmf" else U0_HYP, rng, 50
        ).mean(axis=0)
        u_hat = model.mle_many(np.ones(1), xbar[None, :])[0][0]
        best = float(model.embed(u_hat)[0] @ xbar)
        for u in model.probe_grid(count=100, margin=0.02, seed=11):
            assert best >= float(model.embed(u)[0] @ xbar) - 1e-12

    def test_undefined_cases(self, vmf, hyp):
        _, ok = vmf.mle_many(np.ones(2), np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]))
        assert ok.tolist() == [False, True]
        sums = np.array([
            [0.1, 5.0, 0.0],   # spacelike
            [-2.0, 0.0, 0.0],  # past-pointing
            [2.0, 0.5, 0.0],
        ])
        _, ok = hyp.mle_many(np.ones(3), sums)
        assert ok.tolist() == [False, False, True]

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_vectorized_matches_scalar(self, model_name, request):
        model = request.getfixturevalue(model_name)
        u0 = U0_VMF if model_name == "vmf" else U0_HYP
        rng = np.random.default_rng(17)
        xs = model.sample_many(u0, rng, 40)
        sums = np.cumsum(xs, axis=0)
        ts = np.arange(1, 41, dtype=float)
        us, ok = model.mle_many(ts, sums)
        assert ok.all()
        for i in (0, 7, 39):
            # a single mean is a batch of one
            one, one_ok = model.mle_many(ts[i:i + 1] / ts[i], sums[i:i + 1] / ts[i])
            assert one_ok[0]
            assert np.abs(us[i] - one[0]).max() < 1e-12

    def test_only_m2_supported(self, vmf3):
        sums = np.array([[2.0, 0.5, 0.25, 0.1]])
        for model in (vmf3, HyperboloidModel(3, 0.5)):
            with pytest.raises(UnsupportedShapeError):
                model.mle_many(np.ones(1), sums)
            with pytest.raises(UnsupportedShapeError):
                model.criterion_many(np.ones(1), sums)

    def test_wrap_deviation(self, vmf):
        dev = vmf.wrap_deviation(np.array([0.1, 2 * math.pi - 0.2]))
        assert dev[1] == pytest.approx(-0.2)
        assert dev[0] == pytest.approx(0.1)


class TestStoppingConstant:
    def test_vmf_formula(self, vmf):
        rr = vmf.r * vmf.r_dagger
        expected = -0.5 * (2.0 / rr - 1.0 / vmf.r_dagger ** 2)
        assert vmf.stopping_constant() == pytest.approx(expected, rel=1e-14)
        assert vmf.stopping_constant() == pytest.approx(VMF_C, rel=1e-12)

    def test_hyperboloid_formula(self, hyp):
        expected = -0.5 * (-2.0 / 1.1 - 1.0 / 121.0)
        assert hyp.stopping_constant() == pytest.approx(expected, rel=1e-14)
        assert hyp.stopping_constant() == pytest.approx(HYP_C, rel=1e-12)

    def test_signs_from_the_closed_forms(self, vmf, hyp):
        # the mean-resultant ratio keeps r_dagger below r/m on the sphere and
        # above it on the hyperboloid, so both constants come out positive
        assert vmf.stopping_constant() > 0
        assert hyp.stopping_constant() > 0
        assert VmfModel(2, 0.01).stopping_constant() > 0


class TestModelGauge:
    def test_values(self, vmf, hyp):
        assert vmf.gauge().nu_at(np.array([math.pi / 2, math.pi / 2])) == pytest.approx(1.0)
        assert vmf.gauge().nu_at(U0_VMF) == pytest.approx(2.3094011, abs=1e-7)
        assert hyp.gauge().nu_at(U0_HYP) == pytest.approx(11.52778, abs=1e-5)

    def test_log_gradient_consistency(self, vmf, hyp):
        for model, u in ((vmf, np.array([0.8, 1.1])), (hyp, np.array([0.4, 1.1]))):
            g = model.gauge()
            fd = np.empty(2)
            h = 1e-7
            for a in range(2):
                e = np.zeros(2)
                e[a] = h
                fd[a] = (math.log(g.nu_at(u + e)) - math.log(g.nu_at(u - e))) / (2 * h)
            assert np.abs(g.s(u) - fd).max() < 1e-6

    def test_singularity_raises(self, vmf):
        with pytest.raises(GaugeSingularityError):
            vmf.gauge().nu_at(np.array([math.pi, 0.3]))

    def test_one_singular_row_raises(self, vmf):
        # in rows, nu maps the singular one to inf and nu_at refuses them all
        us = np.array([[0.5, 1.0], [math.pi, 0.3], [1.2, 2.0]])
        vals = vmf.gauge().nu(us)
        assert vals[1] == math.inf and np.all(np.isfinite(vals[[0, 2]]))
        with pytest.raises(GaugeSingularityError, match="3.14159"):
            vmf.gauge().nu_at(us)
        assert vmf.gauge().nu_at(us[[0, 2]]).tobytes() == vals[[0, 2]].tobytes()

    @pytest.mark.parametrize("model_name", ["vmf", "hyp", "vmf3", "hyp3"])
    def test_log_gradient_matches_reference_bits(self, model_name, request):
        # s and ds over rows carry the bits of the per-point math formulas
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(29)
        us = rng.uniform(0.05, 1.5, (1000, model.m))
        us[:, 1:] = rng.uniform(0.15, math.pi - 0.15, (1000, model.m - 1))
        us[500:, -1] += math.pi
        gauge = model.gauge()
        s_rows, ds_rows = gauge.s(us), gauge.ds(us)
        for u, s, ds in zip(us, s_rows, ds_rows):
            s_ref, ds_ref = polar_gauge_log_gradient(model.kinds, u)
            assert s.tobytes() == s_ref.tobytes() and ds.tobytes() == ds_ref.tobytes()

    def test_batched_nu_matches_nu_at(self, vmf, hyp):
        us = hyp.probe_grid(count=5, margin=0.1, seed=2)
        vals = hyp.gauge().nu(us)
        for u, v in zip(us, vals):
            assert v == hyp.gauge().nu_at(u)
        # in a batch a point on the singular set maps to inf instead of raising
        vals = vmf.gauge().nu(np.array([[math.pi, 0.3], [0.5, 1.0]]))
        assert vals[0] == math.inf
        assert vals[1] == pytest.approx(1.0 / (math.sin(0.5) * math.sin(1.0)), rel=1e-14)


class TestAnalyticFrameConsistency:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp", "vmf3", "hyp3"])
    def test_tangent_frames_match_fd_jacobian(self, model_name, request):
        model = request.getfixturevalue(model_name)
        u = model.probe_grid(count=1, margin=0.3, seed=13)[0]
        f = geometry.frame_at(model.curved, u)
        jac = fd_field_derivative(model.curved.embed_theta, u, rel_steps(u, STEP1))
        assert np.abs(f.tangent_theta - jac).max() < 1e-7

    def test_hessians_match_fd(self, hyp):
        u = np.array([0.5, 1.2])
        analytic = geometry.point_geometry(hyp.curved, u).ht
        numeric = geometry.point_geometry(numeric_clone(hyp), u).ht
        assert np.abs(analytic - numeric).max() < 1e-6

    @pytest.mark.parametrize("model_name", ["vmf", "hyp", "vmf3", "hyp3"])
    def test_hessians_match_fd_on_probe_grid(self, model_name, request):
        model = request.getfixturevalue(model_name)
        fam = model.curved
        clone = numeric_clone(model)
        for u in model.probe_grid(count=5, margin=0.3, seed=13):
            analytic = geometry.point_geometry(fam, u)
            numeric = geometry.point_geometry(clone, u)
            for name in ("ht", "he"):
                a, n = getattr(analytic, name), getattr(numeric, name)
                assert np.abs(a - n).max() <= 1e-5 * np.abs(a).max(), name


class TestLinearGaussianFixture:
    def test_mle_closed_form(self, linear):
        rng = np.random.default_rng(3)
        u0 = np.array([0.4, -0.2])
        xs = linear.sample_many(u0, rng, 2000)
        u_hat = linear.mle_many(np.array([2000.0]), xs.sum(axis=0)[None, :])[0][0]
        assert np.abs(u_hat - u0).max() < 0.1
        theta, eta = linear.embed(u0)
        assert np.allclose(theta, eta)

    def test_rank_validation(self):
        with pytest.raises(ParameterError):
            LinearGaussianModel(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
