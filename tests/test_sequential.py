import dataclasses
import math

import numpy as np
import pytest

from seqgeo import conformal, geometry, sequential
from seqgeo.conformal import quadric_gauge
from seqgeo.errors import EvaluationDomainError
from seqgeo.sequential import (
    asymptotic_covariance,
    bias_correct,
    crb,
    second_order_terms,
    stop_cell,
)

from conftest import U0_HYP, U0_VMF
from oracles import (
    STEP1,
    VMF_G11,
    VMF_G22,
    fd_field_derivative,
    numeric_clone,
    observed_information,
    reference_bias_correct,
    reference_stopping,
    rel_steps,
)


@pytest.fixture(scope="module")
def vmf_coords(vmf, vmf_grid):
    return quadric_gauge(vmf.curved, np.zeros(3), np.eye(2, 3), vmf_grid, vmf.gauge())


class TestObservedInformation:
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_population_data_equals_time(self, model_name, request):
        model = request.getfixturevalue(model_name)
        u0 = U0_VMF if model_name == "vmf" else U0_HYP
        assert observed_information(model, 37, 37 * model.embed(u0)[1], u0) == pytest.approx(37.0, abs=1e-9)

    def test_linear_in_time_and_statistic(self, vmf):
        rng = np.random.default_rng(5)
        xs = vmf.sample_many(U0_VMF, rng, 20)
        s = xs.sum(axis=0)
        u_hat = vmf.mle_many(np.array([20.0]), s[None, :])[0][0]
        one = observed_information(vmf, 20, s, u_hat)
        two = observed_information(vmf, 40, 2 * s, u_hat)
        assert two == pytest.approx(2 * one, rel=1e-12)

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_closed_form_criterion_matches(self, model_name, request):
        model = request.getfixturevalue(model_name)
        u0 = U0_VMF if model_name == "vmf" else U0_HYP
        rng = np.random.default_rng(11)
        xs = model.sample_many(u0, rng, 30)
        sums = np.cumsum(xs, axis=0)
        ts = np.arange(1, 31, dtype=float)
        crit = model.criterion_many(ts, sums)
        us, _ = model.mle_many(ts, sums)
        for i in (4, 17, 29):
            generic = observed_information(model, int(ts[i]), sums[i], us[i])
            assert crit[i] == pytest.approx(generic, rel=1e-10)


def _criterion_and_threshold(model, k, t, sum_x):
    """The stopping criterion and the boundary ``K nu(u_hat) + c`` after ``t`` draws."""
    ts = np.array([float(t)])
    u_hat, defined = model.mle_many(ts, sum_x[None, :])
    thresh = k * model.gauge().nu(u_hat)[0] + model.stopping_constant()
    return model.criterion_many(ts, sum_x[None, :])[0], thresh, bool(defined[0])


class TestRunStopping:
    def test_degenerate_reduction_to_fixed_sample(self, linear):
        rng = np.random.default_rng(42)
        u0 = np.array([0.4, -0.2])
        tau, sum_x, runaway = stop_cell(linear, linear.gauge(), 17.3, u0, [rng], c=0.0)
        assert tau[0] == 18 and sum_x.shape == (1, linear.n) and not runaway[0]
        tau, _, _ = stop_cell(linear, linear.gauge(), 6.0, u0, [rng], c=0.0)
        assert tau[0] == 6
        tau, _, _ = stop_cell(linear, linear.gauge(), 1.5, u0, [rng], c=0.0)
        assert tau[0] == 3  # warm-up floor

    def test_decision_invariants(self, vmf):
        k = 120.0
        (tau,), (sum_x,), (runaway,) = stop_cell(vmf, vmf.gauge(), k, U0_VMF, [np.random.default_rng(3)])
        assert not runaway
        crit, thresh, _ = _criterion_and_threshold(vmf, k, tau, sum_x)
        assert crit >= thresh
        # replay the stream: one draw earlier the boundary was not yet crossed
        burst = max(8, int(0.25 * k * vmf.gauge().nu_at(U0_VMF)))
        rng = np.random.default_rng(3)
        xs = np.concatenate([vmf.sample_many(U0_VMF, rng, burst) for _ in range(-(-tau // burst))])
        cums = np.cumsum(xs, axis=0)
        assert np.abs(cums[tau - 1] - sum_x).max() < 1e-9
        crit, thresh, defined = _criterion_and_threshold(vmf, k, tau - 1, cums[tau - 2])
        if defined and tau - 1 >= sequential.T_MIN:
            assert crit < thresh

    def test_determinism(self, vmf):
        a = stop_cell(vmf, vmf.gauge(), 150.0, U0_VMF, [np.random.default_rng(7)])
        b = stop_cell(vmf, vmf.gauge(), 150.0, U0_VMF, [np.random.default_rng(7)])
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_mean_stopping_time_scales_with_gauge(self, vmf):
        k = 433.0
        rngs = [np.random.default_rng(900_000 + rep) for rep in range(400)]
        taus, _, runaway = stop_cell(vmf, vmf.gauge(), k, U0_VMF, rngs)
        assert not runaway.any()
        taus = taus.astype(float)
        target = k * vmf.gauge().nu_at(U0_VMF)
        se = taus.std(ddof=1) / math.sqrt(taus.shape[0])
        assert abs(taus.mean() - target) <= 3.0 * se

    def test_variance_order_k(self, hyp):
        ratios = []
        for k in (40.0, 80.0):
            rngs = [np.random.default_rng(800_000 + rep) for rep in range(300)]
            taus, _, runaway = stop_cell(hyp, hyp.gauge(), k, U0_HYP, rngs)
            assert not runaway.any()
            ratios.append(taus.astype(float).var(ddof=1) / k)
        assert 0.5 < ratios[1] / ratios[0] < 2.0

    def test_runaway_cap(self, vmf):
        tau, _, runaway = stop_cell(vmf, vmf.gauge(), 200.0, U0_VMF, [np.random.default_rng(1)], t_max=5)
        assert runaway[0] and tau[0] == 5

    def test_rejects_bad_k(self, vmf):
        with pytest.raises(ValueError):
            stop_cell(vmf, vmf.gauge(), -1.0, U0_VMF, [np.random.default_rng(1)])

    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_criterion_monotone_on_population_path(self, model_name, request):
        # along the noise-free trajectory the criterion equals t exactly, so
        # the first crossing is trivially well defined
        model = request.getfixturevalue(model_name)
        u0 = U0_VMF if model_name == "vmf" else U0_HYP
        eta = model.embed(u0)[1]
        ts = np.arange(1, 40, dtype=float)
        sums = ts[:, None] * eta[None, :]
        crit = model.criterion_many(ts, sums)
        assert np.abs(crit - ts).max() < 1e-9
        assert np.all(np.diff(crit) > 0)


class TestStopCell:
    # (replications, burst, t_max, blocks): the block holds ROWS // burst
    # replications, so these make one partial block, several blocks with a
    # partial last one, a cell where every replication runs away, and a
    # batch of one
    CASES = {
        "partial-block": (37, 60, None, 1),
        "several-blocks": (37, 400, None, 4),
        "all-runaway": (37, 400, 5, 4),
        "batch-of-one": (1, 60, None, 1),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("model_name", ["vmf", "hyp"])
    def test_matches_reference_loop(self, model_name, case, request):
        model = request.getfixturevalue(model_name)
        u0 = U0_VMF if model_name == "vmf" else U0_HYP
        reps, burst, t_max, blocks = self.CASES[case]
        gauge = model.gauge()
        k = (burst + 0.5) / (0.25 * gauge.nu_at(u0))
        assert max(8, int(0.25 * k * gauge.nu_at(u0))) == burst
        assert -(-reps // max(1, sequential.ROWS // burst)) == blocks

        seeds = [300 + rep for rep in range(reps)]
        rngs = [np.random.default_rng(s) for s in seeds]
        tau, sum_x, runaway = stop_cell(model, gauge, k, u0, rngs, t_max=t_max)
        assert tau.shape == runaway.shape == (reps,)
        assert sum_x.shape == (reps, model.curved.ambient.n)
        for i, s in enumerate(seeds):
            want = reference_stopping(model, gauge, k, u0, np.random.default_rng(s), t_max=t_max)
            assert tau[i] == want[0]
            assert sum_x[i].tobytes() == want[1].tobytes()
            assert runaway[i] == want[2]
        assert runaway.all() == (case == "all-runaway")

class TestBiasCorrect:
    def test_flat_model_no_correction(self, linear):
        u = np.array([0.4, -0.2])
        assert np.allclose(bias_correct(linear, u, 100.0), u)

    def test_vmf_two_code_paths_agree(self, vmf):
        clone = numeric_clone(vmf)

        class Wrapper:
            curved = clone

        for n in (50.0, 500.0):
            analytic = bias_correct(vmf, U0_VMF, n)
            numeric = bias_correct(Wrapper(), U0_VMF, n)
            assert np.abs(analytic - numeric).max() < 1e-4 / n * 50.0

    def test_correction_formula(self, vmf):
        # (1/2N) Gamma^(-1)a_bc g^bc against an explicit contraction
        n = 200.0
        pg = geometry.point_geometry(vmf.curved, U0_VMF)
        ginv = np.linalg.inv(pg.g)
        expected = U0_VMF + np.einsum("bcd,da,bc->a", pg.gm1, ginv, ginv) / (2 * n)
        assert np.abs(bias_correct(vmf, U0_VMF, n) - expected).max() < 1e-14

    def test_nan_eta_hessian_raises(self, vmf):
        def jet(us):
            j = vmf.curved.jet(us)
            return j._replace(hess_eta=np.full_like(j.hess_eta, np.nan))

        class Wrapper:
            curved = dataclasses.replace(vmf.curved, jet=jet)

        with pytest.raises(EvaluationDomainError):
            bias_correct(Wrapper(), U0_VMF, 100.0)
        with pytest.raises(EvaluationDomainError):
            bias_correct(Wrapper(), np.stack([U0_VMF, U0_VMF]), 100.0)

    @pytest.mark.parametrize("model_name, u0", [("vmf", U0_VMF), ("hyp", U0_HYP)])
    @pytest.mark.parametrize("rows", [37, 1, 0])
    def test_cell_matches_reference_rows(self, model_name, u0, rows, request):
        # a fixed-N cell's estimates, corrected at once, against one bundle each
        model = request.getfixturevalue(model_name)
        n = 150
        sums = np.array([model.sample_many(u0, np.random.default_rng(i), n).sum(axis=0)
                         for i in range(rows)]).reshape(rows, 3)
        u_hats, ok = model.mle_many(np.full(rows, float(n)), sums)
        assert ok.all()
        cell = bias_correct(model, u_hats, float(n))
        assert cell.shape == (rows, 2)
        for u, got in zip(u_hats, cell):
            assert got.tobytes() == reference_bias_correct(model, u, float(n)).tobytes()

    def test_conformal_correction_vanishes(self, vmf, vmf_coords):
        gauge, coords = vmf_coords
        corrected = reference_bias_correct(vmf, U0_VMF, 231.0, gauge=gauge, coords=coords)
        ubar = np.asarray(coords.forward(U0_VMF))
        assert np.abs(corrected - ubar).max() < 1e-6


class TestAsymptoticCovariance:
    def test_vmf_oalb_formula(self, vmf):
        n = 100.0
        pg = geometry.point_geometry(vmf.curved, U0_VMF)
        ginv = np.linalg.inv(pg.g)
        gamma_sq = np.einsum("cda,efb,ce,df->ab", pg.gm1, pg.gm1, ginv, ginv)
        h_sq = np.einsum("ack,bdl,cd->ab", pg.h1, pg.h1, ginv)
        expected = ginv + (ginv @ (0.5 * gamma_sq + h_sq) @ ginv) / n
        got = asymptotic_covariance(vmf, U0_VMF, n)
        assert np.abs(got - expected).max() < 1e-12
        # the extrinsic part alone is g^{ab}/r_dagger^2
        h_term = ginv @ h_sq @ ginv
        assert np.abs(h_term - ginv / vmf.r_dagger ** 2).max() < 1e-10

    def test_flat_model_is_exact_bound(self, linear):
        u = np.array([0.1, 0.9])
        got = asymptotic_covariance(linear, u, 10.0)
        assert np.abs(got - crb(linear, u)).max() < 1e-12

    def test_conformal_second_order_cancels(self, vmf, vmf_coords):
        gauge, coords = vmf_coords
        term = second_order_terms(vmf, U0_VMF, gauge=gauge, coords=coords)
        assert np.abs(term).max() < 1e-8
        got = asymptotic_covariance(vmf, U0_VMF, 500.0, gauge=gauge, coords=coords)
        assert np.abs(got - crb(vmf, U0_VMF, coords=coords)).max() < 1e-8

    def test_terms_agree_between_code_paths(self, vmf, hyp):
        for model, u0 in ((vmf, U0_VMF), (hyp, U0_HYP)):
            clone = numeric_clone(model)

            class Wrapper:
                curved = clone
                m = 2

            analytic = second_order_terms(model, u0)
            numeric = second_order_terms(Wrapper(), u0)
            scale = max(1.0, np.abs(analytic).max())
            assert np.abs(analytic - numeric).max() < 1e-4 * scale


class TestCrb:
    def test_vmf_closed_form(self, vmf):
        out = crb(vmf, U0_VMF)
        assert out[0, 0] == pytest.approx(1.0 / VMF_G11, rel=1e-12)
        assert out[1, 1] == pytest.approx(1.0 / VMF_G22, rel=1e-12)
        assert abs(out[0, 1]) < 1e-12

    def test_ubar_chart_jacobian_oracle(self, vmf, vmf_coords):
        # push the inverse metric through a finite-difference map Jacobian
        gauge, coords = vmf_coords
        out = crb(vmf, U0_VMF, coords=coords)
        j = fd_field_derivative(coords.forward, U0_VMF, rel_steps(U0_VMF, STEP1)).T
        g = geometry.point_geometry(vmf.curved, U0_VMF).g
        expected = j @ np.linalg.inv(g) @ j.T
        assert np.abs(out - expected).max() < 1e-6

    def test_determinant_transformation(self, vmf, vmf_coords):
        gauge, coords = vmf_coords
        j = coords.derivatives(U0_VMF)[0]
        det_u = np.linalg.det(crb(vmf, U0_VMF))
        det_ubar = np.linalg.det(crb(vmf, U0_VMF, coords=coords))
        assert det_ubar == pytest.approx(np.linalg.det(j) ** 2 * det_u, rel=1e-10)

    def test_invariance_under_rescaled_map(self, vmf, vmf_grid):
        _, coords_a = quadric_gauge(vmf.curved, np.zeros(3), np.eye(2, 3), vmf_grid, vmf.gauge())
        lmat = np.array([[2.0, 0.5], [0.0, 1.5]])
        _, coords_b = quadric_gauge(vmf.curved, np.zeros(3), lmat @ np.eye(2, 3), vmf_grid, vmf.gauge())
        a = crb(vmf, U0_VMF, coords=coords_a)
        b = crb(vmf, U0_VMF, coords=coords_b)
        assert np.abs(b - lmat @ a @ lmat.T).max() < 1e-10

