"""Acceptance suite.

Two blocks: analytic-identity checks of the geometry layer (fast, tight
tolerances) and statistical gates of the Monte Carlo experiment at desk
scale (500 replications, 10-cell grids, frozen seed). Each criterion
prints a single verdict line.
"""

import dataclasses
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from seqgeo import conformal, expfam, geometry, harness, sequential
from seqgeo.conformal import (
    conformal_rc_curvature,
    constant_gauge,
    exp_linear_gauge,
    expfam_chart_geometry,
    expfam_gauge,
    expfam_gauge_on_theta,
    flatness_test,
    gauge_pde_residual,
    quadric_gauge,
    ubar_chart_connection,
    conformal_sub_quantities,
    conformal_chart_geometry,
)
from seqgeo.models import MODELS, HyperboloidModel, VmfModel, gaussian_family, poisson_family
from seqgeo.tensorops import Point

from conftest import U0_HYP, U0_VMF, bundled_config
from oracles import direct_rc_curvature, iv_ratio_series, scalar_affine_potentials


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def models_m2():
    return VmfModel(2, 0.25), HyperboloidModel(2, 0.1)


@pytest.fixture(scope="module")
def experiment_tables(tmp_path_factory):
    """Both default experiments, run once at the frozen seed."""
    out = {}
    for name in ("vmf", "hyperboloid"):
        cfg = bundled_config(name, outdir=str(tmp_path_factory.mktemp(name)))
        out[name] = {
            "config": cfg,
            "model": MODELS[name](cfg.m, cfg.r),
            "nonseq": harness.run_nonsequential(cfg),
            "seq": harness.run_sequential(cfg),
        }
    return out


def ambient_probe_thetas(model, count, seed):
    rng = np.random.default_rng(seed)
    grid = model.probe_grid(count=count, margin=0.3, seed=seed)
    scales = rng.uniform(0.5, 2.0, size=count) / model.r
    return [s * model.embed(u)[0] for s, u in zip(scales, grid)]


class TestGeometrySuite:
    def test_criterion_01_ambient_flatness(self, models_m2):
        vmf, hyp = models_m2
        worst = 0.0
        rng = np.random.default_rng(2)
        cases = [
            (gaussian_family(2), [rng.normal(size=2) for _ in range(20)]),
            (poisson_family(2), [rng.uniform(-1, 1, size=2) for _ in range(20)]),
            (vmf.family, ambient_probe_thetas(vmf, 20, 3)),
            (hyp.family, ambient_probe_thetas(hyp, 20, 4)),
        ]
        for fam, probes in cases:
            for theta in probes:
                for alpha in (1.0, -1.0):
                    r = expfam.ambient_rc_curvature(fam, theta, alpha)
                    worst = max(worst, float(np.abs(r).max()))
        verdict(1, worst <= 1e-5, f"ambient +-1 curvature max residual {worst:.2e} <= 1e-5")

    def test_criterion_02_duality_with_three_gauges(self, models_m2):
        vmf, _ = models_m2
        fam = vmf.family
        geom = expfam_chart_geometry(fam)
        gauges = [
            constant_gauge(2.0),
            exp_linear_gauge(np.array([0.2, -0.1, 0.15])),
            expfam_gauge_on_theta(fam, 1.0, [0.5, -0.2, 0.1]),
        ]
        probes = ambient_probe_thetas(vmf, 4, 5)
        worst_conn, worst_curv = 0.0, 0.0

        def duality_residuals(chart, theta):
            h = 1e-6
            dg = np.empty((3, 3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                dg[i] = (chart(theta + e).g - chart(theta - e).g) / (2 * h)
            p = chart(theta)
            conn = np.abs(dg - (p.g1 + p.gm1.transpose(0, 2, 1))).max()
            return float(conn), p.rm1

        for theta in probes:
            p = geom(theta)
            conn, rm1 = duality_residuals(geom, theta)
            r1 = -rm1.transpose(0, 1, 3, 2)
            worst_conn = max(worst_conn, conn)
            worst_curv = max(worst_curv, float(np.abs(r1 + rm1.transpose(0, 1, 3, 2)).max()))
            for gauge in gauges:
                geom_bar = conformal_chart_geometry(geom, gauge)
                conn_b, rm1_bar = duality_residuals(geom_bar, theta)
                worst_conn = max(worst_conn, conn_b)
                r1_bar = conformal_rc_curvature(
                    r1, p.g, p.g1, p.gm1, gauge, 1.0, theta,
                )
                worst_curv = max(
                    worst_curv, float(np.abs(r1_bar + rm1_bar.transpose(0, 1, 3, 2)).max())
                )
        ok = worst_conn <= 1e-6 and worst_curv <= 1e-4
        verdict(2, ok, f"duality residuals {worst_conn:.2e} <= 1e-6, {worst_curv:.2e} <= 1e-4 "
                       "(plain and under three gauges)")

    def test_criterion_03_closed_forms(self, models_m2):
        worst_rel = 0.0
        for model in models_m2:
            sign = 1.0 if isinstance(model, VmfModel) else -1.0
            rr = model.r * model.r_dagger
            for u in model.probe_grid(count=20, margin=0.05, seed=7):
                pg = geometry.point_geometry(model.curved, u)
                g = pg.g
                first = math.sinh(u[0]) if sign < 0 else math.sin(u[0])
                g_expect = np.diag([rr, rr * first ** 2])
                checks = [
                    (g, g_expect),
                    (pg.h1[:, :, 0], -g / model.r_dagger),
                    (pg.hm1[:, :, 0], -sign * g / model.r),
                    (
                        np.array([pg.r1[0, 1, 1, 0]]),
                        np.array([sign * g[0, 0] * g[1, 1] / rr]),
                    ),
                ]
                for got, expect in checks:
                    scale = max(np.abs(expect).max(), 1e-12)
                    worst_rel = max(worst_rel, float(np.abs(got - expect).max() / scale))
        hyp_exact = abs(HyperboloidModel(2, 0.1).r_dagger - 11.0)
        vmf_series = abs(VmfModel(2, 0.25).r_dagger - iv_ratio_series(0.25, 0.5))
        ok = worst_rel <= 1e-8 and hyp_exact == 0.0 and vmf_series <= 1e-10
        verdict(3, ok, f"closed forms rel residual {worst_rel:.2e} <= 1e-8, "
                       f"hyperboloid ratio exact ({hyp_exact:.1e}), "
                       f"sphere ratio vs series {vmf_series:.2e} <= 1e-10")

    def test_criterion_04_gauss_equation_cross_check(self, models_m2):
        worst = 0.0
        for model in models_m2:
            for u in model.probe_grid(count=6, margin=0.25, seed=9):
                pg = geometry.point_geometry(model.curved, u)
                for alpha, ref in ((1, pg.r1), (-1, pg.rm1)):
                    direct = direct_rc_curvature(model.curved, u, alpha)
                    worst = max(worst, float(np.abs(direct - ref).max()))
        verdict(4, worst <= 1e-4, f"Gauss-equation vs intrinsic curvature {worst:.2e} <= 1e-4")

    def test_criterion_05_dual_quadric_identity(self, models_m2):
        worst = 0.0
        flags = True
        for model in models_m2:
            grid = model.probe_grid(count=12, margin=0.2, seed=11)
            cls = geometry.classify(model.curved, grid)
            flags = flags and cls.umbilic and cls.dual_quadric and cls.es_epsilon_residual <= cls.tolerance
            target = 1.0 / (cls.k0 * cls.l0)
            for u in grid:
                theta = model.curved.theta(u)
                eta = model.curved.eta(u)
                worst = max(
                    worst,
                    abs(float((theta - cls.theta0) @ (eta - cls.eta0)) - target),
                )
        verdict(5, worst <= 1e-8 and flags,
                f"dual-quadric identity residual {worst:.2e} <= 1e-8, all flags true")

    def test_criterion_06_conformal_flatness(self, models_m2):
        vmf, hyp = models_m2
        vmf3 = VmfModel(3, 1.0)
        worst_ws = 0.0
        for model in (vmf, hyp, vmf3):
            grid = model.probe_grid(count=6, margin=0.3, seed=13)
            rep = flatness_test(partial(geometry.point_geometry, model.curved), grid, tolerance=1e-4)
            crit = rep.residuals["w4"] if model.m >= 3 else max(
                rep.residuals["w3"], rep.residuals["w2"]
            )
            worst_ws = max(worst_ws, crit)

        worst_pde, worst_conn, worst_h1 = 0.0, 0.0, 0.0
        for model, dmat in ((vmf, np.eye(2, 3)), (hyp, np.eye(2, 3) / 100.0)):
            grid = model.probe_grid(count=10, margin=0.2, seed=15)
            sign = 1.0 if isinstance(model, VmfModel) else -1.0
            k0l0 = sign / (model.r * model.r_dagger)
            gauge = model.gauge()
            worst_pde = max(worst_pde, gauge_pde_residual(model.curved, gauge, k0l0, grid))
            _, coords = quadric_gauge(model.curved, np.zeros(3), dmat, grid, gauge=gauge)
            for u in grid[:5]:
                pg = geometry.point_geometry(model.curved, u)
                gam = ubar_chart_connection(pg, gauge, coords)
                worst_conn = max(worst_conn, float(np.abs(gam).max()))
                _, h1_bar, _ = conformal_sub_quantities(pg, gauge)
                worst_h1 = max(worst_h1, float(np.abs(h1_bar).max()))
        grid3 = vmf3.probe_grid(count=6, margin=0.3, seed=17)
        worst_pde = max(
            worst_pde,
            gauge_pde_residual(vmf3.curved, vmf3.gauge(), 1.0 / (vmf3.r * vmf3.r_dagger), grid3),
        )
        ok = worst_ws <= 1e-4 and worst_pde <= 1e-6 and worst_conn <= 1e-5 and worst_h1 <= 1e-6
        verdict(6, ok, f"Weyl-Schouten {worst_ws:.2e} <= 1e-4, gauge equation {worst_pde:.2e} <= 1e-6, "
                       f"flattened connection {worst_conn:.2e} <= 1e-5, "
                       f"transformed extrinsic curvature {worst_h1:.2e} <= 1e-6")

    def test_criterion_07_full_family_gauge(self):
        fam = gaussian_family(1)
        gauge, coords = expfam_gauge(fam, 1.0, [1.0], [0.2], [[1.5]])
        phi_bar, psi_bar, grad = scalar_affine_potentials(1.0, 1.0, 0.2, 1.5)
        worst_leg = 0.0
        for eta_val in (-0.4, 0.0, 0.5, 1.2):
            eta = np.array([eta_val])
            h = coords.forward(eta)
            xi = grad(h)
            psi_val, _ = psi_bar(xi, h)
            worst_leg = max(worst_leg, abs(psi_val + phi_bar(h) - float(xi @ h)))
        gauge_theta = expfam_gauge_on_theta(fam, 1.0, [1.0])
        geom = expfam_chart_geometry(fam)
        worst_r = 0.0
        for theta_val in (-0.4, 0.3, 1.0):
            theta = np.array([theta_val])
            p = geom(theta)
            for alpha in (1.0, -1.0):
                out = conformal_rc_curvature(
                    np.zeros((1, 1, 1, 1)), p.g, p.gm1, p.g1, gauge_theta, alpha, theta,
                )
                worst_r = max(worst_r, float(np.abs(out).max()))
        ok = worst_leg <= 1e-8 and worst_r <= 1e-5
        verdict(7, ok, f"scalar-family gauge: Legendre residual {worst_leg:.2e} <= 1e-8, "
                       f"transformed curvature {worst_r:.2e} <= 1e-5")


class TestSimulationSuite:
    def test_criterion_08_sampler_moments(self, models_m2):
        ok = True
        detail = []
        for model, u0 in zip(models_m2, (U0_VMF, U0_HYP)):
            rng = np.random.default_rng(808)
            xs = model.sample_many(u0, rng, 100_000)
            mean = xs.mean(axis=0)
            expected = model.r_dagger * model.direction(u0)
            se = xs.std(axis=0, ddof=1) / math.sqrt(xs.shape[0])
            z = np.abs(mean - expected) / se
            ok = ok and bool(np.all(z <= 3.0))
            detail.append(f"{type(model).__name__} max|z|={z.max():.2f}")
        verdict(8, ok, "sampler mean within 3 SE of the mean parameter: " + ", ".join(detail))

    def test_criterion_09_sequential_attainment(self, experiment_tables):
        ok = True
        detail = []
        for name, data in experiment_tables.items():
            rows = sorted(data["seq"].rows, key=lambda r: r.cell)[-2:]
            for row in rows:
                z = np.abs(row.stats["CCOV"] - row.stats["CCRB"]) / row.stats["CCOV_se"]
                zmax = max(z[0, 0], z[0, 1], z[1, 1])
                ok = ok and zmax <= 3.0
                detail.append(f"{name} K={row.cell:g} max|z|={zmax:.2f}")
        verdict(9, ok, "CCOV within 3 SE of CCRB at the two largest cells: " + "; ".join(detail))

    def test_criterion_10_nonsequential_second_order(self, experiment_tables):
        ok = True
        detail = []
        for name, data in experiment_tables.items():
            rows = sorted(data["nonseq"].rows, key=lambda r: r.cell)[-2:]
            for row in rows:
                z = np.abs(row.stats["OCOV"] - row.stats["OALB"]) / row.stats["OCOV_se"]
                zmax = max(z[0, 0], z[0, 1], z[1, 1])
                gap = np.diag(row.stats["OALB"]) - np.diag(row.stats["OCRB"])
                ok = ok and zmax <= 3.0 and bool(np.all(gap > 0))
                detail.append(f"{name} N={int(row.cell)} max|z|={zmax:.2f}")
        verdict(10, ok, "OCOV within 3 SE of OALB with positive geometric loss: " + "; ".join(detail))

    def test_criterion_11_stopping_time_scaling(self, experiment_tables):
        ok = True
        detail = []
        for name, data in experiment_tables.items():
            model = data["model"]
            cfg = data["config"]
            nu0 = model.gauge().nu_at(cfg.u0)
            c = model.stopping_constant()
            worst_z = 0.0
            for row in data["seq"].rows:
                target = row.cell * nu0 + c
                z = abs(row.stats["MST"] - target) / row.stats["MST_se"]
                worst_z = max(worst_z, z)
                ok = ok and z <= 3.0
            rows = sorted(data["seq"].rows, key=lambda r: r.cell)[-2:]
            r1 = rows[0].stats["SDST"] / math.sqrt(rows[0].cell)
            r2 = rows[1].stats["SDST"] / math.sqrt(rows[1].cell)
            ratio = r2 / r1
            ok = ok and 0.7 <= ratio <= 1.3
            detail.append(f"{name} worst MST z={worst_z:.2f}, SDST ratio {ratio:.3f}")
        verdict(11, ok, "MST within 3 SE of K*nu+c at every cell, spread scaling stable: "
                        + "; ".join(detail))

    def test_criterion_12_determinism(self, experiment_tables, tmp_path):
        # one fresh run against the fixture's run of the same config and seed
        data = experiment_tables["vmf"]
        cfg = dataclasses.replace(data["config"], outdir=str(tmp_path))
        harness.run_experiment(cfg)
        fresh = tuple(Path(cfg.outdir, f"{kind}.csv").read_bytes() for kind in ("nonsequential", "sequential"))
        earlier = tuple(("\n".join(rows(data[key])) + "\n").encode()
                        for rows, key in ((harness.nonsequential_csv_rows, "nonseq"),
                                          (harness.sequential_csv_rows, "seq")))
        ok = fresh == earlier
        verdict(12, ok, "identical config and seed reproduce byte-identical CSV files")

    def test_criterion_13_exclusions(self, experiment_tables):
        ok = True
        worst = 0
        for data in experiment_tables.values():
            for table in (data["nonseq"], data["seq"]):
                for row in table.rows:
                    worst = max(worst, row.excluded)
                    ok = ok and row.excluded <= 0.01 * table.replications
        verdict(13, ok, f"excluded replications per cell at most {worst} (cap 1% of 500)")
