"""Command line surface: geometry verification, simulation, report.

Exit codes are a stable contract: 0 pass, 1 usage or I/O error,
2 geometry tolerance failure, 3 statistical exclusion failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import conformal, geometry, harness
from .errors import ParameterError, RunawayStopError, SeqGeoError
from .models import M_MAX, MODELS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_EXCLUSION = 3
# most probe points of a geometry report at m <= 3: at m = 3 a report peaks at
# 7.8 to 8.1 kB of traced allocations per point (tracemalloc, at 1,024 and 4,096
# points, both models), since its one bundle holds the (P, m, m, m, m) curvature
# fields and the Ricci derivative over the whole grid, so the cap bounds it near
# 260 MB. Above m = 3 the cap falls as m^-4, keeping P m^4 at its m = 3 value;
# the peak per point and m^4 falls with m (97 B at m = 3, 59 B at m = 12), so no
# accepted m peaks higher (m = 12: 128 points, 160 MB traced, 3.3 s)
GRID_DENSITY_MAX = 2 ** 15


def geometry_report(model_name: str, m: int, r: float, grid_density: int = 12,
                    tol_classify: float = geometry.CLASSIFY_TOLERANCE,
                    tol_flat: float = conformal.FLATNESS_TOLERANCE) -> dict:
    """Classification, curvature constants and conformal-flatness residuals."""
    if grid_density < 2:
        # the dual-quadric fit has n + 1 unknowns and n equations per point
        raise ParameterError("grid density must be at least 2")
    cap = GRID_DENSITY_MAX * 3 ** 4 // max(m, 3) ** 4
    if m <= M_MAX and grid_density > cap:  # a larger m is the model's to reject
        raise ParameterError(f"grid density must be at most {cap} at m = {m}, got {grid_density}")
    for name, tol in (("flatness", tol_flat), ("classification", tol_classify)):
        if not (math.isfinite(tol) and tol > 0):
            raise ParameterError(f"{name} tolerance must be finite and positive, got {tol!r}")
    model = MODELS[model_name](m, r)
    fam = model.curved
    # one bundle over the probe grid, read by every verdict below
    pg = geometry.point_geometry(fam, model.probe_grid(count=grid_density, margin=0.15, seed=11))
    cls = geometry.classify(pg, tolerance=tol_classify)
    flat = conformal.flatness_test(pg, tolerance=tol_flat)
    gauge = model.gauge()
    pde_res = conformal.gauge_pde_residual(pg, gauge, cls.k0 * cls.l0)

    gamma_bar_res = gamma_bar_rel = float("nan")
    h1_bar_res = 0.0
    if fam.codim == 1 and cls.dual_quadric:
        pg6 = geometry.point_geometry(fam, pg.u[:6])
        tensor_axes = (-3, -2, -1)
        # Gamma_bar in the ubar chart is the sum of two terms that cancel on a
        # dual quadric, so the check reads the sum relative to the larger term
        # at the same point
        pulled, inhom = conformal.ubar_chart_connection(pg6, gauge, np.eye(m, m + 1))
        gamma_bar = np.abs(pulled + inhom).max(axis=tensor_axes)
        scale = np.maximum(np.abs(pulled).max(axis=tensor_axes), np.abs(inhom).max(axis=tensor_axes))
        gamma_bar_res = float(gamma_bar.max())
        gamma_bar_rel = float(np.max(gamma_bar / np.where(gamma_bar > 0.0, scale, 1.0)))
        # H_bar(1) = nu (H(1) - g s_kappa) is a difference of two terms of size
        # |nu H(1)|, which grows as r, so the check reads it relative to that
        h1_bar = conformal.conformal_sub_quantities(pg6, gauge)[1]
        h1_bar_res = float(np.max(np.abs(h1_bar).max(axis=tensor_axes)
                                  / (gauge.nu_at(pg6.u) * np.abs(pg6.h1).max(axis=tensor_axes))))

    rr = model.r * model.r_dagger
    expected_lambda = model.curvature_sign / rr
    report = {
        "model": model_name,
        "m": m,
        "r": r,
        "r_dagger": model.r_dagger,
        "classification": {
            "umbilic": cls.umbilic,
            "umbilic_residual": cls.umbilic_residual,
            "es_epsilon": cls.es_epsilon,
            "es_epsilon_residual": cls.es_epsilon_residual,
            "dual_quadric": cls.dual_quadric,
            "k0": cls.k0,
            "l0": cls.l0,
            "dual_quadric_residual": cls.dual_quadric_residual,
            "quadric_identity_residual": cls.quadric_identity_residual,
            "constant_curvature": cls.constant_curvature,
            "constant_curvature_residual": cls.constant_curvature_residual,
        },
        "expected_curvature": expected_lambda,
        "weyl_schouten_residuals": flat.residuals,
        "conformally_flat": flat.flat,
        "weyl_schouten_worst_point": [float(v) for v in flat.worst_point],
        "gauge_pde_residual": pde_res,
        "gamma_bar_ubar_residual": gamma_bar_res,
        "gamma_bar_ubar_scaled_residual": gamma_bar_rel,
        "h1_bar_residual": h1_bar_res,
        "tolerances": {"classification": cls.tolerance, "finite_difference": tol_flat},
    }
    checks = [
        cls.umbilic,
        cls.dual_quadric,
        flat.flat,
        abs(cls.constant_curvature - expected_lambda) <= 1e-6 * abs(expected_lambda),
        pde_res <= 1e-6,
        h1_bar_res <= 1e-6,
        (math.isnan(gamma_bar_rel) or gamma_bar_rel <= 1e-5),
    ]
    report["pass"] = bool(all(checks))
    return report


def _print_geometry_text(rep: dict) -> None:
    cls = rep["classification"]
    flatness = "conformally m(e)-flat" if rep["conformally_flat"] else "NOT conformally flat"
    quadric = "dual quadric" if cls["dual_quadric"] else "not dual quadric"
    print(f"model {rep['model']} m={rep['m']} r={rep['r']} (r_dagger={rep['r_dagger']:.9g})")
    print(f"verdict: {flatness}; {quadric}; lambda = {cls['constant_curvature']:.9g} "
          f"(expected {rep['expected_curvature']:.9g})")
    print(f"  umbilic: {cls['umbilic']} (residual relative to |H(1)|: {cls['umbilic_residual']:.3e})")
    print(f"  ES epsilon: {cls['es_epsilon']:.9g} (residual {cls['es_epsilon_residual']:.3e})")
    print(f"  k0 = {cls['k0']:.9g}, l0 = {cls['l0']:.9g}, "
          f"identity residual {cls['quadric_identity_residual']:.3e}")
    ws = rep["weyl_schouten_residuals"]
    print(f"  Weyl-Schouten residuals: w4 {ws['w4']:.3e}  w3 {ws['w3']:.3e}  w2 {ws['w2']:.3e}")
    print("  Weyl-Schouten worst point: ("
          + ", ".join(f"{v:.9g}" for v in rep["weyl_schouten_worst_point"]) + ")")
    print(f"  gauge equation residual: {rep['gauge_pde_residual']:.3e}")
    print(f"  flattened connection residual: {rep['gamma_bar_ubar_residual']:.3e} "
          f"(relative to its two cancelling terms: {rep['gamma_bar_ubar_scaled_residual']:.3e})")
    print(f"  transformed extrinsic curvature residual (relative to |nu H(1)|): {rep['h1_bar_residual']:.3e}")
    print("GEOMETRY PASS" if rep["pass"] else "GEOMETRY FAIL")


def cmd_geometry(args) -> int:
    try:
        rep = geometry_report(args.model, args.m, args.r, grid_density=args.grid_density,
                              tol_classify=args.tol_classify, tol_flat=args.tol)
    except SeqGeoError as exc:
        print(f"error: {args.model} m={args.m} r={args.r!r}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(rep, default=float, indent=2))
    else:
        _print_geometry_text(rep)
    return EXIT_OK if rep["pass"] else EXIT_TOLERANCE


def cmd_simulate(args) -> int:
    try:
        config = harness.parse_config(args.config)
    except (OSError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        paths = harness.run_experiment(config)
    except RunawayStopError as exc:
        print(f"exclusion failure: {exc}", file=sys.stderr)
        return EXIT_EXCLUSION
    except (OSError, SeqGeoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for p in paths:
        print(p)
    return EXIT_OK


class _Gate:
    def __init__(self, reps: int):
        self.entries = []
        # below two replications per batch the batched SE is itself too
        # noisy to support a three-sigma verdict
        self.se_trustworthy = reps >= 2 * harness.N_BATCHES

    def check(self, name: str, value: float, reference: float, se: float,
              scale: float | None = None):
        """Three-sigma gate; wide or untrustworthy intervals are inconclusive.

        ``scale`` sets the magnitude the interval width is judged against;
        it defaults to the reference itself (off-diagonal components pass
        the matching diagonal scale instead of their near-zero reference).
        """
        scale = abs(reference) if scale is None else abs(scale)
        if not self.se_trustworthy or not math.isfinite(se) or 3.0 * se > max(scale, 1e-12):
            self.entries.append((name, "inconclusive (SE too wide)"))
            return
        ok = abs(value - reference) <= 3.0 * se
        self.entries.append((name, "pass" if ok else f"FAIL |{value:.6g} - {reference:.6g}| > 3*{se:.3g}"))

    def require(self, name: str, ok: bool, detail: str = ""):
        self.entries.append((name, "pass" if ok else f"FAIL {detail}"))

    @property
    def failed(self) -> bool:
        return any(v.startswith("FAIL") for _, v in self.entries)

    @property
    def inconclusive(self) -> bool:
        return any(v.startswith("inconclusive") for _, v in self.entries)


def evaluate_gates(results_dir: str | Path) -> tuple[_Gate, list[str]]:
    config, nonseq, seq = harness.read_results(results_dir)
    out = Path(results_dir)
    u0, reps = config.u0, config.replications
    model = MODELS[config.model](config.m, config.r)
    nu0 = model.gauge().nu_at(u0)
    c = model.stopping_constant()

    gate = _Gate(reps)
    lines = [f"results: {out} ({config.model} m={config.m} r={config.r!r})"]

    for row in sorted(nonseq, key=lambda r: r["cell_N"])[-2:]:
        n = int(row["cell_N"])
        diag_scale = math.sqrt(abs(row["OALB11"] * row["OALB22"]))
        for comp in ("11", "12", "22"):
            gate.check(
                f"nonseq N={n} OCOV{comp} vs OALB{comp}",
                row[f"OCOV{comp}"], row[f"OALB{comp}"], row[f"OCOV{comp}_se"],
                scale=diag_scale if comp == "12" else None,
            )
        for comp in ("11", "22"):
            gate.require(
                f"nonseq N={n} OALB{comp} > OCRB{comp}",
                row[f"OALB{comp}"] > row[f"OCRB{comp}"],
                "no geometric loss",
            )
    for row in sorted(seq, key=lambda r: r["cell_K"])[-2:]:
        diag_scale = math.sqrt(abs(row["CCRB11"] * row["CCRB22"]))
        for comp in ("11", "12", "22"):
            gate.check(
                f"seq K={row['cell_K']:g} CCOV{comp} vs CCRB{comp}",
                row[f"CCOV{comp}"], row[f"CCRB{comp}"], row[f"CCOV{comp}_se"],
                scale=diag_scale if comp == "12" else None,
            )
    for row in sorted(seq, key=lambda r: r["cell_K"]):
        gate.check(
            f"seq K={row['cell_K']:g} MST vs K*nu+c",
            row["MST"], row["cell_K"] * nu0 + c, row["MST_se"],
        )
    top = sorted(seq, key=lambda r: r["cell_K"])[-2:]
    if len(top) == 2:
        if reps < 100:
            # the dispersion of a standard-deviation estimate at this R is
            # wider than the 30% band itself
            gate.entries.append(("seq SDST/sqrt(K) stability", "inconclusive (SE too wide)"))
        else:
            r1 = top[0]["SDST"] / math.sqrt(top[0]["cell_K"])
            r2 = top[1]["SDST"] / math.sqrt(top[1]["cell_K"])
            ratio = r2 / r1 if r1 > 0 else float("inf")
            gate.require(
                "seq SDST/sqrt(K) stability",
                0.7 <= ratio <= 1.3,
                f"ratio {ratio:.3f} outside [0.7, 1.3]",
            )
    for row in nonseq + seq:
        cell = row.get("cell_N", row.get("cell_K"))
        gate.require(
            f"exclusions at cell {cell:g}",
            row["excluded"] <= harness.MAX_EXCLUDED_FRACTION * reps,
            f"{int(row['excluded'])} excluded",
        )
    return gate, lines


def cmd_report(args) -> int:
    try:
        gate, header = evaluate_gates(args.results)
    except (OSError, KeyError) as exc:
        print(f"error reading results: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SeqGeoError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in header:
        print(line)
    for name, verdict in gate.entries:
        print(f"  {name}: {verdict}")
    if gate.failed:
        print("GATES FAIL")
        return EXIT_TOLERANCE
    if gate.inconclusive:
        print("ALL CONCLUSIVE GATES PASS (some inconclusive: SE too wide)")
        return EXIT_OK
    print("ALL GATES PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqgeo")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="verify structural theorems for a model")
    g.add_argument("--model", required=True, choices=list(MODELS))
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--r", type=float, required=True)
    g.add_argument("--grid-density", type=int, default=12)
    g.add_argument("--tol", type=float, default=conformal.FLATNESS_TOLERANCE,
                   help="tolerance of the conformal-flatness residuals: the Weyl-Schouten w4 at m >= 3, "
                        "w3 and w2 at m = 2 (default %(default)g)")
    g.add_argument("--tol-classify", type=float, default=geometry.CLASSIFY_TOLERANCE,
                   help="classification tolerance (default %(default)g)")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_geometry)

    s = sub.add_parser("simulate", help="run the Monte Carlo experiment from a config file")
    s.add_argument("--config", required=True)
    s.set_defaults(func=cmd_simulate)

    r = sub.add_parser("report", help="evaluate statistical gates over a results directory")
    r.add_argument("--results", required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
