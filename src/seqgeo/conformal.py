"""Conformal transformations of statistical manifolds.

Transformed tensors, the Weyl-Schouten tensor set with the flatness
criteria, and the two explicit gauge constructions: the affine gauge of a
full family and the quadric-hypersurface gauge of a curved family.
Defining equations are treated as verification targets with registered
closed-form solutions, never as PDEs to be solved numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import expfam, geometry, tensorops as tops
from .errors import (
    GaugeMismatchError,
    GaugeSingularityError,
    UnsupportedShapeError,
)
from .expfam import ExponentialFamily
from .geometry import CurvedFamily, PointGeometry
from .tensorops import as_coords

# largest accepted max-norm residual of the quadric gauge equation
PDE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Gauge:
    """A positive scalar field with its log-gradient, three closed forms over rows.

    ``nu``, ``s`` and ``ds`` take points ``(..., d)`` and return the gauge
    ``(...)``, its log-gradient ``s_k = d_k log nu`` ``(..., d)`` and the
    derivative ``ds[j, k] = d_j s_k`` ``(..., d, d)``. ``nu`` maps a point on
    the singular set to ``inf``; ``s`` and ``ds`` are read only after
    :meth:`nu_at` has accepted the points.
    """

    nu: Callable[[np.ndarray], np.ndarray]
    s: Callable[[np.ndarray], np.ndarray]
    ds: Callable[[np.ndarray], np.ndarray]

    def nu_at(self, x):
        """The gauge at a point (a scalar) or at rows; raises unless every value is finite and positive."""
        xa = as_coords(x)
        rows = xa.reshape(-1, xa.shape[-1])
        vals = self.nu(rows)
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise GaugeSingularityError(f"gauge is not positive at {rows[i]!r} (value {float(vals[i])!r})")
        return vals.reshape(xa.shape[:-1])[()]


def constant_gauge(value: float) -> Gauge:
    if value <= 0:
        raise GaugeSingularityError("constant gauge must be positive")
    return Gauge(
        nu=lambda xs: np.full(xs.shape[:-1], float(value)),
        s=lambda xs: np.zeros_like(xs),
        ds=lambda xs: np.zeros(xs.shape + xs.shape[-1:]),
    )


def exp_linear_gauge(a) -> Gauge:
    """Gauge ``nu = exp(a . x)``; everywhere positive, constant log-gradient."""
    av = np.asarray(a, dtype=float)
    return Gauge(
        nu=lambda xs: np.exp(xs @ av),
        s=lambda xs: np.broadcast_to(av, xs.shape).copy(),
        ds=lambda xs: np.zeros(xs.shape + av.shape),
    )


# ---------------------------------------------------------------------------
# pointwise transformation formulas


def conformal_connection(
    gamma: np.ndarray,
    g: np.ndarray,
    gauge: Gauge,
    alpha: float,
    at,
) -> np.ndarray:
    """Transformed alpha-connection components (same chart)."""
    x = as_coords(at)
    nu = gauge.nu_at(x)
    s = gauge.s(x)
    gv = np.asarray(g, dtype=float)
    cv = np.asarray(gamma, dtype=float)
    plus = 0.5 * (1.0 - alpha) * (
        np.einsum("ki,j->ijk", gv, s) + np.einsum("kj,i->ijk", gv, s)
    )
    minus = 0.5 * (1.0 + alpha) * np.einsum("ij,k->ijk", gv, s)
    return tops.require_finite(nu * (cv + plus - minus))


def _s_alpha(gv, ginv, gamma_alpha, s, ds, alpha):
    # s^(alpha)_ij, the correction block entering the curvature transform
    pref = 0.5 * (1.0 - alpha)
    if pref == 0.0:
        return np.zeros_like(gv)
    mixed = np.einsum("ijl,lk->ijk", gamma_alpha, ginv)
    nabla = ds - np.einsum("ijk,k->ij", mixed, s)
    s2 = float(s @ ginv @ s)
    return pref * (nabla - pref * np.outer(s, s) + 0.25 * (1.0 + alpha) * s2 * gv)


def conformal_rc_curvature(
    r: np.ndarray,
    g: np.ndarray,
    gamma_alpha: np.ndarray,
    gamma_minus_alpha: np.ndarray,
    gauge: Gauge,
    alpha: float,
    at,
) -> np.ndarray:
    """Transformed alpha-curvature; antisymmetry in the first slots is preserved."""
    x = as_coords(at)
    nu = gauge.nu_at(x)
    s = gauge.s(x)
    ds = gauge.ds(x)
    gv = np.asarray(g, dtype=float)
    rv = np.asarray(r, dtype=float)
    ga = np.asarray(gamma_alpha, dtype=float)
    gm = np.asarray(gamma_minus_alpha, dtype=float)
    ginv = tops.invert_matrix(gv)
    sa = _s_alpha(gv, ginv, ga, s, ds, alpha)
    sma = _s_alpha(gv, ginv, gm, s, ds, -alpha)
    vals = nu * (
        rv
        - np.einsum("il,jk->ijkl", gv, sa)
        + np.einsum("jl,ik->ijkl", gv, sa)
        - np.einsum("jk,il->ijkl", gv, sma)
        + np.einsum("ik,jl->ijkl", gv, sma)
    )
    return tops.require_finite(vals)


# ---------------------------------------------------------------------------
# charts: a chart maps rows ``(P, m)`` to a bundle of ``g``, ``g1``, ``gm1`` and
# ``rm1`` over them; the chart of a curved family is ``geometry.point_geometry(fam, .)``
# itself. The two ``ChartPoint`` builders below are pointwise (map them over rows)


class ChartPoint(NamedTuple):
    """Metric, both unit connections and the (-1)-curvature at one point."""

    g: np.ndarray
    g1: np.ndarray
    gm1: np.ndarray
    rm1: np.ndarray


def expfam_chart_geometry(fam: ExponentialFamily) -> Callable[[np.ndarray], ChartPoint]:
    """Theta chart of a full family (the +1 connection vanishes)."""
    metric, skew = partial(expfam.metric, fam), partial(expfam.skewness, fam)
    return lambda x: ChartPoint(metric(x), np.zeros((fam.n,) * 3), skew(x),
                                expfam.rc_curvature(skew, metric, x))


def conformal_chart_geometry(chart: Callable, gauge: Gauge) -> Callable[[np.ndarray], ChartPoint]:
    """The same chart after a conformal transformation by ``gauge``."""

    def transformed(x):
        p = chart(x)
        return ChartPoint(
            gauge.nu_at(x) * p.g,
            conformal_connection(p.g1, p.g, gauge, 1.0, x),
            conformal_connection(p.gm1, p.g, gauge, -1.0, x),
            conformal_rc_curvature(p.rm1, p.g, p.gm1, p.g1, gauge, -1.0, x),
        )

    return transformed


# ---------------------------------------------------------------------------
# Weyl-Schouten tensors and flatness


@dataclass(frozen=True)
class WeylSchouten:
    """The three (-1)-Weyl-Schouten tensors at a point."""

    w4: np.ndarray  # W^(-1)l_ijk, last slot contravariant
    w3: np.ndarray
    w2: np.ndarray

    def max_residuals(self) -> dict[str, float]:
        return {
            "w4": float(np.abs(self.w4).max()),
            "w3": float(np.abs(self.w3).max()),
            "w2": float(np.abs(self.w2).max()),
        }


def weyl_schouten(chart: Callable, at, step: float | None = None) -> WeylSchouten:
    """Evaluate the Weyl-Schouten set at one point of the chart.

    Reads one bundle over ``1 + 2m`` rows: the point, then the ``+h`` and the
    ``-h`` stencil points of the Ricci derivative, one per axis.
    """
    x = as_coords(at)
    m = x.shape[0]
    if m < 2:
        raise UnsupportedShapeError("Weyl-Schouten tensors need dim >= 2")
    h = tops._steps(x, step, tops.STEP_ORDER1)
    p = chart(np.concatenate([x[None, :], x + np.diag(h), x - np.diag(h)]))
    ginv = tops.invert_matrix(p.g)
    mixed = np.einsum("...ijkr,...rl->...ijkl", p.rm1, ginv)
    ric = np.einsum("...lijl->...ij", mixed)
    eye = np.eye(m)
    w4 = mixed[0] - (
        np.einsum("il,jk->ijkl", eye, ric[0]) - np.einsum("jl,ik->ijkl", eye, ric[0])
    ) / (m - 1.0)

    dric = (ric[1:m + 1] - ric[m + 1:]) / (2.0 * h)[:, None, None]
    gm1_mixed = np.einsum("ijr,rl->ijl", p.gm1[0], ginv[0])
    nabla = (
        dric
        - np.einsum("ijl,lk->ijk", gm1_mixed, ric[0])
        - np.einsum("ikl,jl->ijk", gm1_mixed, ric[0])
    )
    w3 = (nabla - nabla.transpose(1, 0, 2)) / (m - 1.0)
    w2 = ric[0] - ric[0].T
    return WeylSchouten(tops.require_finite(w4), tops.require_finite(w3), tops.require_finite(w2))


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    dim: int
    max_residual: float
    worst_point: np.ndarray
    residuals: dict = field(default_factory=dict)


def flatness_test(chart: Callable, grid: np.ndarray, tolerance: float = 1e-4) -> FlatnessReport:
    """Conformal flatness verdict over a probe grid.

    The verdict uses the order-4 tensor for dim >= 3 and the pair
    (order-3, order-2) for dim 2, reporting the worst residual and where
    it occurred.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    dim = grid.shape[1]
    worst = -1.0
    worst_point = grid[0]
    per = {"w4": 0.0, "w3": 0.0, "w2": 0.0}
    for x in grid:
        ws = weyl_schouten(chart, x)
        res = ws.max_residuals()
        for k in per:
            per[k] = max(per[k], res[k])
        crit = res["w4"] if dim >= 3 else max(res["w3"], res["w2"])
        if crit > worst:
            worst = crit
            worst_point = x
    return FlatnessReport(
        flat=worst <= tolerance,
        dim=dim,
        max_residual=worst,
        worst_point=np.array(worst_point),
        residuals=per,
    )


# ---------------------------------------------------------------------------
# explicit gauges


@dataclass(frozen=True)
class ConformalCoordinates:
    """The flattening map ``x -> nu(x) A(x)`` of an explicit gauge, ``A`` affine in eta.

    ``forward`` maps a point or rows ``(..., old)`` to ``(..., new)``;
    ``derivatives`` returns the map's Jacobian ``(..., new, old)`` and
    Hessian ``(..., new, old, old)`` in closed form.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _apply(dm: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``D`` applied to the last axis of ``x``, its output axis moved to ``axis``.

    The sum over the contracted axis runs in a fixed order, so a row has the
    bits of its own point; a matrix product over rows need not.
    """
    out = dm[:, 0] * x[..., 0, None]
    for i in range(1, dm.shape[1]):
        out = out + dm[:, i] * x[..., i, None]
    return np.moveaxis(out, -1, axis)


def _scaled_map_derivatives(gauge: Gauge, x: np.ndarray, a, da, dda) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian and Hessian of ``nu(x) A(x)`` from ``A`` (..., p), ``dA`` (..., p, a)
    and ``d2A`` (..., p, a, b) at ``x``:

        J = nu (A s_a + dA),
        H = nu [A (ds + s s)_ab + dA_pa s_b + s_a dA_pb + d2A_pab].
    """
    nu = gauge.nu_at(x)[..., None, None]
    s, ds = gauge.s(x), gauge.ds(x)
    a_s = a[..., :, None] * s[..., None, :]
    jac = nu * (a_s + da)
    hess = nu[..., None] * (
        a[..., :, None, None] * (ds + s[..., :, None] * s[..., None, :])[..., None, :, :]
        + da[..., :, :, None] * s[..., None, None, :]
        + s[..., None, :, None] * da[..., :, None, :]
        + dda
    )
    return jac, hess


def expfam_gauge(
    fam: ExponentialFamily,
    c0: float,
    c,
    d,
    dmat,
) -> tuple[Gauge, ConformalCoordinates]:
    """Affine gauge and flattening coordinates of a full family.

    ``nu = 1/|c0 + c.eta|`` with the map ``h = nu (d + D eta)``; ``D``
    must have rank n. The returned gauge lives on the eta chart; use
    :func:`expfam_gauge_on_theta` for the same gauge as a field over theta.
    """
    cv = np.asarray(c, dtype=float)
    dv = np.asarray(d, dtype=float)
    dm = np.atleast_2d(np.asarray(dmat, dtype=float))
    if np.linalg.matrix_rank(dm) < fam.n:
        raise UnsupportedShapeError("coordinate matrix D must have full rank")

    def denom(etas):
        return c0 + _apply(cv[None, :], etas)[..., 0]

    def nu(etas):
        # a row on the singular set c0 + c.eta = 0 maps to inf
        b = np.abs(denom(etas))
        singular = b < 1e-300
        return np.where(singular, np.inf, 1.0 / np.where(singular, 1.0, b))

    def s(etas):
        return -cv / denom(etas)[..., None]

    def ds(etas):
        return cv[:, None] * cv[None, :] / np.float_power(denom(etas), 2)[..., None, None]

    gauge = Gauge(nu=nu, s=s, ds=ds)

    def forward(eta):
        ea = as_coords(eta)
        return gauge.nu_at(ea)[..., None] * (dv + _apply(dm, ea))

    def derivatives(eta):
        ea = as_coords(eta)
        lead = ea.shape[:-1]
        return _scaled_map_derivatives(gauge, ea, dv + _apply(dm, ea), np.broadcast_to(dm, lead + dm.shape),
                                       np.zeros(lead + dm.shape + (fam.n,)))

    return gauge, ConformalCoordinates(forward=forward, derivatives=derivatives)


def expfam_gauge_on_theta(fam: ExponentialFamily, c0: float, c) -> Gauge:
    """The affine gauge pulled back to the theta chart, with analytic log-gradient.

    The pullback goes through ``eta(theta)``, so each field is evaluated one
    point at a time.
    """
    cv = np.asarray(c, dtype=float)

    def denom(theta):
        eta = expfam.eta_of_theta(fam, theta)
        b = c0 + float(cv @ eta)
        if abs(b) < 1e-300:
            raise GaugeSingularityError("affine gauge denominator crosses zero")
        return b

    def s(theta):
        g = expfam.metric(fam, theta)
        return -(g @ cv) / denom(theta)

    def ds(theta):
        b = denom(theta)
        g = expfam.metric(fam, theta)
        t = expfam.skewness(fam, theta)
        a = g @ cv
        return -np.einsum("ijk,i->jk", t, cv) / b + np.outer(a, a) / b**2

    def rowwise(f):
        return lambda thetas: np.apply_along_axis(f, -1, thetas)

    return Gauge(nu=rowwise(lambda theta: 1.0 / abs(denom(theta))), s=rowwise(s), ds=rowwise(ds))


def quadric_gauge(
    fam: CurvedFamily,
    eta0,
    dmat,
    grid: np.ndarray,
    gauge: Gauge,
) -> tuple[Gauge, ConformalCoordinates]:
    """Gauge and flattening coordinates of a dual quadric hypersurface.

    The gauge's defining equation is verified on the probe grid and a
    :class:`GaugeMismatchError` is raised when the residual exceeds
    ``PDE_TOLERANCE``. The coordinates come from :func:`quadric_coordinates`.
    """
    cls = geometry.classify(fam, grid)
    if not cls.dual_quadric:
        raise UnsupportedShapeError(
            f"family is not a dual quadric hypersurface (residual {cls.dual_quadric_residual:.3e})"
        )
    k0l0 = cls.k0 * cls.l0
    res = gauge_pde_residual(fam, gauge, k0l0, grid)
    if res > PDE_TOLERANCE:
        raise GaugeMismatchError(
            f"gauge equation residual {res:.3e} exceeds tolerance {PDE_TOLERANCE:.1e}"
        )
    return gauge, quadric_coordinates(fam, gauge, eta0, dmat)


def quadric_coordinates(
    fam: CurvedFamily,
    gauge: Gauge,
    eta0,
    dmat,
) -> ConformalCoordinates:
    """The flattening coordinates ``nu(u) D (eta(u) - eta0)`` of a dual quadric hypersurface.

    The map reads the mean-parameter embedding from the family's jet, and its
    derivatives read the tangent frame and the Hessian of that embedding from
    the family's bundle at the points. It does not check that ``gauge`` solves
    the quadric gauge equation; :func:`quadric_gauge` does.
    """
    e0 = np.asarray(eta0, dtype=float)
    dm = np.atleast_2d(np.asarray(dmat, dtype=float))
    if np.linalg.matrix_rank(dm) < fam.m:
        raise UnsupportedShapeError("coordinate matrix D must have rank m")

    def forward(u):
        return gauge.nu_at(u)[..., None] * _apply(dm, fam.jet(as_coords(u)).eta - e0)

    def derivatives(u):
        pg = geometry.point_geometry(fam, u)
        return _scaled_map_derivatives(gauge, pg.u, _apply(dm, pg.jet.eta - e0),
                                       _apply(dm, pg.jet.tangent_eta, -2), _apply(dm, pg.he, -3))

    return ConformalCoordinates(forward=forward, derivatives=derivatives)


def gauge_pde_residual(fam: CurvedFamily, gauge: Gauge, k0l0: float, grid: np.ndarray) -> float:
    """Max-norm residual of the quadric gauge equation over a grid, from one bundle."""
    pg = geometry.point_geometry(fam, np.atleast_2d(np.asarray(grid, dtype=float)))
    gauge.nu_at(pg.u)  # raises off the positive set, before s and ds are read
    s, ds = gauge.s(pg.u), gauge.ds(pg.u)
    mixed = np.einsum("...abd,...dc->...abc", pg.gm1, pg.ginv)
    lhs = ds - np.einsum("...abc,...c->...ab", mixed, s) - s[..., :, None] * s[..., None, :]
    return float(np.abs(lhs - k0l0 * pg.g).max(initial=0.0))


def conformal_sub_quantities(pg: PointGeometry, gauge: Gauge) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transformed (-1)-connection, transformed 1-extrinsic curvature, and
    the conformal 1-extrinsic curvature of the submanifold at ``pg.u``, a
    point or rows.

    The transformed extrinsic curvature takes ``s_kappa`` to be the mean
    extrinsic curvature, the choice that kills it on totally umbilic families.
    """
    nu = gauge.nu_at(pg.u)[..., None, None, None]
    s = gauge.s(pg.u)
    g, h1 = pg.g, pg.h1
    hk = np.einsum("...abk,...ab->...k", h1, pg.ginv) / pg.fam.m
    g_hk = np.einsum("...ab,...k->...abk", g, hk)

    gamma_bar = nu * (
        pg.gm1 + np.einsum("...ca,...b->...abc", g, s) + np.einsum("...cb,...a->...abc", g, s)
    )
    h1_bar = nu * (h1 - g_hk)
    k1 = h1 - g_hk
    return tops.require_finite(gamma_bar), tops.require_finite(h1_bar), tops.require_finite(k1)


def ubar_chart_connection(
    pg: PointGeometry,
    gauge: Gauge,
    coords: ConformalCoordinates,
) -> tuple[np.ndarray, np.ndarray]:
    """Transformed (-1)-connection at ``pg.u``, a point or rows, expressed in
    the flattening coordinates.

    Returns the two terms of :func:`expfam.connection_coordinate_change`, the
    pulled-back connection and the inhomogeneous term; their sum is the
    connection. Verifies the flattening claim: the sum should vanish on the
    whole chart for a dual quadric hypersurface with its gauge.
    """
    ua = pg.u
    gamma_bar, _, _ = conformal_sub_quantities(pg, gauge)
    g_bar = gauge.nu_at(ua)[..., None, None] * pg.g

    # C[p, a] = d ubar^p / d u^a, hess[p, a, b] = d_a d_b ubar^p
    cmat, hess = coords.derivatives(ua)
    cinv = np.linalg.inv(cmat)                           # cinv[a, p] = d u^a / d ubar^p
    basis = cinv.swapaxes(-1, -2)                        # basis[p, a] = d u^a / d ubar^p
    # d basis[q, b] / d ubar^p, by differentiating the inverse matrix through u
    dbasis = -np.einsum("...pe,...bm,...mea,...aq->...pqb", basis, cinv, hess, cinv)
    return expfam.connection_coordinate_change(gamma_bar, basis, dbasis, g_bar)
