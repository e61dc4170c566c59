"""Conformal transformations of curved exponential families.

The Weyl-Schouten tensor set with the flatness criteria, read from a
bundle over rows ``(P, m)``: its points ``u`` and the fields ``ginv``, ``gm1``,
``rm1`` and ``dric`` over them, for a curved family the
:class:`geometry.PointGeometry` its caller built. Then the flattening
coordinates of a dual quadric hypersurface under its explicit gauge, the
residual of the quadric gauge equation, and the transformed connection read
in those coordinates. Defining equations are treated as verification
targets with registered closed-form solutions, never as PDEs to be solved
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensorops as tops
from .errors import ChartError, GaugeSingularityError, UnsupportedShapeError
from .geometry import PointGeometry
from .tensorops import as_coords

# default max-norm residual within which flatness_test accepts a Weyl-Schouten field
FLATNESS_TOLERANCE = 1e-4


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


# ---------------------------------------------------------------------------
# Weyl-Schouten tensors and flatness


@dataclass(frozen=True)
class WeylSchouten:
    """The three (-1)-Weyl-Schouten tensors at each of ``P`` points, leading axis ``P``."""

    w4: np.ndarray  # (P, m, m, m, m)  W^(-1)l_ijk, last slot contravariant
    w3: np.ndarray  # (P, m, m, m)
    w2: np.ndarray  # (P, m, m)


def weyl_schouten(p) -> WeylSchouten:
    """Evaluate the Weyl-Schouten set from a bundle ``p`` over rows ``(P, m)``.

    The inverse metric is the bundle's ``ginv`` and the Ricci derivative its
    ``dric``. Row ``i`` of each field has the bits of a bundle of point ``i``
    alone.
    """
    if p.u.ndim != 2 or p.u.shape[1] < 2:
        raise UnsupportedShapeError(f"Weyl-Schouten tensors need rows (P, m) with m >= 2, got {p.u.shape}")
    m = p.u.shape[1]
    mixed = np.einsum("...ijkr,...rl->...ijkl", p.rm1, p.ginv)
    ric = np.einsum("...lijl->...ij", mixed)
    eye = np.eye(m)
    w4 = mixed - (
        np.einsum("il,...jk->...ijkl", eye, ric) - np.einsum("jl,...ik->...ijkl", eye, ric)
    ) / (m - 1.0)

    gm1_mixed = np.einsum("...ijr,...rl->...ijl", p.gm1, p.ginv)
    nabla = (
        p.dric
        - np.einsum("...ijl,...lk->...ijk", gm1_mixed, ric)
        - np.einsum("...ikl,...jl->...ijk", gm1_mixed, ric)
    )
    w3 = (nabla - nabla.swapaxes(-3, -2)) / (m - 1.0)
    w2 = ric - ric.swapaxes(-1, -2)
    return WeylSchouten(tops.require_finite(w4), tops.require_finite(w3), tops.require_finite(w2))


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    worst_point: np.ndarray
    residuals: dict = field(default_factory=dict)


def flatness_test(p, tolerance: float = FLATNESS_TOLERANCE) -> FlatnessReport:
    """Conformal flatness verdict over a probe grid, from its bundle ``p`` over rows ``(P, m)``.

    The verdict uses the order-4 tensor for dim >= 3 and the pair
    (order-3, order-2) for dim 2, reporting each field's largest residual
    over the grid and the first probe point where the verdict's residual
    is largest.
    """
    ws = weyl_schouten(p)
    grid = p.u
    dim = grid.shape[1]
    # per field, the max-norm residual at each probe point
    per = {k: np.abs(getattr(ws, k)).reshape(len(grid), -1).max(axis=1) for k in ("w4", "w3", "w2")}
    crit = per["w4"] if dim >= 3 else np.maximum(per["w3"], per["w2"])
    worst = int(np.argmax(crit))  # the first maximal point
    return FlatnessReport(flat=bool(crit[worst] <= tolerance), worst_point=grid[worst].copy(),
                          residuals={k: float(v.max()) for k, v in per.items()})


# ---------------------------------------------------------------------------
# the quadric gauge and its flattening coordinates


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


def quadric_map(pg: PointGeometry, gauge: Gauge, dmat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flattening coordinates ``nu(u) D eta(u)`` of a dual quadric hypersurface at ``pg.u``, a point
    or rows, with their Jacobian ``(..., m, m)`` and Hessian ``(..., m, m, m)``, read from the bundle ``pg``.

    It does not check that the family is a dual quadric or that ``gauge`` solves the quadric
    gauge equation; ``geometry.classify`` and :func:`gauge_pde_residual` do.
    """
    dm = np.atleast_2d(np.asarray(dmat, dtype=float))
    if np.linalg.matrix_rank(dm) < pg.fam.m:
        raise UnsupportedShapeError("coordinate matrix D must have rank m")
    a = _apply(dm, pg.jet.eta)
    jac, hess = _scaled_map_derivatives(gauge, pg.u, a, _apply(dm, pg.jet.tangent_eta, -2), _apply(dm, pg.he, -3))
    return gauge.nu_at(pg.u)[..., None] * a, jac, hess


def flat_coordinates(model, dmat: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The flattening coordinates ``nu D eta`` of the MLE of each stopped sum ``(R, 3)``."""
    # at the MLE eta = r_dagger S/|S|, nu D eta = (nu/crit) D S; a stop needs stop_terms'
    # defined and a finite nu = |S|/|S_m|, so each stopped sum has an estimate and S_m != 0
    crit, nu, _ = model.stop_terms(sums)
    return (nu / crit)[:, None] * _apply(dmat, sums)


def gauge_pde_residual(pg: PointGeometry, gauge: Gauge, k0l0: float) -> float:
    """Max-norm residual of the quadric gauge equation over a grid, from its bundle ``pg``."""
    gauge.nu_at(pg.u)  # raises off the positive set, before s and ds are read
    s, ds = gauge.s(pg.u), gauge.ds(pg.u)
    mixed = np.einsum("...abd,...dc->...abc", pg.gm1, pg.ginv)
    lhs = ds - np.einsum("...abc,...c->...ab", mixed, s) - s[..., :, None] * s[..., None, :]
    return float(np.abs(lhs - k0l0 * pg.g).max(initial=0.0))


def conformal_sub_quantities(pg: PointGeometry, gauge: Gauge) -> tuple[np.ndarray, np.ndarray]:
    """Transformed (-1)-connection and transformed 1-extrinsic curvature of the
    submanifold at ``pg.u``, a point or rows.

    The transformed extrinsic curvature takes ``s_kappa`` to be the mean
    extrinsic curvature, the choice that kills it on totally umbilic families;
    divided by the gauge it is the conformal 1-extrinsic curvature.
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
    return tops.require_finite(gamma_bar), tops.require_finite(h1_bar)


def ubar_chart_connection(pg: PointGeometry, gauge: Gauge, dmat) -> tuple[np.ndarray, np.ndarray]:
    """Transformed (-1)-connection at ``pg.u``, a point or rows, expressed in
    the flattening coordinates.

    Returns the two terms of :func:`connection_coordinate_change`, the
    pulled-back connection and the inhomogeneous term; their sum is the
    connection. Verifies the flattening claim: the sum should vanish on the
    whole chart for a dual quadric hypersurface with its gauge.
    """
    gamma_bar, _ = conformal_sub_quantities(pg, gauge)
    g_bar = gauge.nu_at(pg.u)[..., None, None] * pg.g

    # C[p, a] = d ubar^p / d u^a, hess[p, a, b] = d_a d_b ubar^p
    _, cmat, hess = quadric_map(pg, gauge, dmat)
    cinv = np.linalg.inv(cmat)                           # cinv[a, p] = d u^a / d ubar^p
    basis = cinv.swapaxes(-1, -2)                        # basis[p, a] = d u^a / d ubar^p
    # d basis[q, b] / d ubar^p, by differentiating the inverse matrix through u
    dbasis = -np.einsum("...pe,...bm,...mea,...aq->...pqb", basis, cinv, hess, cinv)
    return connection_coordinate_change(gamma_bar, basis, dbasis, g_bar)


def connection_coordinate_change(
    gamma: np.ndarray,
    basis: np.ndarray,
    dbasis: np.ndarray,
    metric_old: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Transform connection components to a new chart, at a point or at each row of a stack.

    ``basis[..., b, i] = d old^i / d new^b`` and ``dbasis[..., a, b, i]`` is
    its derivative along the new coordinates. Returns the two terms whose
    sum is the new components: the pulled-back connection and the
    inhomogeneous term, which contracts the old-chart metric with ``basis``
    and ``dbasis``. They come apart so that a sum that should cancel can be
    weighed against its terms.
    """
    g = np.asarray(gamma, dtype=float)
    b = np.asarray(basis, dtype=float)
    db = np.asarray(dbasis, dtype=float)
    gm = np.asarray(metric_old, dtype=float)
    if np.any(np.linalg.matrix_rank(b) < b.shape[-2]):
        raise ChartError("chart-change basis is rank deficient")
    pulled = np.einsum("...ijk,...ai,...bj,...ck->...abc", g, b, b, b)
    inhom = np.einsum("...ij,...ci,...abj->...abc", gm, b, db)
    return tops.require_finite(pulled), tops.require_finite(inhom)
