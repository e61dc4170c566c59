"""Full regular minimally represented exponential families.

The ambient flat manifold: potential, dual coordinates, Fisher metric,
skewness tensor, alpha-connections, their curvature, and chart changes of
connection components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensorops as tops
from .errors import EvaluationDomainError, ModelMisspecificationError, ChartError
from .tensorops import Point, as_coords

LEGENDRE_TOL = 1e-8


@dataclass(frozen=True)
class ExponentialFamily:
    """An n-dimensional family specified by its convex potential.

    ``grad``, ``hess`` and ``third`` are the potential's derivatives in
    closed form, and ``eta_inverse`` is the exact inverse of the mean map.
    """

    n: int
    psi: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    eta_inverse: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] | None = None
    name: str = ""

    def check_domain(self, theta: np.ndarray) -> None:
        if self.domain is not None and not self.domain(theta):
            raise EvaluationDomainError(
                f"theta={theta!r} outside the domain of family {self.name or '<anon>'}"
            )

    def psi_at(self, theta) -> float:
        t = as_coords(theta)
        self.check_domain(t)
        v = float(self.psi(t))
        if not np.isfinite(v):
            raise EvaluationDomainError("non-finite potential value")
        return v


@dataclass(frozen=True)
class DualPair:
    """A Legendre-dual pair of coordinates with both potential values."""

    theta: Point
    eta: Point
    psi_value: float
    phi_value: float

    def __post_init__(self):
        gap = self.psi_value + self.phi_value - float(self.theta.coords @ self.eta.coords)
        if abs(gap) > LEGENDRE_TOL:
            raise EvaluationDomainError(f"Legendre identity violated by {gap:.3e}")


def eta_of_theta(fam: ExponentialFamily, theta) -> Point:
    """Expectation parameter: the potential gradient at ``theta``."""
    t = as_coords(theta)
    fam.check_domain(t)
    g = np.asarray(fam.grad(t), dtype=float)
    if not np.all(np.isfinite(g)):
        raise EvaluationDomainError("non-finite mean parameter")
    return Point(g, "eta")


def theta_of_eta(fam: ExponentialFamily, eta) -> DualPair:
    """Invert the mean map and return the full dual pair.

    The conjugate potential is evaluated pointwise through the Legendre
    identity; no global conjugate function is constructed.
    """
    e = as_coords(eta)
    t = np.asarray(fam.eta_inverse(e), dtype=float)
    psi_v = fam.psi_at(t)
    phi_v = float(t @ e) - psi_v
    return DualPair(Point(t, "theta"), Point(e, "eta"), psi_v, phi_v)


def metric(fam: ExponentialFamily, at) -> np.ndarray:
    """Fisher metric.

    In the theta chart this is the covariant potential Hessian; in the
    eta chart the contravariant components (the inverse pushed through
    the dual map) are returned.
    """
    p = at if isinstance(at, Point) else Point(as_coords(at), "theta")
    if p.chart == "eta":
        pair = theta_of_eta(fam, p)
        return tops.require_finite(tops.invert_matrix(metric(fam, pair.theta)))
    if p.chart != "theta":
        raise ChartError(f"metric is defined on the theta or eta chart, got {p.chart!r}")
    t = p.coords
    fam.check_domain(t)
    h = np.asarray(fam.hess(t), dtype=float)
    h = tops.require_finite(0.5 * (h + h.T))
    w = np.linalg.eigvalsh(h)
    if w.min() <= 0:
        raise ModelMisspecificationError(
            f"potential Hessian is not positive definite (min eigenvalue {w.min():.3e})"
        )
    return h


def skewness(fam: ExponentialFamily, theta) -> np.ndarray:
    """Skewness tensor: the symmetric third derivative of the potential."""
    t = as_coords(theta)
    fam.check_domain(t)
    return tops.require_finite(fam.third(t))


def alpha_connection(fam: ExponentialFamily, theta, alpha: float) -> np.ndarray:
    """Alpha-connection components in the theta chart: ((1-alpha)/2) T."""
    return ((1.0 - alpha) / 2.0) * skewness(fam, theta)


def connection_coordinate_change(
    gamma: np.ndarray,
    basis: np.ndarray,
    dbasis: np.ndarray,
    metric_old: np.ndarray,
) -> np.ndarray:
    """Transform connection components to a new chart.

    ``basis[b, i] = d old^i / d new^b`` and ``dbasis[a, b, i]`` is its
    derivative along the new coordinates. The inhomogeneous term contracts
    the old-chart metric with ``basis`` and ``dbasis``.
    """
    g = np.asarray(gamma, dtype=float)
    b = np.asarray(basis, dtype=float)
    db = np.asarray(dbasis, dtype=float)
    gm = np.asarray(metric_old, dtype=float)
    if np.linalg.matrix_rank(b) < b.shape[0]:
        raise ChartError("chart-change basis is rank deficient")
    pulled = np.einsum("ijk,ai,bj,ck->abc", g, b, b, b)
    inhom = np.einsum("ij,ci,abj->abc", gm, b, db)
    return tops.require_finite(pulled + inhom)


def rc_curvature(
    gamma_field: Callable[[np.ndarray], np.ndarray],
    metric_field: Callable[[np.ndarray], np.ndarray],
    at,
    step: float | None = None,
) -> np.ndarray:
    """Riemann-Christoffel curvature of a connection field over one chart.

    All-lower components of the curvature of the connection whose lowered
    symbols are ``gamma_field``; the quadratic term couples the connection
    with its metric dual (``G*_jlr = d_j g_lr - G_jrl``), which is what
    makes affine charts of either dual connection come out flat:

    ``R_ijkl = d_i G_jkl - d_j G_ikl + g^rs (G_iks G*_jlr - G_jks G*_ilr)``

    Derivatives are central differences of the supplied fields.
    Antisymmetric in the first two slots.
    """
    x = as_coords(at).copy()
    d = x.shape[0]
    h = tops._steps(x, step, tops.STEP_ORDER1)

    def gam(y):
        v = np.asarray(gamma_field(y), dtype=float)
        if not np.all(np.isfinite(v)):
            raise EvaluationDomainError("non-finite connection evaluation on stencil")
        return v

    def met(y):
        v = np.asarray(metric_field(y), dtype=float)
        if not np.all(np.isfinite(v)):
            raise EvaluationDomainError("non-finite metric evaluation on stencil")
        return v

    dgamma = np.empty((d, d, d, d))
    dg = np.empty((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h[i]
        dgamma[i] = (gam(x + e) - gam(x - e)) / (2.0 * h[i])
        dg[i] = (met(x + e) - met(x - e)) / (2.0 * h[i])

    g0 = gam(x)
    dual0 = dg - g0.transpose(0, 2, 1)  # dual connection via the duality identity
    ginv = tops.invert_matrix(met(x))
    quad = np.einsum("rs,iks,jlr->ijkl", ginv, g0, dual0)
    vals = dgamma - dgamma.transpose(1, 0, 2, 3) + quad - quad.transpose(1, 0, 2, 3)
    return tops.require_finite(vals)


def ambient_rc_curvature(fam: ExponentialFamily, theta, alpha: float) -> np.ndarray:
    """Curvature of the alpha-connection of the family itself, theta chart."""
    gamma_field = lambda x: alpha_connection(fam, x, alpha)
    metric_field = lambda x: metric(fam, Point(x, "theta"))
    return rc_curvature(gamma_field, metric_field, theta)
