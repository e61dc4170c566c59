"""Full regular minimally represented exponential families.

The ambient flat manifold in its natural (theta) chart: potential, mean
parameter, Fisher metric, skewness tensor, alpha-connections, their
curvature, and chart changes of connection components. The potential's
derivatives are closed forms; every point is a plain array of natural
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensorops as tops
from .errors import EvaluationDomainError, ModelMisspecificationError, ChartError
from .tensorops import as_coords


@dataclass(frozen=True)
class ExponentialFamily:
    """An n-dimensional family specified by its convex potential.

    ``grad``, ``hess`` and ``third`` are the potential's derivatives in
    closed form.
    """

    n: int
    psi: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] | None = None
    name: str = ""

    def check_domain(self, theta: np.ndarray) -> None:
        if self.domain is not None and not self.domain(theta):
            raise EvaluationDomainError(
                f"theta={theta!r} outside the domain of family {self.name or '<anon>'}"
            )


def eta_of_theta(fam: ExponentialFamily, theta) -> np.ndarray:
    """Expectation parameter: the potential gradient at ``theta``."""
    t = as_coords(theta)
    fam.check_domain(t)
    g = np.asarray(fam.grad(t), dtype=float)
    if not np.all(np.isfinite(g)):
        raise EvaluationDomainError("non-finite mean parameter")
    return g


def metric(fam: ExponentialFamily, theta) -> np.ndarray:
    """Fisher metric at ``theta``: the covariant potential Hessian."""
    t = as_coords(theta)
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
    metric_field = lambda x: metric(fam, x)
    return rc_curvature(gamma_field, metric_field, theta)
