"""Full exponential families and the pointwise conformal chart path.

The ambient flat manifold of a curved family in its natural (theta) chart:
potential, mean parameter, Fisher metric, skewness, alpha-connections and
their curvature, for the radial ambients of the two directional models and
for Gaussian and Poisson fixtures. Then explicit gauges of a full family,
the pointwise conformal transformation of a chart, and the
finite-difference jets that strip a curved family of its closed forms.
None of the library's subcommands reads any of this: it checks the general
theory behind the curved jet (acceptance criteria 01, 02 and 07) and serves
as an oracle for it.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from seqgeo import geometry, tensorops as tops
from seqgeo.conformal import ConformalCoordinates, Gauge, _apply, _scaled_map_derivatives
from seqgeo.errors import (
    EvaluationDomainError,
    GaugeSingularityError,
    SeqGeoError,
    UnsupportedShapeError,
)
from seqgeo.models import (
    HyperboloidModel,
    VmfModel,
    hyperboloid_mean_resultant,
    vmf_mean_resultant,
)
from seqgeo.tensorops import as_coords

from oracles import STEP1, STEP2, fd_field_derivative, fd_hessian, fd_ricci_derivative, rel_steps, svd_normals


class ModelMisspecificationError(SeqGeoError):
    """A quantity violates a model-level requirement (e.g. indefinite Hessian of a potential)."""


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


def rc_curvature(gamma_field: Callable, metric_field: Callable, at) -> np.ndarray:
    """Riemann-Christoffel curvature of a connection field over one chart.

    All-lower components of the curvature of the connection whose lowered
    symbols are ``gamma_field``; the quadratic term couples the connection
    with its metric dual (``G*_jlr = d_j g_lr - G_jrl``), which is what
    makes affine charts of either dual connection come out flat:

    ``R_ijkl = d_i G_jkl - d_j G_ikl + g^rs (G_iks G*_jlr - G_jks G*_ilr)``

    Derivatives are central differences of the supplied fields, with the
    steps ``STEP1 max(1, |x_i|)``. Antisymmetric in the first two slots.
    """
    x = as_coords(at)
    h = rel_steps(x, STEP1)
    dgamma = fd_field_derivative(gamma_field, x, h)
    g0 = np.asarray(gamma_field(x), dtype=float)
    dual0 = fd_field_derivative(metric_field, x, h) - g0.transpose(0, 2, 1)  # the duality identity
    quad = np.einsum("rs,iks,jlr->ijkl", tops.invert_matrix(metric_field(x)), g0, dual0)
    vals = dgamma - dgamma.transpose(1, 0, 2, 3) + quad - quad.transpose(1, 0, 2, 3)
    return tops.require_finite(vals)


def ambient_rc_curvature(fam: ExponentialFamily, theta, alpha: float) -> np.ndarray:
    """Curvature of the alpha-connection of the family itself, theta chart."""
    return rc_curvature(lambda x: alpha_connection(fam, x, alpha), lambda x: metric(fam, x), theta)


# ---------------------------------------------------------------------------
# the radial ambients of the directional models, and two flat fixtures


def _vmf_dag_derivs(rho: float, m: int) -> tuple[float, float, float]:
    d = vmf_mean_resultant(rho, m)
    d1 = 1.0 - (m / rho) * d - d * d
    d2 = (m / rho**2) * d - (m / rho) * d1 - 2.0 * d * d1
    return d, d1, d2


def _hyp_dag_derivs(rho: float, m: int) -> tuple[float, float, float]:
    d = hyperboloid_mean_resultant(rho, m)
    d1 = d * d - (m / rho) * d - 1.0
    d2 = 2.0 * d * d1 - (m / rho) * d1 + (m / rho**2) * d
    return d, d1, d2


def _radial_family(n, signs, fval, fderivs, domain, name) -> ExponentialFamily:
    """A family whose potential ``fval`` depends on theta through ``rho = sqrt(sum signs theta^2)``
    only; ``fderivs(rho)`` are its first three radial derivatives."""
    smat = np.diag(signs)

    def rho_of(t: np.ndarray) -> float:
        q = float(np.dot(signs, t * t))
        if q <= 0:
            raise EvaluationDomainError(f"{name}: natural parameter outside the radial domain")
        return math.sqrt(q)

    def grad(t):
        rho = rho_of(t)
        f1, _, _ = fderivs(rho)
        return (f1 / rho) * (signs * t)

    def hess(t):
        rho = rho_of(t)
        f1, f2, _ = fderivs(rho)
        q = signs * t
        a = (f2 - f1 / rho) / rho**2
        return a * np.outer(q, q) + (f1 / rho) * smat

    def third(t):
        rho = rho_of(t)
        f1, f2, f3 = fderivs(rho)
        q = signs * t
        a = (f2 - f1 / rho) / rho**2
        ap = f3 / rho**2 - 3.0 * f2 / rho**3 + 3.0 * f1 / rho**4
        qqq = np.einsum("i,j,k->ijk", q, q, q)
        mix = (
            np.einsum("ij,k->ijk", smat, q)
            + np.einsum("jk,i->ijk", smat, q)
            + np.einsum("ki,j->ijk", smat, q)
        )
        return (ap / rho) * qqq + a * mix

    return ExponentialFamily(n=n, psi=lambda t: fval(rho_of(t)), grad=grad, hess=hess, third=third,
                             domain=domain, name=name)


# from here on scipy's ive and kve return NaN; their large-argument expansions are exact to rounding
_BESSEL_ASYMPTOTIC = 2.0 ** 30


def _hankel_sum(nu: float, rho: float, sign: float) -> float:
    """``sum_k sign^k a_k(nu) / rho^k``, the large-argument expansion of
    ``K_nu`` (sign +1) or ``I_nu`` (sign -1) without its exponential and
    ``rho^(-1/2)`` factors; it terminates for half-integer ``nu``."""
    mu = 4.0 * nu * nu
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * abs(total):
        k += 1
        term *= sign * (mu - (2 * k - 1) ** 2) / (8.0 * k * rho)
        total += term
    return total


def vmf_family(m: int) -> ExponentialFamily:
    """Ambient family of the von Mises-Fisher model on the m-sphere."""
    n = m + 1
    const = 0.5 * (m + 1) * math.log(2.0 * math.pi)

    if m == 2:
        def fval(rho):
            if rho > 350.0:  # sinh overflows; asymptotic log form
                return math.log(4.0 * math.pi) + rho - math.log(2.0 * rho)
            return math.log(4.0 * math.pi) + math.log(math.sinh(rho) / rho)
    else:
        nu = 0.5 * (m - 1)

        def fval(rho):
            if rho >= _BESSEL_ASYMPTOTIC:
                log_iv = rho - 0.5 * math.log(2.0 * math.pi * rho) + math.log(_hankel_sum(nu, rho, -1.0))
            else:
                # log I_nu(rho) = log ive(nu, rho) + rho, finite where iv overflows
                log_iv = math.log(float(special.ive(nu, rho))) + rho
            return const + 0.5 * (1 - m) * math.log(rho) + log_iv

    return _radial_family(n, np.ones(n), fval, lambda rho: _vmf_dag_derivs(rho, m),
                          domain=lambda t: float(np.dot(t, t)) > 1e-16, name=f"vmf-ambient(m={m})")


def hyperboloid_family(m: int) -> ExponentialFamily:
    """Ambient family of the hyperboloid model; natural domain is the past timelike cone."""
    n = m + 1
    signs = np.concatenate(([1.0], -np.ones(n - 1)))

    if m == 2:
        def fval(rho):
            return math.log(2.0 * math.pi) - rho - math.log(rho)
    else:
        nu = 0.5 * (m - 1)
        const = math.log(2.0) + 0.5 * (m - 1) * math.log(2.0 * math.pi)

        def fval(rho):
            if rho >= _BESSEL_ASYMPTOTIC:
                log_kv = -rho + 0.5 * math.log(math.pi / (2.0 * rho)) + math.log(_hankel_sum(nu, rho, 1.0))
            else:
                # log K_nu(rho) = log kve(nu, rho) - rho, finite where kv underflows
                log_kv = math.log(float(special.kve(nu, rho))) - rho
            return const + 0.5 * (1 - m) * math.log(rho) + log_kv

    def fder(rho):
        d, d1, d2 = _hyp_dag_derivs(rho, m)
        return -d, -d1, -d2  # potential decreases in the radial direction

    def domain(t):
        q = float(np.dot(signs, t * t))
        return q > 0 and t[0] < 0

    return _radial_family(n, signs, fval, fder, domain, f"hyperboloid-ambient(m={m})")


def family_of(model) -> ExponentialFamily:
    """The ambient family of a directional model."""
    return {VmfModel: vmf_family, HyperboloidModel: hyperboloid_family}[type(model)](model.m)


def gaussian_family(n: int) -> ExponentialFamily:
    """Unit-covariance Gaussian mean family; self-dual coordinates."""
    return ExponentialFamily(
        n=n,
        psi=lambda t: 0.5 * float(t @ t),
        grad=lambda t: t.copy(),
        hess=lambda t: np.eye(n),
        third=lambda t: np.zeros((n, n, n)),
        name=f"gaussian({n})",
    )


def poisson_family(n: int = 1) -> ExponentialFamily:
    """Independent Poisson coordinates with log-link natural parameters."""

    def third(t):
        out = np.zeros((n, n, n))
        out[np.arange(n), np.arange(n), np.arange(n)] = np.exp(t)
        return out

    return ExponentialFamily(
        n=n,
        psi=lambda t: float(np.sum(np.exp(t))),
        grad=lambda t: np.exp(t),
        hess=lambda t: np.diag(np.exp(t)),
        third=third,
        name=f"poisson({n})",
    )


def ambient_probes(model, count=8, seed=13) -> np.ndarray:
    """Points of the ambient chart at moderate radius, built from the model chart."""
    rng = np.random.default_rng(seed)
    grid = model.probe_grid(count=count, margin=0.3, seed=seed)
    scales = rng.uniform(0.5, 2.0, size=count) / model.r
    return np.array([s * model.embed(u)[0] for s, u in zip(scales, grid)])


# ---------------------------------------------------------------------------
# gauges of a full family, and two test gauges


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


def expfam_gauge(fam: ExponentialFamily, c0: float, c, d, dmat) -> tuple[Gauge, ConformalCoordinates]:
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

    gauge = Gauge(nu=nu, s=lambda etas: -cv / denom(etas)[..., None],
                  ds=lambda etas: cv[:, None] * cv[None, :] / np.float_power(denom(etas), 2)[..., None, None])

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
        b = c0 + float(cv @ eta_of_theta(fam, theta))
        if abs(b) < 1e-300:
            raise GaugeSingularityError("affine gauge denominator crosses zero")
        return b

    def s(theta):
        return -(metric(fam, theta) @ cv) / denom(theta)

    def ds(theta):
        b = denom(theta)
        a = metric(fam, theta) @ cv
        return -np.einsum("ijk,i->jk", skewness(fam, theta), cv) / b + np.outer(a, a) / b**2

    def rowwise(f):
        return lambda thetas: np.apply_along_axis(f, -1, thetas)

    return Gauge(nu=rowwise(lambda theta: 1.0 / abs(denom(theta))), s=rowwise(s), ds=rowwise(ds))


# ---------------------------------------------------------------------------
# the pointwise chart path: a chart maps a point to its ChartPoint


class ChartPoint(NamedTuple):
    """The point ``u`` (or rows), with the metric and its inverse, both unit
    connections and the (-1)-curvature there, and the derivative
    ``dric[e, b, c] = d_e Ric_bc`` of its Ricci tensor where the chart has it."""

    u: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    g1: np.ndarray
    gm1: np.ndarray
    rm1: np.ndarray
    dric: np.ndarray | None = None


def g1(pg) -> np.ndarray:
    """+1 connection of a curved family's chart from its bundle: G1_abc = (d_a B_b^j) B_cj."""
    return np.einsum("...abj,...cj->...abc", pg.ht, pg.jet.tangent_eta)


def curved_chart(fam) -> Callable[[np.ndarray], ChartPoint]:
    """The chart of a curved family as ChartPoints, from one bundle over the points."""

    def chart(x):
        pg = geometry.point_geometry(fam, x)
        return ChartPoint(pg.u, pg.g, pg.ginv, g1(pg), pg.gm1, pg.rm1, pg.dric)

    return chart


def expfam_chart_geometry(fam: ExponentialFamily) -> Callable[[np.ndarray], ChartPoint]:
    """Theta chart of a full family (the +1 connection vanishes)."""
    met, skew = (lambda x: metric(fam, x)), (lambda x: skewness(fam, x))

    def chart(x):
        g = met(x)
        return ChartPoint(as_coords(x), g, tops.invert_matrix(g, "metric"), np.zeros((fam.n,) * 3), skew(x),
                          rc_curvature(skew, met, x))

    return chart


def conformal_connection(gamma, g, gauge: Gauge, alpha: float, at) -> np.ndarray:
    """Transformed alpha-connection components (same chart)."""
    x = as_coords(at)
    nu = gauge.nu_at(x)
    s = gauge.s(x)
    gv = np.asarray(g, dtype=float)
    plus = 0.5 * (1.0 - alpha) * (np.einsum("ki,j->ijk", gv, s) + np.einsum("kj,i->ijk", gv, s))
    minus = 0.5 * (1.0 + alpha) * np.einsum("ij,k->ijk", gv, s)
    return tops.require_finite(nu * (np.asarray(gamma, dtype=float) + plus - minus))


def _s_alpha(gv, ginv, gamma_alpha, s, ds, alpha):
    # s^(alpha)_ij, the correction block entering the curvature transform
    pref = 0.5 * (1.0 - alpha)
    if pref == 0.0:
        return np.zeros_like(gv)
    nabla = ds - np.einsum("ijk,k->ij", np.einsum("ijl,lk->ijk", gamma_alpha, ginv), s)
    return pref * (nabla - pref * np.outer(s, s) + 0.25 * (1.0 + alpha) * float(s @ ginv @ s) * gv)


def conformal_rc_curvature(r, g, gamma_alpha, gamma_minus_alpha, gauge: Gauge, alpha: float,
                           at) -> np.ndarray:
    """Transformed alpha-curvature; antisymmetry in the first slots is preserved."""
    x = as_coords(at)
    nu = gauge.nu_at(x)
    s, ds = gauge.s(x), gauge.ds(x)
    gv = np.asarray(g, dtype=float)
    ginv = tops.invert_matrix(gv)
    sa = _s_alpha(gv, ginv, np.asarray(gamma_alpha, dtype=float), s, ds, alpha)
    sma = _s_alpha(gv, ginv, np.asarray(gamma_minus_alpha, dtype=float), s, ds, -alpha)
    vals = nu * (
        np.asarray(r, dtype=float)
        - np.einsum("il,jk->ijkl", gv, sa)
        + np.einsum("jl,ik->ijkl", gv, sa)
        - np.einsum("jk,il->ijkl", gv, sma)
        + np.einsum("ik,jl->ijkl", gv, sma)
    )
    return tops.require_finite(vals)


def conformal_chart_geometry(chart: Callable, gauge: Gauge) -> Callable[[np.ndarray], ChartPoint]:
    """The same chart after a conformal transformation by ``gauge``."""

    def transformed(x):
        p = chart(x)
        g_bar = gauge.nu_at(x) * p.g
        return ChartPoint(
            p.u,
            g_bar,
            tops.invert_matrix(g_bar, "metric"),
            conformal_connection(p.g1, p.g, gauge, 1.0, x),
            conformal_connection(p.gm1, p.g, gauge, -1.0, x),
            conformal_rc_curvature(p.rm1, p.g, p.gm1, p.g1, gauge, -1.0, x),
        )

    return transformed


def rows_chart(point_chart):
    """A chart over rows ``(..., m)`` from a chart of one point, by mapping it
    over the rows and stacking each of the ``ChartPoint`` fields; the Ricci
    derivative, which a chart of one point leaves out, is
    :func:`oracles.fd_ricci_derivative` of its Ricci tensor."""

    def chart(xs):
        xa = np.asarray(xs, dtype=float)
        rows = xa.reshape(-1, xa.shape[-1])
        points = [point_chart(row)._replace(dric=fd_ricci_derivative(point_chart, row)) for row in rows]
        return ChartPoint(*(np.reshape([p[i] for p in points], xa.shape[:-1] + np.shape(points[0][i]))
                            for i in range(len(ChartPoint._fields))))

    return chart


# ---------------------------------------------------------------------------
# finite-difference jets and ambient contractions of curved families


def fd_family(ambient, m, theta, eta=None, normal_sign=1):
    """The curved family of the embedding ``u -> (theta(u), eta(u))`` with its
    jet taken point by point over rows ``(..., m)``: tangents, Hessians and
    third derivatives by central differences, the normals by ``svd_normals``.
    Without ``eta``, the mean embedding goes through :func:`eta_of_theta` of
    the ``ambient`` family.

    Tangents take the steps ``STEP1 max(1, |u_i|)`` and Hessians
    ``STEP2 max(1, |u_i|)``; a third derivative is the central difference of
    those Hessians, at the same steps.
    """
    n = ambient.n
    if eta is None:
        eta = lambda u: eta_of_theta(ambient, theta(u))
    shapes = [(n,)] * 2 + [(m, n)] * 2 + [(m, m, n)] * 2 + [(m, m, m, n)] * 2 + [(n - m, n)] * 2

    def at(u):
        h1, h2 = rel_steps(u, STEP1), rel_steps(u, STEP2)
        th, bt, be = theta(u), fd_field_derivative(theta, u, h1), fd_field_derivative(eta, u, h1)
        return (th, eta(u), bt, be, fd_hessian(theta, u, h2), fd_hessian(eta, u, h2),
                *(fd_field_derivative(lambda y, f=f: fd_hessian(f, y, h2), u, h2) for f in (theta, eta)),
                *svd_normals(th, bt, be, normal_sign))

    def jet(us):
        us = np.asarray(us, dtype=float)
        points = [at(u) for u in us.reshape(-1, us.shape[-1])]
        return geometry.Jet(*(np.reshape([p[i] for p in points], us.shape[:-1] + shape)
                              for i, shape in enumerate(shapes)))

    return geometry.CurvedFamily(n, m, jet)


def numeric_clone(model):
    """The model's submanifold with every closed form of the embedding stripped:
    theta goes through ``model.embed``, which checks the chart, the mean
    embedding through the ambient gradient, and the jet is :func:`fd_family`'s.

    The closed-form normal points along theta on the sphere and against it on
    the hyperboloid: the sign of the model's curvature.
    """
    return fd_family(family_of(model), model.curved.m, lambda u: model.embed(u)[0],
                     normal_sign=int(model.curvature_sign))


def direct_rc_curvature(fam, u, alpha: int):
    """Curvature via the intrinsic formula applied to the sub-connection field,
    against which the Gauss-equation curvature is checked."""
    gamma_field = (lambda x: g1(geometry.point_geometry(fam, x))) if alpha == 1 else (
        lambda x: geometry.point_geometry(fam, x).gm1)
    return rc_curvature(gamma_field, lambda x: geometry.point_geometry(fam, x).g, u)


def curved_skewness(ambient, fam, u):
    """The ambient skewness pulled back to the u chart: T_abc = T_ijk B_a^i B_b^j B_c^k."""
    f = geometry.frame_at(fam, u)
    t = skewness(ambient, f.theta)
    return np.einsum("ijk,ai,bj,ck->abc", t, f.tangent_theta, f.tangent_theta, f.tangent_theta)


def t_akk(ambient, fam, u):
    """The ambient skewness contracted once with a tangent and twice with the normal frame."""
    pg = geometry.point_geometry(fam, u)
    f = pg.jet
    t = skewness(ambient, f.theta)
    return np.einsum(
        "ijk,ai,pj,qk,pq->a", t, f.tangent_theta, f.normal_theta, f.normal_theta, pg.gkk_inv
    )
