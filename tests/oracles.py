"""Independent oracle routes used to freeze expected values.

Everything here is deliberately naive (power series, brute-force finite
differences, direct contractions) and never calls back into the code
path it is checking.
"""

import math

import numpy as np
from scipy.optimize import brentq

from seqgeo import expfam, geometry, sequential, tensorops as tops
from seqgeo.conformal import ChartPoint, WeylSchouten, ubar_chart_connection


def iv_ratio_series(rho: float, nu: float, terms: int = 30) -> float:
    """I_{nu+1}(rho) / I_nu(rho) from the ascending power series."""
    num = sum(
        (rho / 2.0) ** (2 * k) / (math.factorial(k) * math.gamma(k + nu + 2.0))
        for k in range(terms)
    )
    den = sum(
        (rho / 2.0) ** (2 * k) / (math.factorial(k) * math.gamma(k + nu + 1.0))
        for k in range(terms)
    )
    return (rho / 2.0) * num / den


def kv_ratio_recurrence(rho: float, m: int) -> float:
    """K_{(m+1)/2}/K_{(m-1)/2} for even m from the half-integer seed."""
    assert m % 2 == 0
    ratio = 1.0 + 1.0 / rho
    nu = 1.5
    while nu <= 0.5 * (m - 1):
        ratio = 1.0 / ratio + 2.0 * nu / rho
        nu += 1.0
    return ratio


# default relative steps of a central first and second difference
STEP1 = float(np.finfo(float).eps) ** (1.0 / 3.0)
STEP2 = float(np.finfo(float).eps) ** (1.0 / 5.0)


def rel_steps(x, rel):
    """Per-axis steps ``rel * max(1, |x_i|)``."""
    return rel * np.maximum(1.0, np.abs(np.asarray(x, dtype=float)))


def _axis_steps(x, h):
    return np.broadcast_to(np.asarray(h, dtype=float), x.shape)


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient; ``h`` is one step or one per axis."""
    x = np.asarray(x, dtype=float)
    h = _axis_steps(x, h)
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h[i]
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h[i])
    return out


def fd_hessian(f, x, h=5e-4):
    """Central-difference Hessian ``(d, d, ...)`` of a scalar or array field;
    ``h`` is one step or one per axis."""
    x = np.asarray(x, dtype=float)
    h = _axis_steps(x, h)
    d = x.shape[0]
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d); ei[i] = h[i]
            ej = np.zeros(d); ej[j] = h[j]
            val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h[i] * h[j])
            out[i][j] = out[j][i] = val
    return np.array(out, dtype=float)


def fd_field_derivative(field, x, h=1e-6):
    """d_i field(x) stacked along a new leading axis; ``h`` is one step or one per axis."""
    x = np.asarray(x, dtype=float)
    h = _axis_steps(x, h)
    rows = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h[i]
        rows.append((np.asarray(field(x + e)) - np.asarray(field(x - e))) / (2.0 * h[i]))
    return np.stack(rows, axis=0)


def fd_jet(fam):
    """The jet of ``fam`` over rows ``(..., m)`` by central differences of
    ``fam.embed_theta`` and ``fam.eta``, point by point, without normals.

    Tangents take the steps ``STEP1 max(1, |u_i|)`` and Hessians
    ``STEP2 max(1, |u_i|)``.
    """
    shapes = [(fam.m, fam.n)] * 2 + [(fam.m, fam.m, fam.n)] * 2

    def at(u):
        h1, h2 = rel_steps(u, STEP1), rel_steps(u, STEP2)
        return (fd_field_derivative(fam.embed_theta, u, h1), fd_field_derivative(fam.eta, u, h1),
                fd_hessian(fam.embed_theta, u, h2), fd_hessian(fam.eta, u, h2))

    def jet(us):
        us = np.asarray(us, dtype=float)
        points = [at(u) for u in us.reshape(-1, us.shape[-1])]
        return geometry.Jet(*(np.reshape([p[i] for p in points], us.shape[:-1] + shape)
                              for i, shape in enumerate(shapes)))

    return jet


def fd_family(**fields):
    """A curved family whose jet is :func:`fd_jet` of its own embeddings."""
    fam = geometry.CurvedFamily(jet=lambda us: fd_jet(fam)(us), **fields)
    return fam


def numeric_clone(model):
    """The model's submanifold with every closed form of the embedding stripped:
    the mean embedding goes through the ambient gradient and the jet is
    :func:`fd_jet`."""
    fam = model.curved
    return fd_family(ambient=fam.ambient, m=fam.m, embed_theta=fam.embed_theta,
                     normal_sign=fam.normal_sign, name=fam.name + "-numeric")


def scalar_affine_potentials(c0, c, d, dmat):
    """The conformal potentials ``phi_bar`` and ``psi_bar``, and the
    central-difference gradient of ``phi_bar``, of the 1-D unit Gaussian
    family under the affine gauge ``nu = 1/|c0 + c eta|`` and the map
    ``h = nu (d + D eta)``, on the side where ``c0 + c eta > 0``.

    The map inverts in closed form, ``eta = (c0 h - d) / (D - c h)``, and
    ``phi_bar(h) = nu eta^2 / 2``. ``psi_bar(xi, h_guess)`` returns
    ``xi h - phi_bar(h)`` and ``h``, where ``h`` solves ``phi_bar'(h) = xi``
    by ``brentq`` on the central-difference gradient within 0.05 of
    ``h_guess``. Points and results are arrays of shape ``(1,)``.
    """

    def phi_bar(h):
        (hv,) = np.asarray(h, dtype=float)
        eta = (c0 * hv - d) / (dmat - c * hv)
        return eta * eta / 2.0 / abs(c0 + c * eta)

    def grad(h):
        return fd_gradient(phi_bar, h, rel_steps(h, STEP1))

    def psi_bar(xi, h_guess):
        (xv,), (hg,) = np.asarray(xi, dtype=float), np.asarray(h_guess, dtype=float)
        root = brentq(lambda y: grad(np.array([y]))[0] - xv, hg - 0.05, hg + 0.05, xtol=1e-15)
        h = np.array([root])
        return xv * root - phi_bar(h), h

    return phi_bar, psi_bar, grad


def fd_map_hessian(coords, x):
    """Second derivatives ``(new, old, old)`` of a flattening map at one point,
    by central differences of its closed-form Jacobian."""
    x = np.asarray(x, dtype=float)
    jac = coords.derivatives(x)[0]
    flat = fd_field_derivative(lambda y: coords.derivatives(y)[0].ravel(), x, rel_steps(x, STEP1))
    return np.moveaxis(flat, 0, -1).reshape(jac.shape + x.shape)


def polar_gauge_log_gradient(kinds, u):
    """The polar-chart gauge's ``s`` and ``ds`` at one point, axis by axis with ``math``:
    ``s_a = -c_a / s_a`` and ``ds = diag(1 / s_a^2)``, with (s, c) = (sinh, cosh)
    on the hyperbolic axis and (sin, cos) on a circular one."""
    sc = [(math.sinh(x), math.cosh(x)) if kind == "hyp" else (math.sin(x), math.cos(x))
          for kind, x in zip(kinds, np.asarray(u, dtype=float).tolist())]
    return np.array([-c / s for s, c in sc]), np.diag([1.0 / s ** 2 for s, _ in sc])


def christoffel_first_kind(metric_field, x, h=1e-6):
    """0.5 (d_a g_bc + d_b g_ac - d_c g_ab) by brute-force differencing."""
    dg = fd_field_derivative(metric_field, x, h)
    return 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0))


def observed_information(model, t, sum_x, u_hat) -> float:
    """Normalized observed information ``-(1/m) g^{ab} d_a d_b l`` at ``u_hat``.

    The general formula that the closed-form ``criterion_many`` must match.
    The log-likelihood of ``t`` observations is linear in ``(sum_x, t)``, so
    the value for population data equals ``t`` exactly.
    """
    u = np.asarray(u_hat, dtype=float)
    fam = model.curved
    pg = geometry.point_geometry(fam, u)
    g, ht = pg.g, pg.ht
    delta = np.asarray(sum_x, dtype=float) - t * fam.eta(u)
    hess_l = np.einsum("abi,i->ab", ht, delta) - t * g
    return -float(np.einsum("ab,ab->", np.linalg.inv(g), hess_l)) / fam.m


def reference_stopping(model, gauge, k, u0, rng, c=None, t_min=sequential.T_MIN, t_max=None):
    """One replication of the stopping rule on its own: ``(tau, sum_x, runaway)``.

    The per-replication loop that ``sequential.stop_cell`` runs in lockstep:
    the same burst schedule, one estimator, criterion and gauge call per
    burst of this replication alone. A runaway replication returns
    ``t_max`` and its sum there.
    """
    u0a = np.asarray(u0, dtype=float)
    if c is None:
        c = model.stopping_constant()
    nu0 = gauge.nu_at(u0a)
    if t_max is None:
        t_max = int(math.ceil(sequential.T_MAX_FACTOR * k * nu0))
    burst = max(8, int(0.25 * k * nu0))

    sum_x = np.zeros(model.curved.ambient.n)
    t = 0
    while t < t_max:
        take = min(burst, t_max - t)
        xs = model.sample_many(u0a, rng, take)
        cums = sum_x[None, :] + np.cumsum(xs, axis=0)
        ts = np.arange(t + 1, t + take + 1, dtype=float)
        u_hats, defined = model.mle_many(ts, cums)
        crit = model.criterion_many(ts, cums)
        thresh = k * gauge.nu(u_hats) + c
        eligible = defined & (ts >= t_min) & np.isfinite(thresh)
        hit = eligible & (crit >= thresh)
        if np.any(hit):
            idx = int(np.argmax(hit))
            return int(ts[idx]), cums[idx], False
        sum_x = cums[-1]
        t += take
    return t_max, sum_x, True


def reference_bias_correct(model, u_hat, effective_n, gauge=None, coords=None):
    """Second-order bias correction of one estimate, from its own bundle.

    The per-point correction that ``sequential.bias_correct`` computes over a
    cell's rows: the plain connection contraction in the original chart;
    with a gauge the log-gradient terms are added, and with flattening
    coordinates the whole correction is evaluated in the new chart (where it
    vanishes for a dual quadric hypersurface).
    """
    pg = geometry.point_geometry(model.curved, u_hat)
    u = pg.u
    if coords is not None:
        nu = gauge.nu_at(u)
        gbar = ubar_chart_connection(pg, gauge, coords) / nu
        j = coords.derivatives(u)[0]
        ginv_ubar = j @ pg.ginv @ j.T
        corr = np.einsum("bcd,da,bc->a", gbar, ginv_ubar, ginv_ubar)
        ubar = np.asarray(coords.forward(u), dtype=float)
        return ubar + corr / (2.0 * effective_n)
    ginv = pg.ginv
    corr = np.einsum("bcd,da,bc->a", pg.gm1, ginv, ginv)
    if gauge is not None:
        gauge.nu_at(u)
        corr = corr + 2.0 * ginv @ gauge.s(u)
    return u + corr / (2.0 * effective_n)


def rows_chart(point_chart):
    """A chart over rows ``(..., m)`` from a chart of one point, by mapping it
    over the rows and stacking each of the four ``ChartPoint`` fields."""

    def chart(xs):
        xa = np.asarray(xs, dtype=float)
        rows = xa.reshape(-1, xa.shape[-1])
        points = [point_chart(row) for row in rows]
        return ChartPoint(*(np.reshape([p[i] for p in points], xa.shape[:-1] + np.shape(points[0][i]))
                            for i in range(4)))

    return chart


def reference_weyl_schouten(chart, at, step=None):
    """The Weyl-Schouten set at one point, reading one bundle at the point and
    one at each of the 2m stencil points of the Ricci derivative.

    The per-stencil-point evaluation that ``conformal.weyl_schouten`` reads
    from one bundle over ``1 + 2m`` rows.
    """

    def ricci(p):
        return np.einsum("lijl->ij", np.einsum("ijkr,rl->ijkl", p.rm1, tops.invert_matrix(p.g)))

    x = np.array(at, dtype=float)
    m = x.shape[0]
    p = chart(x)
    ginv = tops.invert_matrix(p.g)
    mixed = np.einsum("ijkr,rl->ijkl", p.rm1, ginv)
    ric = np.einsum("lijl->ij", mixed)
    eye = np.eye(m)
    w4 = mixed - (
        np.einsum("il,jk->ijkl", eye, ric) - np.einsum("jl,ik->ijkl", eye, ric)
    ) / (m - 1.0)

    h = tops._steps(x, step, tops.STEP_ORDER1)
    dric = np.empty((m, m, m))
    for i in range(m):
        e = np.zeros(m)
        e[i] = h[i]
        dric[i] = (ricci(chart(x + e)) - ricci(chart(x - e))) / (2.0 * h[i])
    gm1_mixed = np.einsum("ijr,rl->ijl", p.gm1, ginv)
    nabla = (
        dric
        - np.einsum("ijl,lk->ijk", gm1_mixed, ric)
        - np.einsum("ikl,jl->ijk", gm1_mixed, ric)
    )
    w3 = (nabla - nabla.transpose(1, 0, 2)) / (m - 1.0)
    return WeylSchouten(w4, w3, ric - ric.T)


def direct_rc_curvature(fam, u, alpha: int):
    """Curvature via the intrinsic formula applied to the sub-connection field,
    against which the Gauss-equation curvature is checked."""
    name = "g1" if alpha == 1 else "gm1"
    gamma_field = lambda x: getattr(geometry.point_geometry(fam, x), name)
    metric_field = lambda x: geometry.point_geometry(fam, x).g
    return expfam.rc_curvature(gamma_field, metric_field, u)


def curved_skewness(fam, u):
    """Ambient skewness pulled back to the u chart: T_abc = T_ijk B_a^i B_b^j B_c^k."""
    f = geometry.frame_at(fam, u)
    t = expfam.skewness(fam.ambient, fam.theta(u))
    return np.einsum("ijk,ai,bj,ck->abc", t, f.tangent_theta, f.tangent_theta, f.tangent_theta)


def t_akk(fam, u):
    """Ambient skewness contracted once with a tangent and twice with the normal frame."""
    pg = geometry.point_geometry(fam, u)
    f = pg.jet
    t = expfam.skewness(fam.ambient, fam.theta(pg.u))
    return np.einsum(
        "ijk,ai,pj,qk,pq->a", t, f.tangent_theta, f.normal_theta, f.normal_theta, pg.gkk_inv
    )


# frozen headline constants, all re-derivable from the functions above
VMF_R_DAGGER_025 = 0.08298816507359685     # coth(1/4) - 4
VMF_G11 = 0.020747041268399213             # r * r_dagger
VMF_G22 = 0.005186760317099803             # r * r_dagger * sin^2(pi/6)
VMF_NU0 = 2.3094010767585034               # 1/(sin(pi/6) sin(pi/3))
VMF_C = 24.400533244513632
VMF_UBAR0 = (0.16597633014719373, 0.047913239444794246)
HYP_R_DAGGER_01 = 11.0                     # 1 + 1/r exactly
HYP_G11 = 1.1
HYP_G22 = 0.011036715590491717             # 1.1 sinh^2(0.1)
HYP_NU0 = 11.527782803679804               # 1/(sinh(0.1) sin(pi/3))
HYP_C = 0.9132231404958677
