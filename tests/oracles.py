"""Independent oracle routes used to freeze expected values.

Everything here is deliberately naive (power series, brute-force finite
differences, direct contractions) and never calls back into the code
path it is checking.
"""

import math

import numpy as np
from scipy.optimize import brentq

from seqgeo import geometry, sequential, tensorops as tops
from seqgeo.conformal import FlatnessReport, WeylSchouten, conformal_sub_quantities, quadric_map, ubar_chart_connection
from seqgeo.errors import ChartError
from seqgeo.models import _axis_sc, vmf_mean_resultant


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


def vmf_theta_of_eta(eta) -> np.ndarray:
    """The m = 2 vMF ambient family's natural parameter at the mean parameter
    ``eta``.

    The concentration solves ``vmf_mean_resultant(rho, 2) = |eta|`` by
    ``brentq``; the direction is the mean's.
    """
    e = np.asarray(eta, dtype=float)
    nrm = float(np.linalg.norm(e))
    hi = 1.0
    while vmf_mean_resultant(hi, 2) < nrm:
        hi *= 2.0
    rho = brentq(lambda x: vmf_mean_resultant(x, 2) - nrm, 1e-12, hi, xtol=1e-15, rtol=1e-15)
    return (rho / nrm) * e


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


def svd_normals(theta, bt, be, normal_sign=1):
    """The normal pair ``(B_kappa^i, B_{kappa i})`` at one point from its tangent
    frames: the natural-parameter normal spans the complement of the
    eta-type tangents ``be`` and the mean-parameter normal that of the
    theta-type tangents ``bt``, by SVD, cross-normalized to
    ``B_kappa^i B_{kappa i} = identity``.

    In codimension one both take balanced Euclidean lengths, and the sign
    makes ``B_kappa^i theta^i`` carry ``normal_sign``; where that product
    vanishes, the largest entry of ``B_kappa^i`` is positive.
    """
    m = bt.shape[0]
    nt = np.linalg.svd(be)[2][m:]
    ne = np.linalg.svd(bt)[2][m:]
    cross = nt @ ne.T
    if abs(np.linalg.det(cross)) < 1e-12:
        raise ChartError("degenerate normal pairing")
    if nt.shape[0] > 1:
        return nt, np.linalg.solve(cross, ne)
    p = float(cross[0, 0])
    scale = math.sqrt(abs(p))
    nt = nt / scale
    ne = np.copysign(1.0, p) * ne / scale
    orient = float(nt[0] @ theta)
    if abs(orient) > 1e-12 * max(1.0, float(np.abs(theta).max())):
        flip = orient * normal_sign < 0
    else:
        flip = nt[0, np.argmax(np.abs(nt[0]))] < 0
    return (-nt, -ne) if flip else (nt, ne)


def quadric_centres(pg, k0, l0) -> tuple[np.ndarray, np.ndarray]:
    """The centres ``(theta0, eta0)`` of a dual quadric over the points of its
    bundle ``pg``, refitted at the slopes ``k0`` and ``l0`` from its normals
    ``B_kappa = k0 (theta - theta0)`` and ``B^kappa = l0 (eta - eta0)``: the
    mean over the points, which is the least-squares fit at those slopes."""
    jet = pg.jet
    return ((jet.theta - jet.normal_theta[:, 0] / k0).mean(axis=0),
            (jet.eta - jet.normal_eta[:, 0] / l0).mean(axis=0))


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


def fd_map_hessian(jacobian, x):
    """Second derivatives ``(new, old, old)`` of a flattening map at one point,
    by central differences of its closed-form Jacobian ``jacobian(x)``."""
    x = np.asarray(x, dtype=float)
    jac = jacobian(x)
    flat = fd_field_derivative(lambda y: jacobian(y).ravel(), x, rel_steps(x, STEP1))
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

    The general formula that the criterion of ``stop_terms`` must match.
    The log-likelihood of ``t`` observations is linear in ``(sum_x, t)``, so
    the value for population data equals ``t`` exactly.
    """
    u = np.asarray(u_hat, dtype=float)
    fam = model.curved
    pg = geometry.point_geometry(fam, u)
    g, ht = pg.g, pg.ht
    delta = np.asarray(sum_x, dtype=float) - t * pg.jet.eta
    hess_l = np.einsum("abi,i->ab", ht, delta) - t * g
    return -float(np.einsum("ab,ab->", np.linalg.inv(g), hess_l)) / fam.m


def closed_form_criterion(model, sums) -> np.ndarray:
    """The criterion at the MLE over rows of sums ``(R, 3)``: ``|S| / r_dagger``, the
    norm Euclidean on the sphere and Minkowski (0 off the timelike cone) on the hyperboloid."""
    if model.kinds[0] == "hyp":
        q = sums[:, 0] ** 2 - sums[:, 1] ** 2 - sums[:, 2] ** 2
        return np.sqrt(np.maximum(q, 0.0)) / model.r_dagger
    return np.linalg.norm(sums, axis=1) / model.r_dagger


def reference_stopping(model, k, u0, rng, c=None, t_min=sequential.T_MIN):
    """One replication of the stopping rule on its own, read in the chart: ``(tau, sum_x, runaway)``.

    The per-replication loop that ``sequential.stop_cell`` runs in lockstep:
    the same burst schedule, but per burst of this replication alone the
    estimator, the closed-form criterion at it and the model's gauge at the
    estimate, where ``stop_cell`` reads the sums. A runaway replication
    returns the cap ``t_max = ceil(T_MAX_FACTOR K nu0)``, read from
    ``sequential`` at the call, and its sum there.
    """
    u0a = np.asarray(u0, dtype=float)
    gauge = model.gauge()
    if c is None:
        c = model.stopping_constant()
    nu0 = gauge.nu_at(u0a)
    t_max = int(math.ceil(sequential.T_MAX_FACTOR * k * nu0))
    burst = min(sequential.ROWS, max(8, int(0.25 * k * nu0)))

    sum_x = np.zeros(model.curved.n)
    t = 0
    while t < t_max:
        take = min(burst, t_max - t)
        xs = model.sample_many(u0a, [rng], take)[0]
        cums = sum_x[None, :] + np.cumsum(xs, axis=0)
        ts = np.arange(t + 1, t + take + 1, dtype=float)
        u_hats, defined = model.mle_many(cums)
        crit = closed_form_criterion(model, cums)
        thresh = k * gauge.nu(u_hats) + c
        eligible = defined & (ts >= t_min) & np.isfinite(thresh)
        hit = eligible & (crit >= thresh)
        if np.any(hit):
            idx = int(np.argmax(hit))
            return int(ts[idx]), cums[idx], False
        sum_x = cums[-1]
        t += take
    return t_max, sum_x, True


def reference_flat_deviations(model, dmat, sums) -> np.ndarray:
    """The flattening coordinates of the MLE of each sum ``(R, 3)`` by the chart path:
    the closed-form estimator, then the flattening map on the bundle at its chart point."""
    pg = geometry.point_geometry(model.curved, model.mle_many(sums)[0])
    return quadric_map(pg, model.gauge(), dmat)[0]


def reference_bias_correct(model, u_hat, effective_n, gauge=None, dmat=None):
    """Second-order bias correction of one estimate, from its own bundle.

    The per-point correction that ``sequential.bias_correct`` computes over a
    cell's rows: the plain connection contraction in the original chart;
    with a gauge the log-gradient terms are added, and with the flattening
    coordinates of ``dmat`` the whole correction is evaluated in the new chart (where it
    vanishes for a dual quadric hypersurface).
    """
    pg = geometry.point_geometry(model.curved, u_hat)
    u = pg.u
    if dmat is not None:
        nu = gauge.nu_at(u)
        pulled, inhom = ubar_chart_connection(pg, gauge, dmat)
        gbar = (pulled + inhom) / nu
        ubar, j, _ = quadric_map(pg, gauge, dmat)
        ginv_ubar = j @ pg.ginv @ j.T
        corr = np.einsum("bcd,da,bc->a", gbar, ginv_ubar, ginv_ubar)
        return ubar + corr / (2.0 * effective_n)
    ginv = pg.ginv
    corr = np.einsum("bcd,da,bc->a", pg.gm1, ginv, ginv)
    if gauge is not None:
        gauge.nu_at(u)
        corr = corr + 2.0 * ginv @ gauge.s(u)
    return u + corr / (2.0 * effective_n)


def flattened_second_order_terms(model, u0, gauge, dmat) -> np.ndarray:
    """``sequential.second_order_terms`` read in the flattening chart ``ubar``.

    ``(1/2) (G')^2ab + (H')^2ab`` with all indices raised, where ``G'`` is the
    flattened connection divided by the gauge and ``H'`` the transformed
    extrinsic curvature, both pushed to the new chart; both factors vanish
    for a dual quadric hypersurface.
    """
    pg = geometry.point_geometry(model.curved, u0)
    u = pg.u
    nu = gauge.nu_at(u)
    pulled, inhom = ubar_chart_connection(pg, gauge, dmat)
    gprime = (pulled + inhom) / nu
    j = quadric_map(pg, gauge, dmat)[1]
    jinv = np.linalg.inv(j)
    ginv_ubar = tops.invert_matrix(jinv.T @ pg.g @ jinv)
    k1 = conformal_sub_quantities(pg, gauge)[1] / nu
    k1_ubar = np.einsum("abk,ap,bq->pqk", k1, jinv, jinv)
    gamma_sq = np.einsum("cda,efb,ce,df->ab", gprime, gprime, ginv_ubar, ginv_ubar)
    h_sq = np.einsum("ack,bdl,cd,kl->ab", k1_ubar, k1_ubar, ginv_ubar, pg.gkk_inv)
    return ginv_ubar @ (0.5 * gamma_sq + h_sq) @ ginv_ubar


def ricci(p):
    """The Ricci tensor ``Ric_ij = R(-1)_lijr g^rl`` of one point's chart bundle ``p``."""
    return np.einsum("lijl->ij", np.einsum("ijkr,rl->ijkl", p.rm1, tops.invert_matrix(p.g)))


def fd_ricci_derivative(chart, at, step=None):
    """``d_i Ric_jk`` at one point by central differences of the Ricci tensor of
    ``chart``, a function of one point to a bundle with ``g`` and ``rm1``; the
    step is ``step`` on every axis, or ``STEP1 max(1, |x_i|)``."""
    x = np.array(at, dtype=float)
    h = rel_steps(x, STEP1) if step is None else np.full(x.shape[0], float(step))
    return fd_field_derivative(lambda y: ricci(chart(y)), x, h)


def reference_weyl_schouten(chart, at, step=None):
    """The Weyl-Schouten set at one point, with the Ricci derivative taken by
    :func:`fd_ricci_derivative`, from one bundle at the point and one at each
    of its 2m stencil points.

    The finite-difference route that ``conformal.weyl_schouten`` replaces by
    the bundle's closed-form ``dric``: its w4 and w2 have the same bits, and
    its w3 differs by the stencil's error.
    """
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

    gm1_mixed = np.einsum("ijr,rl->ijl", p.gm1, ginv)
    nabla = (
        fd_ricci_derivative(chart, x, step)
        - np.einsum("ijl,lk->ijk", gm1_mixed, ric)
        - np.einsum("ikl,jl->ijk", gm1_mixed, ric)
    )
    w3 = (nabla - nabla.transpose(1, 0, 2)) / (m - 1.0)
    return WeylSchouten(w4, w3, ric - ric.T)


def max_residuals(ws):
    """The max-norm of each Weyl-Schouten field, over every point it holds."""
    return {k: float(np.abs(getattr(ws, k)).max()) for k in ("w4", "w3", "w2")}


def reference_flatness(chart, grid, evaluate, tolerance=1e-4):
    """The flatness verdict from a loop over the probe points, one
    ``evaluate(chart, x)`` each, a Weyl-Schouten set at one point; a later
    point becomes the worst only when its residual is strictly larger."""
    dim = grid.shape[1]
    worst, worst_point = -1.0, grid[0]
    per = {"w4": 0.0, "w3": 0.0, "w2": 0.0}
    for x in grid:
        res = max_residuals(evaluate(chart, x))
        per = {k: max(per[k], res[k]) for k in per}
        crit = res["w4"] if dim >= 3 else max(res["w3"], res["w2"])
        if crit > worst:
            worst, worst_point = crit, x
    return FlatnessReport(worst <= tolerance, np.array(worst_point), per)


def xi_jet_order2(us, kinds):
    """xi and its first and second derivatives at ``us`` (..., m), by the jet
    that stops at order two: shapes (..., m+1), (..., m, m+1) and (..., m, m, m+1).

    A factor is the triple (f, f', f'') of s_a or c_a; every entry multiplies
    its factors in axis order. ``models._xi_jet`` must give these entries
    the same bits.
    """
    m = us.shape[-1]
    lead = us.shape[:-1]
    s, c = _axis_sc(us, kinds)
    hyp = np.array(kinds) == "hyp"
    ss, sc = np.where(hyp, s, -s), np.where(hyp, c, -c)
    slots = np.concatenate([np.stack([s, c, ss, c, ss, sc], axis=-1).reshape(lead + (6 * m,)),
                            np.broadcast_to([1.0, 0.0], lead + (2,))], axis=-1)
    pairs = [(-1, -1)] + [(b, -1) for b in range(m)] + [(b, c) for b in range(m) for c in range(m)]
    entries = [(i, b, c) for b, c in pairs for i in range(m + 1)]
    idx = np.full((m, len(entries)), 6 * m)
    for e, (i, b, c) in enumerate(entries):
        n = min(i + 1, m)
        if b >= n or c >= n:
            idx[0, e] = 6 * m + 1
            continue
        for a in range(n):
            idx[a, e] = 6 * a + 3 * (a == i) + (a == b) + (a == c)
    factors = np.take(slots, idx, axis=-1)
    val = factors[..., 0, :]
    for a in range(1, m):
        val = val * factors[..., a, :]
    k = m + 1
    return (val[..., :k], val[..., k: k + m * k].reshape(lead + (m, k)),
            val[..., k + m * k:].reshape(lead + (m, m, k)))


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


def uniform_pairs(rngs, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two ``(len(rngs), size)`` uniform arrays: row ``i`` holds ``rngs[i]``'s
    first and then its second ``random(size)`` draw."""
    out = np.empty((2, len(rngs), size))
    for i, rng in enumerate(rngs):
        rng.random(out=out[0, i])
        rng.random(out=out[1, i])
    return out[0], out[1]


def sample_many(model, u, rngs, size: int) -> np.ndarray:
    """Either directional model's draws ``(len(rngs), size, 3)`` by the plain
    out-of-place transform, which ``model.sample_many`` must match bit for bit."""
    uu, phi = uniform_pairs(rngs, size)
    if model.kinds[0] == "hyp":
        (boost,) = model._plan(u)
        e = -np.log1p(-uu)
        y = 1.0 + e / model.r
        sr = np.sqrt(np.maximum(y * y - 1.0, 0.0))
        phi *= 2.0 * math.pi
        xloc = np.stack([y, sr * np.cos(phi), sr * np.sin(phi)], axis=-1)
        x = xloc @ boost.T
        q = x[..., 0] ** 2 - x[..., 1] ** 2 - x[..., 2] ** 2
        x /= np.sqrt(q)[..., None]
        return x
    xi, e1, e2 = model._plan(u)
    w = 1.0 + np.log(uu + (1.0 - uu) * math.exp(-2.0 * model.r)) / model.r
    phi *= 2.0 * math.pi
    st = np.sqrt(np.maximum(1.0 - w * w, 0.0))
    a, b = st * np.cos(phi), st * np.sin(phi)
    x = np.empty(w.shape + (3,))
    for j in range(3):
        x[..., j] = w * xi[j] + a * e1[j] + b * e2[j]
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    return x


def batch_se(per_rep: np.ndarray) -> float:
    """Standard error of a 1-d sample by replication batching, one batch at a time."""
    nb = min(10, per_rep.shape[0])
    means = np.array([b.mean(axis=0) for b in np.array_split(per_rep, nb)], dtype=float)
    if nb < 2:
        return float("inf")
    return float(means.std(ddof=1) / math.sqrt(nb))


def batch_se_product(taus: np.ndarray, outers: np.ndarray) -> float:
    """Batched standard error of E(tau) * E(outers) over 1-d samples, one batch at a time."""
    nb = min(10, taus.shape[0])
    idx = np.array_split(np.arange(taus.shape[0]), nb)
    vals = np.array([taus[i].mean() * outers[i].mean() for i in idx])
    if nb < 2:
        return float("inf")
    return float(vals.std(ddof=1) / math.sqrt(nb))
