"""Independent oracle routes used to freeze expected values.

Everything here is deliberately naive (power series, brute-force finite
differences, direct contractions) and never calls back into the code
path it is checking.
"""

import math

import numpy as np

from seqgeo import expfam, geometry


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


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_hessian(f, x, h=5e-4):
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


def fd_field_derivative(field, x, h=1e-6):
    """d_i field(x) stacked along a new leading axis."""
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        rows.append((np.asarray(field(x + e)) - np.asarray(field(x - e))) / (2.0 * h))
    return np.stack(rows, axis=0)


def christoffel_first_kind(metric_field, x, h=1e-6):
    """0.5 (d_a g_bc + d_b g_ac - d_c g_ab) by brute-force differencing."""
    dg = fd_field_derivative(metric_field, x, h)
    return 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0))


def observed_information(model, trajectory, u_hat) -> float:
    """Normalized observed information ``-(1/m) g^{ab} d_a d_b l`` at ``u_hat``.

    The general formula that the closed-form ``criterion_many`` must match.
    The log-likelihood of the trajectory is linear in ``(sum_x, t)``, so the
    value for population data equals ``t`` exactly.
    """
    u = np.asarray(u_hat, dtype=float)
    fam = model.curved
    pg = geometry.point_geometry(fam, u)
    g, ht = pg.g, pg.ht
    delta = trajectory.sum_x - trajectory.t * fam.eta(u)
    hess_l = np.einsum("abi,i->ab", ht, delta) - trajectory.t * g
    return -float(np.einsum("ab,ab->", np.linalg.inv(g), hess_l)) / fam.m


def direct_rc_curvature(fam, u, alpha: int):
    """Curvature via the intrinsic formula applied to the sub-connection field,
    against which the Gauss-equation curvature is checked."""
    name = "g1" if alpha == 1 else "gm1"
    gamma_field = lambda x: getattr(geometry.point_geometry(fam, x), name)
    metric_field = lambda x: geometry.point_geometry(fam, x).g
    return expfam.rc_curvature(gamma_field, metric_field, u)


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
