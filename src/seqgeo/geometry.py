"""Curved exponential families: frames, induced geometry, extrinsic curvature.

A ``CurvedFamily`` is an embedding ``u -> (theta(u), eta(u))`` into an
n-dimensional ambient family, given by its ``jet``: the values, tangent
frames, Hessians, third derivatives and normals of both embeddings at a
point, in closed form, from one call. The ambient family itself is never read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import default_rng

from . import tensorops as tops
from .errors import ChartError, EvaluationDomainError, UnsupportedShapeError
from .tensorops import as_coords

# default max-norm residual within which classify accepts a structural flag
CLASSIFY_TOLERANCE = 1e-6


class Jet(NamedTuple):
    """Both embeddings and their derivatives at a point of the submanifold, or
    at each row of a stack of points (then every array has the stack's leading
    axes), all in closed form."""

    theta: np.ndarray          # (n,)  theta^i
    eta: np.ndarray            # (n,)  eta_i
    tangent_theta: np.ndarray  # (m, n)  B_a^i = d_a theta^i
    tangent_eta: np.ndarray    # (m, n)  B_{ai} = d_a eta_i
    hess_theta: np.ndarray     # (m, m, n)  d_a d_b theta^i
    hess_eta: np.ndarray       # (m, m, n)  d_a d_b eta_i
    third_theta: np.ndarray    # (m, m, m, n)  d_a d_b d_c theta^i
    third_eta: np.ndarray      # (m, m, m, n)  d_a d_b d_c eta_i
    normal_theta: np.ndarray   # (n-m, n)  B_kappa^i, with B_kappa^i B_{ai} = 0
    normal_eta: np.ndarray     # (n-m, n)  B_{kappa i}, with B_{kappa i} B_a^i = 0


@dataclass(frozen=True)
class CurvedFamily:
    """An m-dimensional submanifold of an n-dimensional ambient family, given by its jet."""

    n: int
    m: int
    jet: Callable[[np.ndarray], Jet]

    @property
    def codim(self) -> int:
        return self.n - self.m


@dataclass(frozen=True)
class Classification:
    """Structural classification of a curved family over a probe grid."""

    umbilic: bool
    umbilic_residual: float
    es_epsilon: float
    es_epsilon_residual: float
    dual_quadric: bool
    k0: float
    l0: float
    dual_quadric_residual: float
    quadric_identity_residual: float
    constant_curvature: float
    constant_curvature_residual: float
    tolerance: float


def _first(rows: np.ndarray, mask) -> np.ndarray:
    """The first row of ``rows`` (a point or a stack of points) where ``mask`` holds."""
    return rows.reshape(-1, rows.shape[-1])[np.argmax(np.ravel(mask))]


def frame_at(fam: CurvedFamily, u) -> Jet:
    """The jet of ``fam`` at ``u``, a point ``(m,)`` or rows ``(P, m)``, once its tangent frame has full rank."""
    ua = as_coords(u)
    jet = fam.jet(ua)
    deficient = np.linalg.matrix_rank(jet.tangent_theta) < fam.m
    if np.any(deficient):
        raise ChartError(f"embedding Jacobian is rank deficient at u={_first(ua, deficient)!r}")
    return jet


@dataclass(frozen=True, eq=False)
class PointGeometry:
    """Second-order geometry of a curved family at a point, or at each row of a stack, from one jet.

    Each field is a plain array with the leading shape of ``u``, computed on
    first read from the jet, checked finite, and shared by later reads;
    callers must not modify it in place. Build it with :func:`point_geometry`.
    """

    fam: CurvedFamily
    u: np.ndarray
    jet: Jet

    @cached_property
    def g(self) -> np.ndarray:
        """Pullback of the ambient Fisher metric: g_ab = B_a^i B_b^j g_ij."""
        vals = self.jet.tangent_theta @ self.jet.tangent_eta.swapaxes(-1, -2)
        vals = tops.require_finite(0.5 * (vals + vals.swapaxes(-1, -2)))
        indefinite = np.linalg.eigvalsh(vals).min(axis=-1) <= 0
        if np.any(indefinite):
            raise ChartError(f"induced metric not positive definite at u={_first(self.u, indefinite)!r}")
        return vals

    @cached_property
    def ginv(self) -> np.ndarray:
        """Inverse induced metric g^ab."""
        return tops.invert_matrix(self.g, "metric")

    @cached_property
    def gkk_inv(self) -> np.ndarray:
        """Inverse of the normal-bundle metric B_kappa^i B_{lambda i}."""
        f = self.jet
        return tops.invert_matrix(f.normal_theta @ f.normal_eta.swapaxes(-1, -2), "normal metric")

    @cached_property
    def ht(self) -> np.ndarray:
        """Second derivatives of the natural-parameter embedding, shape (..., m, m, n)."""
        return tops.require_finite(self.jet.hess_theta)

    @cached_property
    def he(self) -> np.ndarray:
        """Second derivatives of the mean-parameter embedding, shape (..., m, m, n)."""
        return tops.require_finite(self.jet.hess_eta)

    @cached_property
    def gm1(self) -> np.ndarray:
        """-1 connection of the submanifold chart: G-1_abc = (d_a B_bj) B_c^j."""
        return tops.require_finite(np.einsum("...abj,...cj->...abc", self.he, self.jet.tangent_theta))

    @cached_property
    def h1(self) -> np.ndarray:
        """+1 Euler-Schouten (extrinsic) curvature of the embedding."""
        return tops.require_finite(np.einsum("...abj,...kj->...abk", self.ht, self.jet.normal_eta))

    @cached_property
    def hm1(self) -> np.ndarray:
        """-1 Euler-Schouten (extrinsic) curvature of the embedding."""
        return tops.require_finite(np.einsum("...abj,...kj->...abk", self.he, self.jet.normal_theta))

    @cached_property
    def r1(self) -> np.ndarray:
        """+1 curvature from the Gauss equation.

        The ambient family is flat, so the curvature is the antisymmetrized
        product of the two extrinsic curvature tensors.
        """
        return tops.require_finite(_gauss(self.hm1, self.h1, self.gkk_inv))

    @cached_property
    def rm1(self) -> np.ndarray:
        """-1 curvature from the Gauss equation."""
        return tops.require_finite(_gauss(self.h1, self.hm1, self.gkk_inv))

    @cached_property
    def dric(self) -> np.ndarray:
        """Derivative of the -1 Ricci tensor Ric_bc = R(-1)_abcd g^da, shape (..., m, m, m): d_e Ric_bc at (e, b, c).

        :func:`_ricci` is multilinear in g^-1, H(1), H(-1) and the inverse
        normal metric, so its derivative is a sum of four terms, each with
        one factor differentiated. Ric does not change when the normals are
        recombined, so their derivatives are taken in the normal frame whose
        derivatives are tangent, where the normal metric is constant:
        d_e B_kappa^i = -H(-1)_eck g^cd B_d^i and d_e B_{kappa i} = -H(1)_eck g^cd B_{di}.
        Then d_e H(1)_abk = (d_e d_a d_b theta^j) B_kj - G1_abd g^dc H(1)_eck,
        the same for H(-1) with eta and G-1, and d_e g_ab = G1_eab + G-1_eba,
        where G1_abc = (d_a B_b^j) B_cj is the +1 connection.
        """
        f, ginv, gm1, h1, hm1 = self.jet, self.ginv, self.gm1, self.h1, self.hm1
        g1 = np.einsum("...abj,...cj->...abc", self.ht, f.tangent_eta)
        dg = g1 + gm1.swapaxes(-1, -2)
        dginv = -0.5 * np.einsum("...ad,...edc,...cb->...eab", ginv, dg + dg.swapaxes(-1, -2), ginv)
        dh1 = (np.einsum("...eabj,...kj->...eabk", f.third_theta, f.normal_eta)
               - np.einsum("...abd,...dc,...eck->...eabk", g1, ginv, h1))
        dhm1 = (np.einsum("...eabj,...kj->...eabk", f.third_eta, f.normal_theta)
                - np.einsum("...abd,...dc,...eck->...eabk", gm1, ginv, hm1))
        # each factor with an axis for e
        ginv, gkk_inv = ginv[..., None, :, :], self.gkk_inv[..., None, :, :]
        h1, hm1 = h1[..., None, :, :, :], hm1[..., None, :, :, :]
        return tops.require_finite(_ricci(dginv, h1, hm1, gkk_inv) + _ricci(ginv, dh1, hm1, gkk_inv)
                                   + _ricci(ginv, h1, dhm1, gkk_inv))


def _gauss(ha, hb, gkk_inv) -> np.ndarray:
    """The Gauss equation of a flat ambient family, R_abcd = ha_adk G_kl hb_bcl - ha_bdk G_kl hb_acl,
    G the inverse normal metric: R(1) at (ha, hb) = (H(-1), H(1)), R(-1) at (H(1), H(-1))."""
    return (np.einsum("...adk,...bcl,...kl->...abcd", ha, hb, gkk_inv)
            - np.einsum("...bdk,...acl,...kl->...abcd", ha, hb, gkk_inv))


def _ricci(ginv, h1, hm1, gkk_inv) -> np.ndarray:
    """The Gauss equation's -1 Ricci tensor Ric_bc = R(-1)_abcd g^da from its four factors:

        Ric_bc = g^ad H(1)_adk G_kl H(-1)_bcl - g^da H(1)_bdk G_kl H(-1)_acl,

    G the inverse normal metric.
    """
    return (np.einsum("...ad,...adk,...kl,...bcl->...bc", ginv, h1, gkk_inv, hm1)
            - np.einsum("...da,...bdk,...kl,...acl->...bc", ginv, h1, gkk_inv, hm1))


def point_geometry(fam: CurvedFamily, u) -> PointGeometry:
    """The geometry bundle of ``fam`` at a point ``(m,)`` or rows ``(P, m)``; takes the jet once."""
    ua = as_coords(u)
    return PointGeometry(fam, ua, frame_at(fam, ua))


def _pow2_scale(values: np.ndarray) -> float:
    """The power of two that brings max |values| into [0.5, 1); 1 for all zeros."""
    return float(np.ldexp(1.0, -int(np.frexp(np.abs(values).max(initial=0.0))[1])))


def classify(pg: PointGeometry, tolerance: float = CLASSIFY_TOLERANCE) -> Classification:
    """Fit the structural constants of the family over a probe grid, from its bundle ``pg`` over rows ``(P, m)``.

    Least-squares fits: epsilon from the ratio of the two extrinsic
    curvatures, both scaled by one power of two over the grid so that the
    fit holds at any concentration, (k0, theta_c) and (l0, eta_c) from affine
    regression of the normal frames on the embedding, and the curvature
    constant from the constant-curvature pattern. Flags require the
    corresponding max-norm residual to stay within ``tolerance``; the
    umbilicity residual is taken relative to max |H(1)| at each point, and
    the quadric identity's relative to its target ``1/(k0 l0)``. The
    curvature constant is fitted with each point's pattern scaled by its own
    magnitude, and its residual is relative to |lambda| times that scale (to
    that scale alone when lambda is 0).
    """
    fam = pg.fam
    if fam.codim != 1:
        raise UnsupportedShapeError("dual-quadric classification needs a hypersurface (n = m + 1)")

    h1s, hm1s, gs, r1s = pg.h1, pg.hm1, pg.g, pg.r1
    thetas, etas = pg.jet.theta, pg.jet.eta
    tensor_axes = (-3, -2, -1)

    # epsilon: least squares of H^(-1) against H^(1). H^(1) grows as r, so both
    # are scaled by the power of two at max |H^(1)| over the grid: the sum of
    # squares stays finite, and the fit and its residual keep their bits. Where
    # |H^(-1) / H^(1)| passes the float range (r below about 1e-154 on the
    # hyperboloid), epsilon is not a float and the fit raises
    scale = _pow2_scale(h1s)
    with np.errstate(over="ignore", invalid="ignore"):
        h1n, hm1n = h1s * scale, hm1s * scale
        den = float(np.sum(h1n * h1n))
        eps = float(np.sum(hm1n * h1n)) / den if den > 0 else 0.0
        eps_res = float(np.abs(hm1n - eps * h1n).max() / scale)
    if not np.isfinite([eps, eps_res]).all():
        raise EvaluationDomainError(f"the Euler-Schouten ratio epsilon of H(-1) to H(1) is not a float "
                                    f"(fit {eps!r}, residual {eps_res!r})")

    # umbilicity: H^(1)_abk = H^(1)_k g_ab, relative to max |H^(1)| at the
    # same point, which grows with the concentration
    hk = np.einsum("...abk,...ab->...k", h1s, pg.ginv) / fam.m
    umb = np.abs(h1s - np.einsum("...k,...ab->...abk", hk, gs)).max(axis=tensor_axes)
    umb_res = float(np.max(umb / np.where(umb > 0.0, np.abs(h1s).max(axis=tensor_axes), 1.0)))

    # dual quadric: B_kappa = k0 (theta - theta_c), eta analogue
    def affine_fit(rows, points):
        # one equation per point and coordinate i: k pt_i - c_i = vec_i, c = k base.
        # The points' column is scaled by the power of two at its maximum, so that
        # lstsq's rank cut does not drop it next to the -1 columns at small r
        n = fam.n
        pscale = _pow2_scale(points)
        a = np.hstack([(points * pscale).reshape(-1, 1),
                       np.tile(np.diag(np.full(n, -1.0)), (len(points), 1))])
        sol, *_ = np.linalg.lstsq(a, rows.reshape(-1), rcond=None)
        k = float(sol[0] * pscale)
        # the slope is live when it matters at the scale of the fitted data
        live = abs(k) * float(np.abs(points).max()) > 1e-8 * float(np.abs(rows).max())
        base = sol[1:] / k if live else np.zeros(n)
        return k, base, float(np.abs(rows - k * (points - base)).max()), live

    k0, theta_c, res_k, live_k = affine_fit(pg.jet.normal_theta[:, 0], thetas)
    l0, eta_c, res_l, live_l = affine_fit(pg.jet.normal_eta[:, 0], etas)
    dq_res = max(res_k, res_l)

    ident_res = 0.0
    if live_k and live_l:
        # relative to the target, which grows with the concentration
        target = 1.0 / (k0 * l0)
        ident = np.einsum("...i,...i->...", thetas - theta_c, etas - eta_c)
        ident_res = float(np.abs(ident - target).max()) / abs(target)
    dual_quadric = live_k and live_l and dq_res <= tolerance and ident_res <= tolerance

    # constant curvature: R^(1)_abcd = lam (g_ad g_bc - g_ac g_bd). The pattern
    # grows as (r r_dagger)^2, so each point's pattern, built from g / max|g|,
    # and its R^(1) are fitted scaled by that pattern's own size, which is
    # positive for a positive-definite g; the residual is relative to |lam|
    gmax = np.abs(gs).max(axis=(-2, -1), keepdims=True)
    gn = gs / gmax
    pats = np.einsum("...ad,...bc->...abcd", gn, gn) - np.einsum("...ac,...bd->...abcd", gn, gn)
    pmax = np.abs(pats).max(axis=(-4, -3, -2, -1), keepdims=True)
    pats = pats / pmax
    r1n = r1s / gmax[..., None, None] / gmax[..., None, None] / pmax
    lam = float(np.sum(r1n * pats) / np.sum(pats * pats))
    cc_res = float(np.abs(r1n - lam * pats).max()) / (abs(lam) or 1.0)

    return Classification(
        umbilic=umb_res <= tolerance,
        umbilic_residual=umb_res,
        es_epsilon=eps,
        es_epsilon_residual=eps_res,
        dual_quadric=dual_quadric,
        k0=k0,
        l0=l0,
        dual_quadric_residual=dq_res,
        quadric_identity_residual=ident_res,
        constant_curvature=lam,
        constant_curvature_residual=cc_res,
        tolerance=tolerance,
    )


def chart_grid(ranges: list[tuple[float, float]], count: int, margin: float, seed: int) -> np.ndarray:
    """Deterministic quasi-random probe grid inside a box, away from its edges."""
    rng = default_rng(seed)
    lo = np.array([a + margin for a, _ in ranges])
    hi = np.array([b - margin for _, b in ranges])
    if np.any(hi <= lo):
        raise ChartError("margin exceeds chart range")
    return lo + (hi - lo) * rng.random((count, len(ranges)))
