"""Curved exponential families: frames, induced geometry, extrinsic curvature.

A ``CurvedFamily`` wraps an embedding ``u -> theta(u)`` into an ambient
family together with its ``jet``: the tangent frames and embedding Hessians
at a point, in closed form, from one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import expfam, tensorops as tops
from .errors import ChartError, UnsupportedShapeError
from .expfam import ExponentialFamily
from .tensorops import as_coords

EMBED_CONSISTENCY_TOL = 1e-8
# default max-norm residual within which classify accepts a structural flag
CLASSIFY_TOLERANCE = 1e-6


class Jet(NamedTuple):
    """Derivatives of both embeddings at a point of the submanifold, or at each
    row of a stack of points (then every array has the stack's leading axes).

    A family's ``jet`` callback leaves the normals ``None`` unless it knows
    them in closed form; :func:`frame_at` fills them in.
    """

    tangent_theta: np.ndarray  # (m, n)  B_a^i = d_a theta^i
    tangent_eta: np.ndarray    # (m, n)  B_{ai} = d_a eta_i
    hess_theta: np.ndarray     # (m, m, n)  d_a d_b theta^i
    hess_eta: np.ndarray       # (m, m, n)  d_a d_b eta_i
    normal_theta: np.ndarray | None = None  # (n-m, n)  B_kappa^i
    normal_eta: np.ndarray | None = None    # (n-m, n)  B_{kappa i}


@dataclass(frozen=True)
class CurvedFamily:
    """An m-dimensional submanifold of an n-dimensional ambient family."""

    ambient: ExponentialFamily
    m: int
    embed_theta: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], Jet]
    embed_eta: Callable[[np.ndarray], np.ndarray] | None = None
    normal_sign: int = 1
    name: str = ""

    @property
    def n(self) -> int:
        return self.ambient.n

    @property
    def codim(self) -> int:
        return self.ambient.n - self.m

    def theta(self, u) -> np.ndarray:
        return np.asarray(self.embed_theta(as_coords(u)), dtype=float)

    def eta(self, u) -> np.ndarray:
        ua = as_coords(u)
        if self.embed_eta is not None:
            return np.asarray(self.embed_eta(ua), dtype=float)
        return expfam.eta_of_theta(self.ambient, self.theta(ua)).coords


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
    theta0: np.ndarray
    eta0: np.ndarray
    dual_quadric_residual: float
    quadric_identity_residual: float
    constant_curvature: float
    constant_curvature_residual: float
    tolerance: float


def _first(rows: np.ndarray, mask) -> np.ndarray:
    """The first row of ``rows`` (a point or a stack of points) where ``mask`` holds."""
    return rows.reshape(-1, rows.shape[-1])[np.argmax(np.ravel(mask))]


def frame_at(fam: CurvedFamily, u) -> Jet:
    """The jet of ``fam`` at ``u``, a point ``(m,)`` or rows ``(P, m)``, with the normals filled in.

    The natural-parameter normal solves ``B_kappa^i B_{ai} = 0`` and the
    mean-parameter normal solves ``B_{kappa i} B_a^i = 0``; the pair is
    cross-normalized to ``B_kappa^i B_{kappa i} = identity`` with balanced
    Euclidean lengths. The sign follows the family's registered convention.
    """
    ua = as_coords(u)
    lead, rows = ua.shape[:-1], ua.reshape(-1, ua.shape[-1])
    jet = fam.jet(ua)
    deficient = np.linalg.matrix_rank(jet.tangent_theta) < fam.m
    if np.any(deficient):
        raise ChartError(f"embedding Jacobian is rank deficient at u={_first(ua, deficient)!r}")
    if jet.normal_theta is not None and jet.normal_eta is not None:
        return jet
    bts, bes = (x.reshape(-1, fam.m, fam.n) for x in jet[:2])
    pairs = [_normal_pair(fam, row, bt, be) for row, bt, be in zip(rows, bts, bes)]
    nt, ne = (np.reshape([p[i] for p in pairs], lead + (fam.codim, fam.n)) for i in (0, 1))
    return jet._replace(normal_theta=nt, normal_eta=ne)


def _normal_pair(fam: CurvedFamily, u: np.ndarray, bt: np.ndarray, be: np.ndarray):
    """The normal pair ``(B_kappa^i, B_{kappa i})`` at one point, from its tangent frames."""
    nt = np.linalg.svd(be)[2][fam.m:]   # complement of the eta-type tangents
    ne = np.linalg.svd(bt)[2][fam.m:]   # complement of the theta-type tangents
    cross = nt @ ne.T
    if abs(np.linalg.det(cross)) < 1e-12:
        raise ChartError("degenerate normal pairing")
    if fam.codim == 1:
        p = float(cross[0, 0])
        scale = math.sqrt(abs(p))
        nt = nt / scale
        ne = np.copysign(1.0, p) * ne / scale
        theta_u = fam.theta(u)
        orient = float(nt[0] @ theta_u)
        if abs(orient) > 1e-12 * max(1.0, float(np.abs(theta_u).max())):
            flip = orient * fam.normal_sign < 0
        else:
            flip = nt[0, np.argmax(np.abs(nt[0]))] < 0
        if flip:
            nt, ne = -nt, -ne
    else:
        ne = np.linalg.solve(cross, ne)
    return nt, ne


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
        return tops.require_finite(tops.invert_matrix(self.g))

    @cached_property
    def gkk_inv(self) -> np.ndarray:
        """Inverse of the normal-bundle metric B_kappa^i B_{lambda i}."""
        f = self.jet
        return tops.require_finite(tops.invert_matrix(f.normal_theta @ f.normal_eta.swapaxes(-1, -2)))

    @cached_property
    def ht(self) -> np.ndarray:
        """Second derivatives of the natural-parameter embedding, shape (..., m, m, n)."""
        return tops.require_finite(self.jet.hess_theta)

    @cached_property
    def he(self) -> np.ndarray:
        """Second derivatives of the mean-parameter embedding, shape (..., m, m, n)."""
        return tops.require_finite(self.jet.hess_eta)

    @cached_property
    def g1(self) -> np.ndarray:
        """+1 connection of the submanifold chart: G1_abc = (d_a B_b^j) B_cj."""
        return tops.require_finite(np.einsum("...abj,...cj->...abc", self.ht, self.jet.tangent_eta))

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
        h1, hm1, gkk_inv = self.h1, self.hm1, self.gkk_inv
        return tops.require_finite(
            np.einsum("...adk,...bcl,...kl->...abcd", hm1, h1, gkk_inv)
            - np.einsum("...bdk,...acl,...kl->...abcd", hm1, h1, gkk_inv)
        )

    @cached_property
    def rm1(self) -> np.ndarray:
        """-1 curvature from the Gauss equation."""
        h1, hm1, gkk_inv = self.h1, self.hm1, self.gkk_inv
        return tops.require_finite(
            np.einsum("...adk,...bcl,...kl->...abcd", h1, hm1, gkk_inv)
            - np.einsum("...bdk,...acl,...kl->...abcd", h1, hm1, gkk_inv)
        )


def point_geometry(fam: CurvedFamily, u) -> PointGeometry:
    """The geometry bundle of ``fam`` at a point ``(m,)`` or rows ``(P, m)``; takes the jet once."""
    ua = as_coords(u)
    return PointGeometry(fam, ua, frame_at(fam, ua))


def classify(
    fam: CurvedFamily,
    grid: np.ndarray,
    tolerance: float = CLASSIFY_TOLERANCE,
) -> Classification:
    """Fit the structural constants of the family over a probe grid.

    Least-squares fits: epsilon from the ratio of the two extrinsic
    curvatures, (k0, theta0) and (l0, eta0) from affine regression of the
    normal frames on the embedding, and the curvature constant from the
    constant-curvature pattern. Flags require the corresponding max-norm
    residual to stay within ``tolerance``.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if fam.codim != 1:
        raise UnsupportedShapeError("dual-quadric classification needs a hypersurface (n = m + 1)")

    pg = point_geometry(fam, grid)
    h1s, hm1s, gs, r1s = pg.h1, pg.hm1, pg.g, pg.r1
    thetas = [fam.theta(u) for u in grid]
    etas = [fam.eta(u) for u in grid]

    # epsilon: least squares of H^(-1) against H^(1)
    num = sum(float(np.sum(a * b)) for a, b in zip(hm1s, h1s))
    den = sum(float(np.sum(b * b)) for b in h1s)
    eps = num / den if den > 0 else 0.0
    eps_res = max(float(np.abs(a - eps * b).max()) for a, b in zip(hm1s, h1s))

    # umbilicity: H^(1)_abk = H^(1)_k g_ab
    umb_res = 0.0
    for h1, g, ginv in zip(h1s, gs, pg.ginv):
        hk = np.einsum("abk,ab->k", h1, ginv) / fam.m
        umb_res = max(umb_res, float(np.abs(h1 - np.einsum("k,ab->abk", hk, g)).max()))

    # dual quadric: B_kappa = k0 (theta - theta0), eta analogue
    def affine_fit(rows, points):
        n = fam.n
        a_rows, b_rows = [], []
        for vec, pt in zip(rows, points):
            for i in range(n):
                row = np.zeros(1 + n)
                row[0] = pt[i]
                row[1 + i] = -1.0
                a_rows.append(row)
                b_rows.append(vec[i])
        sol, *_ = np.linalg.lstsq(np.array(a_rows), np.array(b_rows), rcond=None)
        k = float(sol[0])
        # the slope is live when it matters at the scale of the fitted data
        live = abs(k) * float(np.abs(points).max()) > 1e-8 * float(np.abs(rows).max())
        base = sol[1:] / k if live else np.zeros(n)
        res = max(
            float(np.abs(vec - k * (pt - base)).max()) for vec, pt in zip(rows, points)
        )
        return k, base, res, live

    k0, theta0, res_k, live_k = affine_fit(pg.jet.normal_theta[:, 0], thetas)
    l0, eta0, res_l, live_l = affine_fit(pg.jet.normal_eta[:, 0], etas)
    dq_res = max(res_k, res_l)

    ident_res = 0.0
    if live_k and live_l:
        target = 1.0 / (k0 * l0)
        ident_res = max(
            abs(float((th - theta0) @ (et - eta0)) - target)
            for th, et in zip(thetas, etas)
        )
    dual_quadric = live_k and live_l and dq_res <= tolerance and ident_res <= tolerance

    # constant curvature: R^(1)_abcd = lam (g_ad g_bc - g_ac g_bd)
    pats = np.einsum("...ad,...bc->...abcd", gs, gs) - np.einsum("...ac,...bd->...abcd", gs, gs)
    num_l = sum(float(np.sum(r * pat)) for r, pat in zip(r1s, pats))
    den_l = sum(float(np.sum(pat * pat)) for pat in pats)
    lam = num_l / den_l if den_l > 0 else 0.0
    cc_res = max(float(np.abs(r - lam * pat).max()) for r, pat in zip(r1s, pats))

    return Classification(
        umbilic=umb_res <= tolerance,
        umbilic_residual=umb_res,
        es_epsilon=eps,
        es_epsilon_residual=eps_res,
        dual_quadric=dual_quadric,
        k0=k0,
        l0=l0,
        theta0=theta0,
        eta0=eta0,
        dual_quadric_residual=dq_res,
        quadric_identity_residual=ident_res,
        constant_curvature=lam,
        constant_curvature_residual=cc_res,
        tolerance=tolerance,
    )


def chart_grid(ranges: list[tuple[float, float]], count: int, margin: float = 1e-2, seed: int = 7) -> np.ndarray:
    """Deterministic quasi-random probe grid inside a box, away from its edges."""
    rng = np.random.default_rng(seed)
    lo = np.array([a + margin for a, _ in ranges])
    hi = np.array([b - margin for _, b in ranges])
    if np.any(hi <= lo):
        raise ChartError("margin exceeds chart range")
    return lo + (hi - lo) * rng.random((count, len(ranges)))
