"""Concrete families: von Mises-Fisher on the sphere and the hyperboloid
model on Minkowski's unit shell.

Both directional models are curved exponential families in a radial
ambient family, whose potential depends on the natural parameter only
through a (possibly indefinite) norm. The ambient family is never built:
a model's ``curved`` family is one closed-form jet, ``theta = r lam xi`` and
``eta = r_dagger xi``, ``xi`` the unit direction of the chart point, with
their derivatives and normals. ``embed`` checks that a point lies in the
chart and reads both values from that jet.
A model states four things: its curvature sign (+1 sphere, -1 shell), its mean
resultant, its sampler's radial draw and frame map, and its norm. From the sign
the base derives the chart axes, ``lam``, the normals and the stopping constant,
and it runs ``sample_many(u, rngs, size) -> (len(rngs), size, n)``: a radial
draw by inversion (Wood 1994; Jensen 1981) and a uniform azimuth, mapped to the
frame at ``u`` and divided by the norm. Row ``i`` takes ``rngs[i]``'s draws in
one call, in the order its replication alone would, all rows in place at once,
so a row does not depend on its batch; the vMF returns a view of three planes,
so a caller adds its draws by ``cumsum``, not ``sum``.
The stopping rule reads the running sums alone, through ``stop_terms``. The
sampler, the batched estimator and ``stop_terms`` are implemented for m = 2,
the simulation dimension; all geometry works for any m >= 2. ``MODELS`` maps
the model names the CLI and the experiment configs accept to their classes.
Every Bessel ratio is computed here, with numpy and math alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .conformal import Gauge
from .errors import (
    ChartError,
    ParameterError,
    UnsupportedShapeError,
)
from .geometry import CurvedFamily, Jet, chart_grid
from .tensorops import as_coords

_DOMAIN_SLACK = 1e-3
# the largest m of a directional model: its jet and the bundle fields grow as m^4
# per point, and _jet_slots' table as about m^5. Traced (tracemalloc) at two probe
# points, a geometry report takes 0.08 s and 1.3 MB at m = 8, 0.17 s and 2.9 MB at
# m = 10, and 0.38 s and 6.1 MB at m = 12; nothing above m = 12 was measured
M_MAX = 12
# a gauge factor below this magnitude counts as singular
_GAUGE_SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# Bessel-ratio mean-resultant functions and their closed-form derivatives


# the odd-m hyperboloid ratio exceeds e^asinh(nu / rho): past this exponent it is not a float
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# the vmf ratio for m >= 3 takes the large-argument expansion from max(this, nu^2) on,
# where its terms fall from the first and the e^(-2 rho) it leaves out is below rounding
_VMF_HANKEL = 40.0
# below this coth(rho) - 1/rho cancels; Lambert's continued fraction does not
_VMF2_CANCELLATION = 0.1


def _hankel_sum(nu: float, rho: float) -> float:
    """``sum_k (-1)^k a_k(nu) / rho^k``, the large-argument expansion of
    ``I_nu`` without its exponential and ``rho^(-1/2)`` factors; it terminates
    for half-integer ``nu``."""
    mu = 4.0 * nu * nu
    term = total = 1.0
    k = 0
    while abs(term) > 1e-17 * abs(total):
        k += 1
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * rho)
        total += term
    return total


def _iv_ratio_fraction(nu: float, rho: float) -> float:
    """I_{nu+1}(rho) / I_nu(rho) by the Gauss continued fraction
    1 / (2(nu+1)/rho + 1 / (2(nu+2)/rho + ...)), evaluated backwards from
    depth floor(rho) + 60; every partial denominator is positive."""
    tail = 0.0
    for k in range(int(rho) + 60, 0, -1):
        tail = 1.0 / (2.0 * (nu + k) / rho + tail)
    return tail


def vmf_mean_resultant(rho: float, m: int) -> float:
    """I_{(m+1)/2}(rho) / I_{(m-1)/2}(rho); increasing, maps (0,inf) to (0,1).

    m = 2 is coth(rho) - 1/rho, or Lambert's continued fraction below
    ``_VMF2_CANCELLATION``; m >= 3 is the Gauss continued fraction, or the
    large-argument expansion from ``max(_VMF_HANKEL, nu^2)`` on.
    """
    if rho <= 0:
        raise ParameterError("concentration must be positive")
    if m == 2:
        if rho < _VMF2_CANCELLATION:
            # coth(rho) - 1/rho = rho / (3 + rho^2 / (5 + rho^2 / (7 + ...)))
            tail = 0.0
            for k in range(21, 3, -2):
                tail = rho * rho / (k + tail)
            return rho / (3.0 + tail)
        return 1.0 / math.tanh(rho) - 1.0 / rho
    nu = 0.5 * (m - 1)
    if rho < max(_VMF_HANKEL, nu * nu):
        return _iv_ratio_fraction(nu, rho)
    return _hankel_sum(nu + 1.0, rho) / _hankel_sum(nu, rho)


def hyperboloid_mean_resultant(rho: float, m: int) -> float:
    """K_{(m+1)/2}(rho) / K_{(m-1)/2}(rho); decreasing, maps (0,inf) to (inf,1).

    Even m uses the stable upward ratio recurrence from the half-integer
    seed. Odd m is a ratio of trapezoid sums, for the orders a = nu + 1 and nu
    on shared nodes, of K_a(rho) e^rho = int_0^inf exp(-rho (cosh t - 1))
    cosh(a t) dt (DLMF 10.32.9), which converge exponentially in the step
    (Trefethen and Weideman, SIAM Review 56, 2014). The step,
    0.1 / max(1, sqrt(rho), nu) rounded down to a power of two, makes every
    node difference exact; the nodes cover the span where the integrand is
    within e^745 of its peak, and each weight's exponent is taken relative to
    the last node t_c at or before the peak asinh(nu / rho), so that no weight
    overflows or loses digits. The first weight is halved: at t = 0 that is
    the trapezoid rule, and at a later first node the weight is negligible.
    """
    if rho <= 0:
        raise ParameterError("concentration must be positive")
    if m % 2 == 0:
        ratio = 1.0 + 1.0 / rho  # K_{3/2} / K_{1/2}
        nu = 1.5
        while nu <= 0.5 * (m - 1):
            ratio = 1.0 / ratio + 2.0 * nu / rho
            nu += 1.0
        return ratio
    nu = 0.5 * (m - 1)
    peak = math.asinh(nu / rho)
    if peak > _LOG_FLOAT_MAX:
        return math.inf
    h = math.ldexp(0.5, math.frexp(0.1 / max(1.0, math.sqrt(rho), nu))[1])
    tc = math.floor(peak / h) * h
    # the order-(nu + 1) integrand falls by rho cosh t* (cosh s - 1) + (nu + 1)(sinh s - s)
    # at s past its peak t*; the nodes run until the first term alone reaches 745. The
    # order-nu integrand falls by at least nu (s - 1) at s before its peak, so the
    # nodes start at t = 0 or where that bound reaches 745
    t_end = math.asinh((nu + 1.0) / rho) + 2.0 * math.asinh(math.sqrt(372.5 / math.hypot(nu + 1.0, rho)))
    t = h * np.arange(int(max(0.0, peak - 1.0 - 745.0 / nu) / h), int(t_end / h) + 1)
    d = t - tc
    # -rho (cosh t - cosh tc) = -2 rho sinh((t + tc) / 2) sinh(d / 2), where
    # 2 sinh((t + tc) / 2) = e^tc (expm1(d / 2) - expm1(-2 tc - d / 2)) and
    # rho e^tc is about 2 nu at small rho: no factor overflows
    sinh_sum = np.expm1(0.5 * d) - np.expm1(-2.0 * tc - 0.5 * d)
    base = -(rho * math.exp(tc)) * sinh_sum * np.sinh(0.5 * d)

    def trapezoid(a: float) -> float:
        # 2 K_a(rho) e^(rho cosh tc - a tc) / h
        f = np.exp(base + a * d) * (1.0 + np.exp(-2.0 * a * t))
        f[0] *= 0.5
        return float(f.sum())

    return math.exp(tc) * (trapezoid(nu + 1.0) / trapezoid(nu))


# ---------------------------------------------------------------------------
# angular charts (spherical / hyperbolic-polar coordinates)


def _axis_sc(us: np.ndarray, kinds: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per chart axis the pair (s, c) at ``us`` (..., m): (sinh, cosh) on the
    hyperbolic axis, else (sin, cos).

    The hyperbolic axis applies math.sinh/cosh element by element, since
    numpy's differ from them in the last bit; np.sin/np.cos match math here.
    """
    s, c = np.sin(us), np.cos(us)
    for a in np.flatnonzero(np.array(kinds) == "hyp"):
        x = us[..., a].ravel().tolist()
        s[..., a] = np.reshape([math.sinh(v) for v in x], us.shape[:-1])
        c[..., a] = np.reshape([math.cosh(v) for v in x], us.shape[:-1])
    return s, c


def _xi_jet(us: np.ndarray, kinds: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """xi and its first, second and third derivatives at ``us`` (..., m): shapes
    (..., m+1), (..., m, m+1), (..., m, m, m+1) and (..., m, m, m, m+1).

    xi_i is a product of one factor per axis a <= min(i, m-1): s_a for a < i
    and c_a for a = i, so xi_i = s_0 ... s_{i-1} c_i and xi_m = s_0 ... s_{m-1}.
    A factor is the tuple (f, f', f'', f''') with s' = c, c' = sigma s,
    f'' = sigma f and f''' = sigma f', where sigma is -1 on a circular axis
    and +1 on the hyperbolic one. Every entry multiplies its factors in axis
    order, so a row has the bits of its own point's jet; derivatives in an
    axis outside the product are exactly zero.
    """
    m = us.shape[-1]
    lead = us.shape[:-1]
    s, c = _axis_sc(us, kinds)
    hyp = np.array(kinds) == "hyp"
    ss, sc = np.where(hyp, s, -s), np.where(hyp, c, -c)
    # per point and axis: (f, f', f'', f''') of s_a, then of c_a; then a 1.0 and a 0.0
    slots = np.concatenate([np.stack([s, c, ss, sc, c, ss, sc, s], axis=-1).reshape(lead + (8 * m,)),
                            np.broadcast_to([1.0, 0.0], lead + (2,))], axis=-1)
    idx = _jet_slots(m)
    val = np.take(slots, idx[0], axis=-1)
    for a in range(1, m):
        val *= np.take(slots, idx[a], axis=-1)
    k = m + 1
    ends = [0] + list(itertools.accumulate(k * m ** order for order in range(4)))
    return tuple(val[..., lo:hi].reshape(lead + (m,) * order + (k,))
                 for order, (lo, hi) in enumerate(zip(ends, ends[1:])))


@functools.lru_cache(maxsize=None)
def _jet_slots(m: int) -> np.ndarray:
    """Per axis, the slot of its factor in every entry of (xi, dxi, ddxi, dddxi), flattened.

    Entry (i, axes) is xi_i differentiated once in each of ``axes``. An axis
    outside the product reads the 1.0 slot; an entry differentiated in such
    an axis reads 0.0 on axis 0 and 1.0 after, so it is +0.0.
    """
    entries = [(i, axes) for order in range(4) for axes in itertools.product(range(m), repeat=order)
               for i in range(m + 1)]
    idx = np.full((m, len(entries)), 8 * m)
    for e, (i, axes) in enumerate(entries):
        n = min(i + 1, m)
        if any(b >= n for b in axes):
            idx[0, e] = 8 * m + 1
            continue
        for a in range(n):
            idx[a, e] = 8 * a + 4 * (a == i) + axes.count(a)
    return idx


# ---------------------------------------------------------------------------
# the two directional models


class _DirectionalModel:
    """Everything the two models share; a model states its curvature sign, mean
    resultant, ``_radial``, ``_to_ambient`` (with its ``_build_plan``) and ``_norm``."""

    curvature_sign: float  # sign of the constant curvature lambda = sign / (r r_dagger)
    mean_resultant: Callable[[float, int], float]  # r -> r_dagger at dimension m
    _norm: Callable[[np.ndarray], np.ndarray]  # sums -> norm

    def __init__(self, m: int, r: float):
        if not 2 <= m <= M_MAX:
            raise ParameterError(f"directional models need 2 <= m <= {M_MAX}, got m = {m}")
        if not 0.0 < r < math.inf:
            raise ParameterError(f"concentration r must be positive and finite, got {r!r}")
        self.m = int(m)
        self.r = float(r)
        self.r_dagger = self.mean_resultant(self.r, self.m)
        if not 0.0 < self.r * self.r_dagger < math.inf:
            # the metric, its inverse and the stopping constant scale with r * r_dagger
            raise ParameterError(f"concentration r = {r!r} is out of range: r * r_dagger is "
                                 f"{self.r * self.r_dagger!r}")
        self._plan_cache: tuple[bytes, tuple] | None = None
        # the first chart axis is hyperbolic on the hyperboloid; theta = r * lam * xi
        self.kinds = ["circ" if self.curvature_sign > 0 else "hyp"] + ["circ"] * (self.m - 1)
        self._lam = np.ones(self.m + 1)
        self._lam[0] = self.curvature_sign
        self.curved = CurvedFamily(n=self.m + 1, m=self.m, jet=self._jet)

    def _plan(self, u) -> tuple:
        """The sampler's constants at the chart point ``u``, kept for the last point seen.

        A stopping cell draws every burst of every replication at one truth
        point, so the plan is built once per cell.
        """
        key = np.asarray(u, dtype=float).tobytes()
        if self._plan_cache is None or self._plan_cache[0] != key:
            self._plan_cache = (key, self._build_plan(as_coords(u)))
        return self._plan_cache[1]

    def direction(self, u) -> np.ndarray:
        return _xi_jet(as_coords(u), self.kinds)[0]

    def embed(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Natural and mean parameter of the chart point, which must lie in the chart."""
        ua = as_coords(u)
        self._check_chart(ua)
        jet = self.curved.jet(ua)
        return jet.theta, jet.eta

    def _require_m2(self) -> None:
        if self.m != 2:
            raise UnsupportedShapeError("sampler and estimator are implemented for m = 2")

    def _check_chart(self, u: np.ndarray) -> None:
        if u.shape[0] != self.m:
            raise ChartError(f"chart point must have dimension {self.m}")
        # the radial axis is bounded below too: the estimator returns u1 >= 0
        hi = math.pi if self.kinds[0] == "circ" else math.inf
        if not -_DOMAIN_SLACK <= u[0] <= hi + _DOMAIN_SLACK:
            raise ChartError(f"first chart coordinate {u[0]!r} out of range")
        for a in range(1, self.m - 1):
            if not -_DOMAIN_SLACK <= u[a] <= math.pi + _DOMAIN_SLACK:
                raise ChartError(f"chart coordinate {a + 1} out of range: {u[a]!r}")
        if self.m >= 2 and not -_DOMAIN_SLACK <= u[self.m - 1] <= 2.0 * math.pi + _DOMAIN_SLACK:
            raise ChartError(f"azimuthal coordinate out of range: {u[self.m - 1]!r}")

    def _jet(self, us) -> Jet:
        # every field is a new array, so the buffer that xi and its
        # derivatives view is freed when the jet is built
        lam = self._lam
        xi, dxi, ddxi, dddxi = _xi_jet(us, self.kinds)
        return Jet(
            self.r * lam * xi, self.r_dagger * xi,
            self.r * dxi * lam, self.r_dagger * dxi,
            self.r * ddxi * lam, self.r_dagger * ddxi,
            dddxi * (self.r * lam), self.r_dagger * dddxi,
            (self.curvature_sign * lam * xi)[..., None, :], xi[..., None, :].copy(),
        )

    def stopping_constant(self) -> float:
        # sign * m is exact, so this has the bits of each model's closed form
        return -0.5 * (self.curvature_sign * self.m / (self.r * self.r_dagger) - 1.0 / self.r_dagger**2)

    def sample_many(self, u, rngs, size: int) -> np.ndarray:
        """Unit observations around the chart direction, ``(len(rngs), size, 3)``,
        row ``i`` drawn from ``rngs[i]``; m = 2 only."""
        self._require_m2()
        x = self._to_ambient(self._plan(u), self._local_draws(rngs, size))
        x /= self._norm(x)[..., None]
        return x

    def _local_draws(self, rngs, size: int) -> list[np.ndarray]:
        """``[radial, cos(phi) rho, sin(phi) rho, rho]`` about the mean direction, on four row
        planes, from the first and second uniform of each pair; ``_to_ambient`` owns them."""
        pairs = _uniform_pairs(rngs, size)
        uu, phi = pairs[:, 0], pairs[:, 1]
        radial, rho = self._radial(uu)
        phi *= 2.0 * math.pi
        a = np.cos(phi, out=uu)
        a *= rho
        b = np.sin(phi, out=phi)
        b *= rho
        return [radial, a, b, rho]

    def gauge(self) -> Gauge:
        """``nu = 1 / prod_a |s_a|`` over the chart axes, with s = -c / s and ds = diag(1 / s^2)."""
        kinds = self.kinds
        m = self.m

        def nu(us):
            # a row with a factor on the singular set maps to inf; np.sinh here,
            # whose bits nu0, and so a stopping cell's burst and step cap, read
            prod, singular = 1.0, False
            for a in range(m):
                f = np.abs(np.sinh(us[..., a]) if kinds[a] == "hyp" else np.sin(us[..., a]))
                singular = singular | (f < _GAUGE_SINGULAR_TOL)
                prod = prod * f
            return np.where(singular, np.inf, 1.0 / np.where(singular, 1.0, prod))

        def s(us):
            sa, ca = _axis_sc(us, kinds)
            return -ca / sa

        def ds(us):
            # float_power calls pow per element, as a Python float's ** does;
            # numpy's ** 2 squares, which differs in the last bit on ~0.1 % of inputs
            return np.eye(m) * (1.0 / np.float_power(_axis_sc(us, kinds)[0], 2))[..., None, :]

        return Gauge(nu=nu, s=s, ds=ds)

    def _defined(self, sums: np.ndarray, nrm: np.ndarray) -> np.ndarray:
        """Where the MLE is defined, from sums ``(..., 3)`` and their ``_norm``: a nonzero sum,
        on the hyperboloid a future timelike one (the root of a positive q is positive)."""
        if self.curvature_sign > 0:
            return nrm > 1e-300
        return (nrm > 0) & (sums[..., 0] > 0)

    def mle_many(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form estimator from running sums ``(R, 3)``; returns (u, defined).

        A sum outside ``_defined``'s set comes back undefined; m = 2 only.
        """
        self._require_m2()
        nrm = self._norm(sums)
        ok = self._defined(sums, nrm)
        xi = sums / np.where(ok, nrm, 1.0)[:, None]
        rho = np.hypot(xi[:, 1], xi[:, 2])
        u1 = np.arcsinh(rho) if self.kinds[0] == "hyp" else np.arctan2(rho, xi[:, 0])
        u2 = np.mod(np.arctan2(xi[:, 2], xi[:, 1]), 2.0 * math.pi)
        return np.stack([u1, u2], axis=1), ok

    def stop_terms(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(criterion, nu, defined)`` of the stopping rule at running sums ``(..., n)``, no chart needed.

        At the MLE, of direction ``S / |S|``, the criterion is ``|S| / r_dagger`` and
        the gauge ``nu = 1 / |xi_m| = |S| / |S_m|`` (``inf`` on the singular set
        ``S_m = 0``); ``defined`` is ``mle_many``'s. Both are scale-free, so the
        sums alone give them, without the draw count; m = 2 only. The three
        arrays are new, and the stopping loop overwrites them.
        """
        self._require_m2()
        nrm = self._norm(sums)
        ok = self._defined(sums, nrm)
        sm = np.abs(sums[..., self.m])
        nu = np.divide(nrm, sm, out=np.full_like(nrm, np.inf), where=sm > 0.0)
        nrm /= self.r_dagger
        return nrm, nu, ok

    def wrap_deviation(self, dev: np.ndarray) -> np.ndarray:
        """Chart deviation with the azimuthal coordinate wrapped to (-pi, pi]."""
        out = np.array(dev, dtype=float)
        out[..., self.m - 1] = np.mod(out[..., self.m - 1] + math.pi, 2.0 * math.pi) - math.pi
        return out

    def probe_grid(self, count: int, margin: float, seed: int):
        ranges = [(0.05, 1.5) if kind == "hyp" else (0.0, math.pi) for kind in self.kinds]
        return chart_grid(ranges, count, margin=margin, seed=seed)


class VmfModel(_DirectionalModel):
    """von Mises-Fisher family on the unit m-sphere with fixed concentration."""

    curvature_sign = 1.0
    mean_resultant = staticmethod(vmf_mean_resultant)

    def _radial(self, uu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``w = 1 + log(uu + (1 - uu) e^(-2r)) / r``, Wood's inversion, and ``sqrt(1 - w^2)``."""
        w = np.subtract(1.0, uu)
        w *= math.exp(-2.0 * self.r)
        w += uu
        np.log(w, out=w)
        w /= self.r
        w += 1.0
        st = np.multiply(w, w)
        np.subtract(1.0, st, out=st)
        np.maximum(st, 0.0, out=st)
        return w, np.sqrt(st, out=st)

    def _to_ambient(self, plan: tuple, local: list[np.ndarray]) -> np.ndarray:
        """``w xi + a e1 + b e2`` per coordinate plane, the last local plane as
        scratch: a view of three planes, on at most seven row planes in all."""
        xi, e1, e2 = plan
        w, a, b, tmp = local
        x = np.empty((3,) + w.shape)
        for j in range(3):
            np.multiply(w, xi[j], out=x[j])
            x[j] += np.multiply(a, e1[j], out=tmp)
            x[j] += np.multiply(b, e2[j], out=tmp)
        return x.transpose(1, 2, 0)

    def _build_plan(self, u: np.ndarray) -> tuple:
        xi = self.direction(u)
        return (xi, *_orthonormal_complement(xi))

    def _norm(self, sums: np.ndarray) -> np.ndarray:
        """Euclidean norm of sums ``(..., 3)``."""
        return _euclidean(sums[..., 0], sums[..., 1], sums[..., 2])


class HyperboloidModel(_DirectionalModel):
    """Hyperboloid family on the future unit shell of Minkowski space."""

    curvature_sign = -1.0
    mean_resultant = staticmethod(hyperboloid_mean_resultant)

    def _radial(self, uu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The radial cosh ``y = 1 - log1p(-uu) / r``, a shifted exponential, and ``sqrt(y^2 - 1)``."""
        y = np.negative(uu)
        np.log1p(y, out=y)
        np.negative(y, out=y)
        y /= self.r
        y += 1.0
        sr = np.multiply(y, y)
        sr -= 1.0
        np.maximum(sr, 0.0, out=sr)
        return y, np.sqrt(sr, out=sr)

    def _to_ambient(self, plan: tuple, local: list[np.ndarray]) -> np.ndarray:
        """The boost as one stacked matmul, which makes each row's own BLAS call
        (gemv for one draw, gemm for more), so a row keeps the bits it has when
        drawn alone; one matmul over all rows would take gemm at ``size = 1`` too.
        The local planes are released before it."""
        (boost,) = plan
        xloc = np.stack(local[:3], axis=-1)
        local.clear()
        return xloc @ boost.T

    def _build_plan(self, u: np.ndarray) -> tuple:
        ch, sh = math.cosh(u[0]), math.sinh(u[0])
        n1, n2 = math.cos(u[1]), math.sin(u[1])
        boost = np.array(
            [
                [ch, sh * n1, sh * n2],
                [sh * n1, 1.0 + (ch - 1.0) * n1 * n1, (ch - 1.0) * n1 * n2],
                [sh * n2, (ch - 1.0) * n1 * n2, 1.0 + (ch - 1.0) * n2 * n2],
            ]
        )
        return (boost,)

    def _norm(self, sums: np.ndarray) -> np.ndarray:
        """Minkowski norm of sums ``(..., 3)``, 0 off the timelike cone."""
        q = np.square(sums[..., 0])
        q -= np.square(sums[..., 1])
        q -= np.square(sums[..., 2])
        return np.sqrt(np.maximum(q, 0.0, out=q), out=q)


MODELS = {"vmf": VmfModel, "hyperboloid": HyperboloidModel}


def _uniform_pairs(rngs, size: int) -> np.ndarray:
    """A ``(len(rngs), 2, size)`` array of uniforms: row ``i`` holds ``rngs[i]``'s
    first and then its second ``size`` draws, the order a sampler of that
    replication alone would take them in, from one ``random`` call per row."""
    out = np.empty((len(rngs), 2, size))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


def _euclidean(x0, x1, x2) -> np.ndarray:
    """``sqrt(x0 x0 + x1 x1 + x2 x2)`` over planes, summed left to right as
    ``np.linalg.norm`` sums a length-3 last axis, so it has the same bits."""
    nrm = np.multiply(x0, x0)
    nrm += np.multiply(x1, x1)
    nrm += np.multiply(x2, x2)
    return np.sqrt(nrm, out=nrm)


def _orthonormal_complement(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([0.0, 0.0, 1.0]) if abs(xi[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = a - (a @ xi) * xi
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(xi, e1)
    return e1, e2
