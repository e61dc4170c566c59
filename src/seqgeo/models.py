"""Concrete families: von Mises-Fisher on the sphere and the hyperboloid
model on Minkowski's unit shell, plus Gaussian/Poisson fixtures.

Both directional models are radial exponential families: the potential
depends on the natural parameter only through a (possibly indefinite)
norm, which gives closed-form analytic derivatives up to third order.
The sampler and the batched estimator are implemented for m = 2, the
simulation dimension; all geometry works for any m >= 2. ``MODELS`` maps
the model names the CLI and the experiment configs accept to their classes.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy import special

from .conformal import Gauge
from .errors import (
    ChartError,
    EvaluationDomainError,
    ParameterError,
    UnsupportedShapeError,
)
from .expfam import ExponentialFamily
from .geometry import CurvedFamily, Jet, chart_grid
from .tensorops import as_coords

_DOMAIN_SLACK = 1e-3
# upper end of the bracket searched for the vMF concentration in eta_inverse
_VMF_RHO_BRACKET = 1e6
# a gauge factor below this magnitude counts as singular
_GAUGE_SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# Bessel-ratio mean-resultant functions and their closed-form derivatives


# from here on scipy's ive/kve return NaN; the large-argument expansion is exact to rounding
_BESSEL_ASYMPTOTIC = 2.0 ** 30
# below this coth(rho) - 1/rho cancels; Lambert's continued fraction does not
_VMF2_CANCELLATION = 0.1


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


def vmf_mean_resultant(rho: float, m: int) -> float:
    """I_{(m+1)/2}(rho) / I_{(m-1)/2}(rho); increasing, maps (0,inf) to (0,1)."""
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
    if rho >= _BESSEL_ASYMPTOTIC:
        return _hankel_sum(nu + 1.0, rho, -1.0) / _hankel_sum(nu, rho, -1.0)
    # exponentially scaled values: the scale cancels and nothing overflows
    return float(special.ive(nu + 1.0, rho) / special.ive(nu, rho))


def hyperboloid_mean_resultant(rho: float, m: int) -> float:
    """K_{(m+1)/2}(rho) / K_{(m-1)/2}(rho); decreasing, maps (0,inf) to (inf,1).

    Even m uses the stable upward ratio recurrence from the half-integer
    seed; odd m needs integer-order Bessel values, exponentially scaled so
    that neither underflows, or their large-argument expansion.
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
    if rho >= _BESSEL_ASYMPTOTIC:
        return _hankel_sum(nu + 1.0, rho, 1.0) / _hankel_sum(nu, rho, 1.0)
    return float(special.kve(nu + 1.0, rho) / special.kve(nu, rho))


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


# ---------------------------------------------------------------------------
# radial ambient families


def _radial_family(
    n: int,
    signs: np.ndarray,
    fval: Callable[[float], float],
    fderivs: Callable[[float], tuple[float, float, float]],
    domain: Callable[[np.ndarray], bool],
    eta_inverse: Callable[[np.ndarray], np.ndarray],
    name: str,
) -> ExponentialFamily:
    smat = np.diag(signs)

    def rho_of(t: np.ndarray) -> float:
        q = float(np.dot(signs, t * t))
        if q <= 0:
            raise EvaluationDomainError(f"{name}: natural parameter outside the radial domain")
        return math.sqrt(q)

    def psi(t):
        return fval(rho_of(t))

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

    return ExponentialFamily(
        n=n, psi=psi, grad=grad, hess=hess, third=third,
        domain=domain, eta_inverse=eta_inverse, name=name,
    )


def vmf_family(m: int) -> ExponentialFamily:
    """Ambient family of the von Mises-Fisher model on the m-sphere."""
    n = m + 1
    signs = np.ones(n)
    const = 0.5 * (m + 1) * math.log(2.0 * math.pi)

    if m == 2:
        def fval(rho):
            if rho > 350.0:  # sinh overflows; asymptotic log form
                return math.log(4.0 * math.pi) + rho - math.log(2.0 * rho)
            return math.log(4.0 * math.pi) + math.log(math.sinh(rho) / rho)
    else:
        nu = 0.5 * (m - 1)

        def fval(rho):
            # log I_nu(rho) = log ive(nu, rho) + rho, finite where iv overflows
            log_iv = math.log(float(special.ive(nu, rho))) + rho
            return const + 0.5 * (1 - m) * math.log(rho) + log_iv

    fder = lambda rho: _vmf_dag_derivs(rho, m)

    def eta_inverse(eta):
        nrm = float(np.linalg.norm(eta))
        if not 0.0 < nrm < 1.0:
            raise EvaluationDomainError("mean vector must have norm in (0, 1)")
        from scipy.optimize import brentq

        hi = 1.0
        while vmf_mean_resultant(hi, m) < nrm and hi < _VMF_RHO_BRACKET:
            hi *= 2.0
        rho = brentq(lambda x: vmf_mean_resultant(x, m) - nrm, 1e-12, hi, xtol=1e-15, rtol=1e-15)
        return (rho / nrm) * eta

    return _radial_family(
        n, signs, fval, fder,
        domain=lambda t: float(np.dot(t, t)) > 1e-16,
        eta_inverse=eta_inverse,
        name=f"vmf-ambient(m={m})",
    )


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
            # log K_nu(rho) = log kve(nu, rho) - rho, finite where kv underflows
            log_kv = math.log(float(special.kve(nu, rho))) - rho
            return const + 0.5 * (1 - m) * math.log(rho) + log_kv

    def fder(rho):
        d, d1, d2 = _hyp_dag_derivs(rho, m)
        return -d, -d1, -d2  # potential decreases in the radial direction

    def domain(t):
        q = float(np.dot(signs, t * t))
        return q > 0 and t[0] < 0

    def eta_inverse(eta):
        q = float(np.dot(signs, eta * eta))
        if q <= 0 or eta[0] <= 0:
            raise EvaluationDomainError("mean vector must be future timelike")
        nrm = math.sqrt(q)
        if nrm <= 1.0:
            raise EvaluationDomainError("mean vector norm must exceed 1")
        if m == 2:
            rho = 1.0 / (nrm - 1.0)
        else:
            from scipy.optimize import brentq

            lo = 1e-12
            hi = 2.0 / (nrm - 1.0) + 10.0
            rho = brentq(
                lambda x: hyperboloid_mean_resultant(x, m) - nrm, lo, hi, xtol=1e-15, rtol=1e-15
            )
        xi = eta / nrm
        return -rho * (signs * xi)

    return _radial_family(n, signs, fval, fder, domain, eta_inverse, f"hyperboloid-ambient(m={m})")


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


def _xi_jet(us: np.ndarray, kinds: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi and its first and second derivatives at ``us`` (..., m): shapes (..., m+1),
    (..., m, m+1) and (..., m, m, m+1).

    xi_i is a product of one factor per axis a <= min(i, m-1): s_a for a < i
    and c_a for a = i, so xi_i = s_0 ... s_{i-1} c_i and xi_m = s_0 ... s_{m-1}.
    A factor is the triple (f, f', f'') with s' = c, c' = sigma s and
    f'' = sigma f, where sigma is -1 on a circular axis and +1 on the
    hyperbolic one. Every entry multiplies its factors in axis order, so a
    row has the bits of its own point's jet; derivatives in an axis outside
    the product are exactly zero.
    """
    m = us.shape[-1]
    lead = us.shape[:-1]
    s, c = _axis_sc(us, kinds)
    hyp = np.array(kinds) == "hyp"
    ss, sc = np.where(hyp, s, -s), np.where(hyp, c, -c)
    # per point and axis: (f, f', f'') of s_a, then of c_a; then a 1.0 and a 0.0
    slots = np.concatenate([np.stack([s, c, ss, c, ss, sc], axis=-1).reshape(lead + (6 * m,)),
                            np.broadcast_to([1.0, 0.0], lead + (2,))], axis=-1)
    factors = np.take(slots, _jet_slots(m), axis=-1)  # C-contiguous: rows keep their bits
    val = factors[..., 0, :]
    for a in range(1, m):
        val = val * factors[..., a, :]
    k = m + 1
    return (val[..., :k], val[..., k: k + m * k].reshape(lead + (m, k)),
            val[..., k + m * k:].reshape(lead + (m, m, k)))


@functools.lru_cache(maxsize=None)
def _jet_slots(m: int) -> np.ndarray:
    """Per axis, the slot of its factor in every entry of (xi, dxi, ddxi), flattened.

    Entry (i, b, c) is xi_i differentiated in the axes b and c (-1: none).
    An axis outside the product reads the 1.0 slot; an entry differentiated
    in such an axis reads 0.0 on axis 0 and 1.0 after, so it is +0.0.
    """
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
    return idx


# ---------------------------------------------------------------------------
# the two directional models


class _DirectionalModel:
    """Shared machinery; subclasses fix the factor kinds and sign structure."""

    curvature_sign: float  # sign of the constant curvature lambda = sign / (r r_dagger)
    mean_resultant: Callable[[float, int], float]  # r -> r_dagger at dimension m
    kinds: list[str]
    m: int
    r: float
    r_dagger: float
    family: ExponentialFamily
    _lam: np.ndarray  # theta = r * lam * xi, componentwise signs

    def __init__(self, m: int, r: float):
        if m < 2:
            raise ParameterError("directional models need m >= 2")
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
        """Natural and mean parameter of the chart point."""
        ua = as_coords(u)
        self._check_chart(ua)
        xi = _xi_jet(ua, self.kinds)[0]
        return self.r * self._lam * xi, self.r_dagger * xi

    def _require_m2(self) -> None:
        if self.m != 2:
            raise UnsupportedShapeError("sampler and estimator are implemented for m = 2")

    def _check_chart(self, u: np.ndarray) -> None:
        if u.shape[0] != self.m:
            raise ChartError(f"chart point must have dimension {self.m}")
        lo = 0.0 if self.kinds[0] == "circ" else -math.inf
        if not (lo - _DOMAIN_SLACK <= u[0] <= (math.pi if self.kinds[0] == "circ" else math.inf) + _DOMAIN_SLACK):
            raise ChartError(f"first chart coordinate {u[0]!r} out of range")
        for a in range(1, self.m - 1):
            if not -_DOMAIN_SLACK <= u[a] <= math.pi + _DOMAIN_SLACK:
                raise ChartError(f"chart coordinate {a + 1} out of range: {u[a]!r}")
        if self.m >= 2 and not -_DOMAIN_SLACK <= u[self.m - 1] <= 2.0 * math.pi + _DOMAIN_SLACK:
            raise ChartError(f"azimuthal coordinate out of range: {u[self.m - 1]!r}")

    def _curved(self, normal_theta_sign: float, normal_sign: int) -> CurvedFamily:
        lam = self._lam

        def embed_theta(u):
            self._check_chart(u)
            return self.r * lam * _xi_jet(u, self.kinds)[0]

        def embed_eta(us):
            return self.r_dagger * _xi_jet(us, self.kinds)[0]

        def jet(us):
            xi, dxi, ddxi = _xi_jet(us, self.kinds)
            return Jet(
                self.r * dxi * lam, self.r_dagger * dxi,
                self.r * ddxi * lam, self.r_dagger * ddxi,
                (normal_theta_sign * lam * xi)[..., None, :], xi[..., None, :],
            )

        return CurvedFamily(
            ambient=self.family,
            m=self.m,
            embed_theta=embed_theta,
            embed_eta=embed_eta,
            jet=jet,
            normal_sign=normal_sign,
            name=type(self).__name__,
        )

    def gauge(self) -> Gauge:
        """``nu = 1 / prod_a |s_a|`` over the chart axes, with s = -c / s and ds = diag(1 / s^2)."""
        kinds = self.kinds
        m = self.m

        def nu(us):
            # a row with a factor on the singular set maps to inf; np.sinh here,
            # whose bits the stopping thresholds read
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

    def wrap_deviation(self, dev: np.ndarray) -> np.ndarray:
        """Chart deviation with the azimuthal coordinate wrapped to (-pi, pi]."""
        out = np.array(dev, dtype=float)
        out[..., self.m - 1] = np.mod(out[..., self.m - 1] + math.pi, 2.0 * math.pi) - math.pi
        return out

    def probe_grid(self, count: int = 20, margin: float = 1e-2, seed: int = 7):
        ranges = []
        for a in range(self.m):
            if self.kinds[a] == "hyp":
                ranges.append((0.05, 1.5))
            else:
                ranges.append((0.0, math.pi))
        return chart_grid(ranges, count, margin=margin, seed=seed)


class VmfModel(_DirectionalModel):
    """von Mises-Fisher family on the unit m-sphere with fixed concentration."""

    curvature_sign = 1.0
    mean_resultant = staticmethod(vmf_mean_resultant)

    def __init__(self, m: int = 2, r: float = 0.25):
        super().__init__(m, r)
        self.kinds = ["circ"] * self.m
        self._lam = np.ones(self.m + 1)
        self.family = vmf_family(self.m)
        self.curved = self._curved(normal_theta_sign=1.0, normal_sign=1)

    def stopping_constant(self) -> float:
        rr = self.r * self.r_dagger
        return -0.5 * (self.m / rr - 1.0 / self.r_dagger**2)

    def support_residual(self, x: np.ndarray) -> float:
        return abs(float(np.linalg.norm(x)) - 1.0)

    def sample_many(self, u, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw unit observations around the chart direction; m = 2 only."""
        self._require_m2()
        xi, e1, e2, floor = self._plan(u)
        uu = rng.random(size)
        w = 1.0 + np.log(uu + (1.0 - uu) * floor) / self.r
        phi = 2.0 * math.pi * rng.random(size)
        st = np.sqrt(np.maximum(1.0 - w * w, 0.0))
        x = (
            w[:, None] * xi[None, :]
            + (st * np.cos(phi))[:, None] * e1[None, :]
            + (st * np.sin(phi))[:, None] * e2[None, :]
        )
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def _build_plan(self, u: np.ndarray) -> tuple:
        xi = self.direction(u)
        return (xi, *_orthonormal_complement(xi), math.exp(-2.0 * self.r))

    def mle_many(self, ts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form estimator from running sums; returns (u, defined).

        A zero sum has no direction and comes back undefined; m = 2 only.
        """
        self._require_m2()
        nrm = np.linalg.norm(sums, axis=1)
        ok = nrm > 1e-300
        safe = np.where(ok, nrm, 1.0)
        xi = sums / safe[:, None]
        u1 = np.arctan2(np.hypot(xi[:, 1], xi[:, 2]), xi[:, 0])
        u2 = np.mod(np.arctan2(xi[:, 2], xi[:, 1]), 2.0 * math.pi)
        return np.stack([u1, u2], axis=1), ok

    def criterion_many(self, ts: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Observed-information statistic along a trajectory (closed form at the MLE)."""
        self._require_m2()
        return np.linalg.norm(sums, axis=1) / self.r_dagger


class HyperboloidModel(_DirectionalModel):
    """Hyperboloid family on the future unit shell of Minkowski space."""

    curvature_sign = -1.0
    mean_resultant = staticmethod(hyperboloid_mean_resultant)

    def __init__(self, m: int = 2, r: float = 0.1):
        super().__init__(m, r)
        self.kinds = ["hyp"] + ["circ"] * (self.m - 1)
        self._lam = np.concatenate(([-1.0], np.ones(self.m)))
        self.family = hyperboloid_family(self.m)
        self.curved = self._curved(normal_theta_sign=-1.0, normal_sign=-1)
        self._signs = np.concatenate(([1.0], -np.ones(self.m)))

    def stopping_constant(self) -> float:
        rr = self.r * self.r_dagger
        return -0.5 * (-self.m / rr - 1.0 / self.r_dagger**2)

    def support_residual(self, x: np.ndarray) -> float:
        q = float(np.dot(self._signs, x * x))
        return abs(q - 1.0) if x[0] > 0 else math.inf

    def sample_many(self, u, rng: np.random.Generator, size: int) -> np.ndarray:
        """Boosted radial draws: the radial cosh is a shifted exponential."""
        self._require_m2()
        (boost,) = self._plan(u)
        e = -np.log1p(-rng.random(size))
        y = 1.0 + e / self.r
        sr = np.sqrt(np.maximum(y * y - 1.0, 0.0))
        phi = 2.0 * math.pi * rng.random(size)
        xloc = np.stack([y, sr * np.cos(phi), sr * np.sin(phi)], axis=1)
        x = xloc @ boost.T
        q = x[:, 0] ** 2 - x[:, 1] ** 2 - x[:, 2] ** 2
        return x / np.sqrt(q)[:, None]

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

    def mle_many(self, ts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form estimator from running sums; returns (u, defined).

        A sum that is not future timelike comes back undefined; m = 2 only.
        """
        self._require_m2()
        q = sums[:, 0] ** 2 - sums[:, 1] ** 2 - sums[:, 2] ** 2
        ok = (q > 0) & (sums[:, 0] > 0)
        safe = np.where(ok, np.sqrt(np.where(q > 0, q, 1.0)), 1.0)
        xi = sums / safe[:, None]
        u1 = np.arcsinh(np.hypot(xi[:, 1], xi[:, 2]))
        u2 = np.mod(np.arctan2(xi[:, 2], xi[:, 1]), 2.0 * math.pi)
        return np.stack([u1, u2], axis=1), ok

    def criterion_many(self, ts: np.ndarray, sums: np.ndarray) -> np.ndarray:
        self._require_m2()
        q = np.maximum(sums[:, 0] ** 2 - sums[:, 1] ** 2 - sums[:, 2] ** 2, 0.0)
        return np.sqrt(q) / self.r_dagger


MODELS = {"vmf": VmfModel, "hyperboloid": HyperboloidModel}


def _orthonormal_complement(xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([0.0, 0.0, 1.0]) if abs(xi[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = a - (a @ xi) * xi
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(xi, e1)
    return e1, e2


# ---------------------------------------------------------------------------
# full-family fixtures and a flat curved fixture


def gaussian_family(n: int) -> ExponentialFamily:
    """Unit-covariance Gaussian mean family; self-dual coordinates."""
    return ExponentialFamily(
        n=n,
        psi=lambda t: 0.5 * float(t @ t),
        grad=lambda t: t.copy(),
        hess=lambda t: np.eye(n),
        third=lambda t: np.zeros((n, n, n)),
        eta_inverse=lambda e: e.copy(),
        name=f"gaussian({n})",
    )


def poisson_family(n: int = 1) -> ExponentialFamily:
    """Independent Poisson coordinates with log-link natural parameters."""

    def third(t):
        out = np.zeros((n, n, n))
        e = np.exp(t)
        for i in range(n):
            out[i, i, i] = e[i]
        return out

    def eta_inverse(e):
        if np.any(e <= 0):
            raise EvaluationDomainError("Poisson mean must be positive")
        return np.log(e)

    return ExponentialFamily(
        n=n,
        psi=lambda t: float(np.sum(np.exp(t))),
        grad=lambda t: np.exp(t),
        hess=lambda t: np.diag(np.exp(t)),
        third=third,
        eta_inverse=eta_inverse,
        name=f"poisson({n})",
    )


class LinearGaussianModel:
    """Flat fixture: an affine submanifold of a Gaussian mean family.

    Zero curvature everywhere, closed-form estimator, criterion equal to
    the sample size; used to pin down degenerate behaviour of the
    sequential machinery.
    """

    def __init__(self, a_matrix):
        a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
        self.a = a
        self.n, self.m = a.shape
        if np.linalg.matrix_rank(a) < self.m:
            raise ParameterError("embedding matrix must have full column rank")
        self.family = gaussian_family(self.n)
        self._pinv = np.linalg.pinv(a)
        flat = np.zeros((self.m, self.m, self.n))
        self.curved = CurvedFamily(
            ambient=self.family,
            m=self.m,
            embed_theta=lambda u: a @ u,
            embed_eta=lambda u: a @ u,
            jet=lambda us: Jet(*(np.broadcast_to(x, us.shape[:-1] + x.shape)
                                 for x in (a.T, a.T, flat, flat))),
            name="linear-gaussian",
        )

    def stopping_constant(self) -> float:
        return 0.0

    def embed(self, u):
        t = self.a @ as_coords(u)
        return t, t.copy()

    def gauge(self) -> Gauge:
        from .conformal import constant_gauge

        return constant_gauge(1.0)

    def sample_many(self, u, rng: np.random.Generator, size: int) -> np.ndarray:
        mean = self.a @ as_coords(u)
        return mean[None, :] + rng.standard_normal((size, self.n))

    def mle_many(self, ts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (sums / ts[:, None]) @ self._pinv.T, np.ones(sums.shape[0], dtype=bool)

    def criterion_many(self, ts: np.ndarray, sums: np.ndarray) -> np.ndarray:
        return ts.astype(float)

    def wrap_deviation(self, dev):
        return np.array(dev, dtype=float)

    def support_residual(self, x):
        return 0.0
