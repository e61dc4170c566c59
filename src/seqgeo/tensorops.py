"""Finite-difference differentiation and small dense linear algebra.

Everything here is a pure function of its inputs. ``Point`` is immutable
and safe to share between tasks; every other result is a fresh plain
``ndarray``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EvaluationDomainError,
    NoConvergenceError,
    SingularMetricError,
)

CHARTS = ("theta", "eta", "u", "w", "ubar")

_EPS = float(np.finfo(float).eps)
# Default steps balance truncation against round-off for each order while
# keeping central differences exact (to 1e-8) on polynomials of degree <= order.
STEP_ORDER1 = _EPS ** (1.0 / 3.0)
STEP_ORDER2 = _EPS ** (1.0 / 5.0)
STEP_ORDER3 = _EPS ** (1.0 / 7.0)
STEP_ORDER3_FROM_HESSIAN = _EPS ** (1.0 / 5.0)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Point:
    """A point of a manifold chart: coordinates plus the chart tag."""

    coords: np.ndarray
    chart: str = "theta"

    def __post_init__(self):
        c = _freeze(np.atleast_1d(self.coords))
        if c.ndim != 1:
            raise EvaluationDomainError("point coordinates must be a 1-d array")
        if not np.all(np.isfinite(c)):
            raise EvaluationDomainError("point coordinates must be finite")
        if self.chart not in CHARTS:
            raise EvaluationDomainError(f"unknown chart tag {self.chart!r}")
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def as_coords(x) -> np.ndarray:
    """Coerce a Point or array-like to a plain coordinate array."""
    if isinstance(x, Point):
        return x.coords
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise EvaluationDomainError("coordinates must be finite")
    return np.atleast_1d(a)


def require_finite(values: np.ndarray) -> np.ndarray:
    """Return ``values`` as a float array; raise when a component is not finite."""
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a)):
        raise EvaluationDomainError("tensor components must be finite")
    return a


def _eval(f: Callable, x: np.ndarray) -> float:
    y = f(x)
    y = float(y)
    if not np.isfinite(y):
        raise EvaluationDomainError(f"non-finite field evaluation at {x!r}")
    return y


def _steps(x: np.ndarray, step: float | None, default_rel: float) -> np.ndarray:
    if step is not None:
        if step <= 0:
            raise ValueError("step must be positive")
        return np.full(x.shape, float(step))
    return default_rel * np.maximum(1.0, np.abs(x))


def _gradient(f, x, h):
    d = x.shape[0]
    g = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h[i]
        g[i] = (_eval(f, x + e) - _eval(f, x - e)) / (2.0 * h[i])
    return g


def _hessian(f, x, h):
    d = x.shape[0]
    out = np.empty((d, d))
    f0 = _eval(f, x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        out[i, i] = (_eval(f, x + ei) - 2.0 * f0 + _eval(f, x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            val = (
                _eval(f, x + ei + ej)
                - _eval(f, x + ei - ej)
                - _eval(f, x - ei + ej)
                + _eval(f, x - ei - ej)
            ) / (4.0 * h[i] * h[j])
            out[i, j] = val
            out[j, i] = val
    return 0.5 * (out + out.T)


def _third_direct(f, x, h):
    # Composed central first differences; exact on cubics, O(h^2) otherwise.
    d = x.shape[0]
    out = np.empty((d, d, d))
    signs = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
             (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1))
    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                acc = 0.0
                for si, sj, sk in signs:
                    y = x.copy()
                    y[i] += si * h[i]
                    y[j] += sj * h[j]
                    y[k] += sk * h[k]
                    acc += si * sj * sk * _eval(f, y)
                val = acc / (8.0 * h[i] * h[j] * h[k])
                for p in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                    out[p] = val
    return out


def _third_from_hessian(hessian, x, h):
    d = x.shape[0]
    out = np.empty((d, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h[k]
        gp = np.asarray(hessian(x + e), dtype=float)
        gm = np.asarray(hessian(x - e), dtype=float)
        if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
            raise EvaluationDomainError("non-finite Hessian evaluation on stencil")
        out[k] = (gp - gm) / (2.0 * h[k])
    # out[k, i, j] = d_k H_ij; symmetrize over all slot permutations
    sym = (
        out
        + out.transpose(0, 2, 1)
        + out.transpose(1, 0, 2)
        + out.transpose(1, 2, 0)
        + out.transpose(2, 0, 1)
        + out.transpose(2, 1, 0)
    ) / 6.0
    return sym


def differentiate(
    f: Callable[[np.ndarray], float],
    x,
    order: int = 1,
    step: float | None = None,
    hessian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Central-difference derivative tensor of a scalar field.

    Parameters
    ----------
    f : callable
        Scalar field on R^d.
    x : Point or array-like
        Evaluation point.
    order : {1, 2, 3}
        Derivative order. Orders 2 and 3 are symmetrized.
    step : float, optional
        Stencil step; defaults to an order-dependent multiple of
        ``max(1, |x_i|)``.
    hessian : callable, optional
        Analytic Hessian; when given, the order-3 tensor is built by
        differencing it once (halves the stencil size).
    """
    xa = as_coords(x).copy()
    if order == 1:
        h = _steps(xa, step, STEP_ORDER1)
        return require_finite(_gradient(f, xa, h))
    if order == 2:
        h = _steps(xa, step, STEP_ORDER2)
        return require_finite(_hessian(f, xa, h))
    if order == 3:
        if hessian is not None:
            h = _steps(xa, step, STEP_ORDER3_FROM_HESSIAN)
            return require_finite(_third_from_hessian(hessian, xa, h))
        h = _steps(xa, step, STEP_ORDER3)
        vals = _third_direct(f, xa, h)
        sym = (
            vals
            + vals.transpose(0, 2, 1)
            + vals.transpose(1, 0, 2)
            + vals.transpose(1, 2, 0)
            + vals.transpose(2, 0, 1)
            + vals.transpose(2, 1, 0)
        ) / 6.0
        return require_finite(sym)
    raise ValueError("order must be 1, 2 or 3")


def jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x,
    step: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian ``J[i, j] = d f_i / d x_j`` of a vector field."""
    xa = as_coords(x).copy()
    h = _steps(xa, step, STEP_ORDER1)
    cols = []
    for j in range(xa.shape[0]):
        e = np.zeros_like(xa)
        e[j] = h[j]
        fp = np.asarray(f(xa + e), dtype=float)
        fm = np.asarray(f(xa - e), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise EvaluationDomainError("non-finite field evaluation on stencil")
        cols.append((fp - fm) / (2.0 * h[j]))
    return np.stack(cols, axis=-1)


PIVOT_TOL = 1e-12
COND_CAP = 1e10


def invert_matrix(a: np.ndarray, cond_cap: float = COND_CAP) -> np.ndarray:
    """Invert a symmetric matrix, or each of a stack ``(..., k, k)``, through its eigen-factorization.

    Raises, if any matrix fails: :class:`EvaluationDomainError` on a non-finite
    entry, :class:`SingularMetricError` when the (symmetric) condition number
    exceeds ``cond_cap`` or an eigenvalue falls under the pivot tolerance
    relative to the largest.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("invert expects square order-2 tensors")
    if not np.all(np.isfinite(m)):
        raise EvaluationDomainError("invert expects finite entries")
    mt = m.swapaxes(-1, -2)
    # np.allclose(m, mt, atol) per matrix, without its isclose overhead
    atol = 1e-8 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1), keepdims=True))
    if not np.all(np.abs(m - mt) <= atol + 1e-5 * np.abs(mt)):
        raise ValueError("invert expects a symmetric matrix")
    w, v = np.linalg.eigh(0.5 * (m + mt))
    amax, amin = np.abs(w).max(axis=-1), np.abs(w).min(axis=-1)
    if np.any((amax == 0.0) | (amin <= PIVOT_TOL * amax)):
        raise SingularMetricError("matrix is numerically singular")
    cond = amax / amin
    if np.any(cond > cond_cap):
        raise SingularMetricError(f"condition number {cond.max():.3e} exceeds cap {cond_cap:.3e}")
    return (v / w[..., None, :]) @ v.swapaxes(-1, -2)


def newton_solve(
    f: Callable[[np.ndarray], np.ndarray],
    target,
    guess,
    tol: float = 1e-10,
    max_iter: int = 100,
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Point:
    """Solve ``f(x) = target`` by damped Newton iteration.

    The returned point carries the chart tag of ``guess`` when it is a
    :class:`Point`. Raises :class:`NoConvergenceError` when the residual
    fails to reach ``tol`` within ``max_iter`` iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    chart = guess.chart if isinstance(guess, Point) else "theta"
    x = as_coords(guess).copy()
    t = as_coords(target)

    def residual(y):
        r = np.asarray(f(y), dtype=float) - t
        if not np.all(np.isfinite(r)):
            raise EvaluationDomainError("non-finite field evaluation during Newton solve")
        return r

    r = residual(x)
    best = float(np.abs(r).max())
    for _ in range(max_iter):
        if best <= tol:
            return Point(x, chart)
        j = jac(x) if jac is not None else jacobian(f, x)
        try:
            dx = np.linalg.solve(j, -r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Jacobian during Newton solve: {exc}") from exc
        lam = 1.0
        for _ in range(12):
            r_new = residual(x + lam * dx)
            n_new = float(np.abs(r_new).max())
            if n_new < best:
                x = x + lam * dx
                r, best = r_new, n_new
                break
            lam *= 0.5
        else:
            raise NoConvergenceError("Newton line search stalled")
    if best <= tol:
        return Point(x, chart)
    raise NoConvergenceError(f"Newton solve did not reach tol={tol:g} (residual {best:.3e})")
