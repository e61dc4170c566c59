"""Points, the finiteness check, stencil steps and symmetric matrix inversion.

Everything here is a pure function of its inputs. ``Point`` is immutable
and safe to share between tasks; every other result is a fresh plain
``ndarray``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError, SingularMetricError

CHARTS = ("theta", "eta", "u", "w", "ubar")

_EPS = float(np.finfo(float).eps)
# Default relative step of a central first difference: balances truncation
# against round-off.
STEP_ORDER1 = _EPS ** (1.0 / 3.0)


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


def _steps(x: np.ndarray, step: float | None, default_rel: float) -> np.ndarray:
    if step is not None:
        if step <= 0:
            raise ValueError("step must be positive")
        return np.full(x.shape, float(step))
    return default_rel * np.maximum(1.0, np.abs(x))


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

