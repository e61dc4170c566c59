"""Coordinate coercion, the finiteness check and symmetric matrix inversion.

Everything here is a pure function of its inputs and returns a plain
``ndarray``: a point, a stack of points or a tensor is a plain array
throughout the library.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationDomainError, SingularMetricError


def as_coords(x) -> np.ndarray:
    """Coerce an array-like to a float coordinate array of at least one dimension."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise EvaluationDomainError("coordinates must be finite")
    return np.atleast_1d(a)


def require_finite(values: np.ndarray, what: str = "tensor components") -> np.ndarray:
    """Return ``values`` as a float array; raise, naming them ``what``, when a component is not finite."""
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a)):
        raise EvaluationDomainError(f"{what} must be finite")
    return a


PIVOT_TOL = 1e-12
COND_CAP = 1e10


def invert_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Invert a symmetric matrix, or each of a stack ``(..., k, k)``, through its eigen-factorization.

    Raises, if any matrix fails: :class:`EvaluationDomainError` on a non-finite
    entry or inverse (an eigenvalue below about 1e-308), :class:`SingularMetricError`
    when the (symmetric) condition number exceeds ``COND_CAP`` or an eigenvalue
    falls under the pivot tolerance relative to the largest. The messages call
    the matrix ``name``.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("invert expects square order-2 tensors")
    if not np.all(np.isfinite(m)):
        raise EvaluationDomainError(f"the {name} to invert has a non-finite entry")
    mt = m.swapaxes(-1, -2)
    # np.allclose(m, mt, atol) per matrix, without its isclose overhead
    atol = 1e-8 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1), keepdims=True))
    if not np.all(np.abs(m - mt) <= atol + 1e-5 * np.abs(mt)):
        raise ValueError("invert expects a symmetric matrix")
    w, v = np.linalg.eigh(0.5 * (m + mt))
    amax, amin = np.abs(w).max(axis=-1), np.abs(w).min(axis=-1)
    if np.any((amax == 0.0) | (amin <= PIVOT_TOL * amax)):
        raise SingularMetricError(f"the {name} is numerically singular")
    cond = amax / amin
    if np.any(cond > COND_CAP):
        raise SingularMetricError(f"the {name}'s condition number {cond.max():.3e} exceeds cap {COND_CAP:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        inv = (v / w[..., None, :]) @ v.swapaxes(-1, -2)
    if not np.all(np.isfinite(inv)):
        raise EvaluationDomainError(f"the inverse {name} is not finite: an eigenvalue is below about 1e-308")
    return inv

