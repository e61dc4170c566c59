"""Sequential estimation: stopping rule, fixed-N sums, estimator corrections, bounds.

The stopping rule triggers when the normalized observed information of
the running trajectory crosses a gauge-dependent threshold; replications
use disjoint generator streams and a deterministic burst schedule, so a
run is reproducible regardless of scheduling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ChartError
from .tensorops import as_coords, require_finite

T_MIN = 3
T_MAX_FACTOR = 50.0
# the largest burst, which fixes the random stream (it decides which uniforms
# pair up in a draw), and the replication-draw rows of a fixed-N block
ROWS = 4096
# replication-draw rows a stopping cell advances at once; bounds the temporaries
STOP_ROWS = 16384


def step_cap(k: float, nu0: float) -> int:
    """The most draws a replication of cell ``K`` at gauge ``nu0`` takes: ``ceil(T_MAX_FACTOR K nu0)``."""
    return int(math.ceil(T_MAX_FACTOR * k * nu0))


def stop_cell(model, k: float, u0, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample each replication of a cell until its criterion crosses ``K nu + c``,
    ``c`` the model's stopping constant.

    Replication ``i`` draws from ``rngs[i]``; the burst size and the cap
    ``step_cap(K, nu0)`` depend only on the cell, so the live replications
    advance burst by burst together. Each burst makes one ``sample_many`` call
    and one ``stop_terms`` call over all of its running sums, which gives the
    criterion, the gauge at the estimate and whether the estimate is defined
    without leaving the sums. A replication stops at the first eligible index
    at or past the boundary, as one-at-a-time evaluation would. Its draws and
    sums never mix with another's, so the results do not depend on the batch:
    the burst is at most ``ROWS``, and replications advance in blocks of
    ``STOP_ROWS // burst``, only to bound the temporaries. The running sums
    and the threshold are built in place over the burst's draws.

    Returns ``(tau, sum_x, runaway)`` with shapes ``(R,)``, ``(R, n)`` and
    ``(R,)``; a runaway replication has ``tau`` at the cap and its sum there.
    """
    if k <= 0:
        raise ValueError("K must be positive")
    u0a = as_coords(u0)
    c = model.stopping_constant()
    nu0 = model.gauge().nu_at(u0a)
    t_max = step_cap(k, nu0)
    burst = min(ROWS, max(8, int(0.25 * k * nu0)))
    count = len(rngs)
    tau = np.full(count, t_max)
    sum_x = np.zeros((count, model.curved.n))
    runaway = np.zeros(count, dtype=bool)
    block = max(1, STOP_ROWS // burst)
    for start in range(0, count, block):
        live = np.arange(start, min(start + block, count))
        t = 0
        while live.size and t < t_max:
            take = min(burst, t_max - t)
            cums = model.sample_many(u0a, [rngs[i] for i in live], take)
            np.cumsum(cums, axis=1, out=cums)
            cums += sum_x[live, None, :]
            crit, thresh, hit = model.stop_terms(cums)
            # thresh = K nu + c; a sum on the gauge's singular set has nu = inf,
            # a threshold never met
            thresh *= k
            thresh += c
            if t + 1 < T_MIN:  # no stop before T_MIN draws
                hit[:, :T_MIN - t - 1] = False
            hit &= crit >= thresh
            rep = np.arange(live.size)
            first = np.argmax(hit, axis=1)
            stopped = hit[rep, first]
            sum_x[live] = cums[rep, np.where(stopped, first, take - 1)]
            tau[live[stopped]] = t + 1 + first[stopped]
            live = live[~stopped]
            t += take
            del cums, crit, thresh, hit  # a burst's arrays go before the next burst is drawn
        runaway[live] = True
    return tau, sum_x, runaway


def fixed_sums(model, n: int, u0, rngs) -> np.ndarray:
    """The sums ``(R, 3)`` of each replication's ``n`` draws, replication ``i`` drawn from
    ``rngs[i]`` and added in order. A ``sample_many`` call draws a block of ``ROWS // n``
    replications; the block size does not change the sums, only the temporaries."""
    block = max(1, ROWS // n)
    sums = []
    for start in range(0, len(rngs), block):
        xs = model.sample_many(u0, rngs[start:start + block], n)
        sums.append(np.cumsum(xs, axis=1, out=xs)[:, -1].copy())
        del xs  # a block's draws go before the next block's are drawn
    return np.concatenate(sums)


def bias_correct(pg, effective_n: float) -> np.ndarray:
    """Second-order bias correction of the estimates ``pg.u``, a point
    ``(m,)`` or a cell's rows ``(R, m)``, from their geometry bundle ``pg``.

    Only the tangential block contributes for the maximum-likelihood
    ancillary: the correction is the plain connection contraction
    ``(1/2N) Gamma^(-1)a_bc g^bc`` in the original chart.
    """
    ginv = pg.ginv
    corr = np.einsum("...bcd,...da,...bc->...a", pg.gm1, ginv, ginv)
    return pg.u + corr / (2.0 * effective_n)


def second_order_terms(pg) -> np.ndarray:
    """The two surviving squared-tensor terms of the covariance expansion at
    the truth point ``pg.u``, from its bundle ``pg``.

    Returns ``(1/2) (G')^2ab + (H')^2ab`` with all indices raised, in the
    original chart, and raises where it is not finite. The ancillary term is
    identically zero for the maximum-likelihood ancillary.
    """
    ginv = pg.ginv
    gamma_sq = np.einsum("cda,efb,ce,df->ab", pg.gm1, pg.gm1, ginv, ginv)
    h_sq = np.einsum("ack,bdl,cd,kl->ab", pg.h1, pg.h1, ginv, pg.gkk_inv)
    return require_finite(ginv @ (0.5 * gamma_sq + h_sq) @ ginv)


def crb(pg, j: np.ndarray) -> np.ndarray:
    """Unit-time Cramer-Rao matrix at the truth point ``pg.u`` in the flattening
    coordinates: the inverse metric ``pg.ginv`` pushed through the map Jacobian ``j``
    there; raises where it is not finite."""
    if j.shape[0] != j.shape[1] or np.linalg.slogdet(j)[1] < math.log(1e-300):
        raise ChartError("flattening-map Jacobian is singular at the truth point")
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(j @ pg.ginv @ j.T, "CCRB (quadratic in D)")

