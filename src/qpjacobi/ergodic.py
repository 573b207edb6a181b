"""Birkhoff averages of the log-determinant density along rotation orbits,
and empirical measurement of the large-deviation set."""

from __future__ import annotations

import functools
import hashlib
import threading
from typing import NamedTuple

import numpy as np

from .errors import AllZero
from .greens import _orbit_windows, avg_logdet, midpoint_grid
from .operator import check_coupling, check_finite

#: underflowed nodes contribute this floor (roughly log of the smallest
#: normal double) so averages stay finite; occurrences are counted
U_FLOOR = -690.0


#: (orbit key, Q, sum of the first Q floored terms, floored count) of the
#: last orbit summed, kept so that a larger Q on it can resume
_orbit_sum = None
_orbit_lock = threading.Lock()


def _orbit_average(model, lam, E, N, Q, xs):
    """(1/Q) sum_{j<Q} u(xs + j*omega) on a flat grid, and the floored count.

    Term j reads orbit sites j+1..j+N (see greens._orbit_windows).  The
    running sum of the largest Q summed on the last orbit is kept; a call for
    Q' >= that Q on the same orbit (any other is a cold call) takes it out of
    the slot, so no other call sees it half-advanced, re-evaluates the N - 1
    sites it overlaps and adds terms Q..Q'-1 in a cold call's order, one
    reduction per run: the result is bit-identical to a cold call's.
    """
    global _orbit_sum
    key = (model, float(lam), float(E), int(N), hashlib.sha256(xs).digest())
    with _orbit_lock:
        kept = _orbit_sum
        if kept is not None and kept[0] == key and kept[1] <= Q:
            _orbit_sum = None
        else:
            kept = None
    # numpy sums a lone column pairwise, not row by row: a one-phase grid runs twice
    grid = np.resize(xs, max(xs.size, 2))
    start, acc, floored = kept[1:] if kept else (0, np.zeros(grid.shape), 0)
    for cols, u in _orbit_windows(model, lam, E, grid, 1, N, start, Q):
        u /= N * model.l
        floored += int(np.count_nonzero(u[:, : xs.size - cols.start] < U_FLOOR))
        np.maximum(u, U_FLOOR, out=u)
        # numpy reduces axis 0 of a C-contiguous array row by row, in order
        u[0] += acc[cols]
        np.add.reduce(u, axis=0, out=acc[cols])
    with _orbit_lock:
        if _orbit_sum is None or _orbit_sum[0] != key or _orbit_sum[1] < Q:
            _orbit_sum = key, Q, acc, floored
    return acc[: xs.size] / Q, floored


@functools.lru_cache(maxsize=64)
def _torus_integral(model, lam, E, N, nodes):
    return avg_logdet(model, lam, E, N, midpoint_grid(nodes)).value


class DeviationReport(NamedTuple):
    Q: int
    threshold: float
    bad_fraction: float
    grid_size: int
    S: float
    sigma: float
    integral: float
    floored: int


def deviation_measure(model, lam, E, N, Q, S, sigma, x_grid, omega=None):
    """Fraction of grid phases whose Q-step Birkhoff average deviates from the
    torus integral by at least S * Q^(-sigma).

    `omega` replaces the model rotation outright (orbit and operator
    together); that is the control experiment for rational rotations.  The
    reference integral is a midpoint quadrature on a grid four times finer
    than x_grid, cached per (model, lam, E, N).  A call for a larger Q on the
    same orbit resumes the Birkhoff sum of an earlier call (see
    _orbit_average), so a Q ladder costs one orbit pass to max(Q).
    """
    check_coupling(lam)
    check_finite("E", E)
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if not (S >= 0 and sigma > 0):
        raise ValueError("require S >= 0 and sigma > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    m = model.with_omega(omega) if omega is not None else model
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 1000:
        raise ValueError("x_grid must have at least 1000 nodes")
    check_finite("x_grid", xs)
    ref = _torus_integral(m, float(lam), float(E), int(N), 4 * int(xs.size))
    avg, floored = _orbit_average(m, lam, E, N, Q, xs.ravel())
    threshold = S * Q ** (-sigma)
    bad = int(np.count_nonzero(np.abs(avg - ref) >= threshold))
    return DeviationReport(
        Q=int(Q),
        threshold=float(threshold),
        bad_fraction=bad / xs.size,
        grid_size=int(xs.size),
        S=float(S),
        sigma=float(sigma),
        integral=float(ref),
        floored=floored,
    )


def ldt_decay_fit(reports):
    """Least-squares slope of log(bad_fraction) against -Q^sigma.

    Returns (c10_fit, monotone) where monotone means the bad fractions are
    non-increasing in Q and actually drop from first to last.  Raises AllZero
    when every report has bad_fraction == 0 (decay too fast to fit).
    """
    rs = sorted(reports, key=lambda r: r.Q)
    qs = [r.Q for r in rs]
    if len(set(qs)) < 4:
        raise ValueError("need at least 4 distinct Q values")
    sigmas = {r.sigma for r in rs}
    if len(sigmas) != 1:
        raise ValueError("reports mix different sigma values")
    sigma = sigmas.pop()
    bfs = [r.bad_fraction for r in rs]
    monotone = all(b2 <= b1 for b1, b2 in zip(bfs, bfs[1:])) and bfs[-1] < bfs[0]
    pts = [(q, b) for q, b in zip(qs, bfs) if b > 0.0]
    if not pts:
        raise AllZero("every bad_fraction is zero; decay too fast to fit")
    if len(pts) < 2:
        raise ValueError("need at least 2 nonzero bad fractions to fit")
    t = np.array([q**sigma for q, _ in pts])
    y = np.log([b for _, b in pts])
    slope, _ = np.polyfit(t, y, 1)
    return float(-slope), monotone
