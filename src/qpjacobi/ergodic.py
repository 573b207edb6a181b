"""Birkhoff averages of the log-determinant density along rotation orbits,
and empirical measurement of the large-deviation set."""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AllZero
from .greens import avg_logdet, midpoint_grid, window_logdets
from .operator import check_coupling
from .symbols import TABLE_CHUNK, SymbolTables, reduce_phase, symbol_tables

#: underflowed nodes contribute this floor (roughly log of the smallest
#: normal double) so averages stay finite; occurrences are counted
U_FLOOR = -690.0


#: (orbit key, Q, sum of the first Q floored terms, floored count) of the
#: last orbit summed, kept so that a larger Q on it can resume
_orbit_sum = None
_orbit_lock = threading.Lock()


def _orbit_average(model, lam, E, N, Q, xs):
    """(1/Q) sum_{j<Q} u(xs + j*omega) on a flat grid, and the floored count.

    Term j reads orbit sites k = j+1..j+N, so consecutive terms share N - 1
    of them: each slice of steps evaluates only its new orbit indices (about
    TABLE_CHUNK phases) and keeps the last N - 1 rows of the slice before.
    The call holds one buffer set, a symbol table of step + N - 1 rows in
    one allocation, and every slice writes it in place: the kept rows move
    to the top and the new rows follow.  One running sum is kept, for
    the largest Q summed on the last orbit.  A call for Q' >= that Q on the
    same orbit takes it out of the slot (so no other call sees it
    half-advanced), re-evaluates the N - 1 sites it overlaps and adds terms
    Q..Q'-1 in the order a cold call would; any other call is a cold call.
    A term does not depend on the slice it is computed in, and each slice
    adds its terms to the sum in order with one reduction, so the result is
    bit-identical to a cold call whatever calls came before.
    """
    global _orbit_sum
    key = (model, float(lam), float(E), int(N), hashlib.sha256(xs).digest())
    with _orbit_lock:
        kept = _orbit_sum
        if kept is not None and kept[0] == key and kept[1] <= Q:
            _orbit_sum = None
        else:
            kept = None
    # two phases at least: numpy sums a lone column pairwise, not row by
    # row, so a one-phase grid runs twice
    grid = np.resize(xs, max(xs.size, 2))
    start, acc, floored = kept[1:] if kept else (0, np.zeros(grid.shape), 0)
    step, keep = max(1, TABLE_CHUNK // (xs.size * model.l**2)), N - 1
    rows = min(step, Q - start) + keep
    tab = SymbolTables.empty(model, (rows, grid.size))
    for j0 in range(start, Q, step):
        new = keep if j0 > start else 0  # the first row this slice evaluates
        if new:
            for a in tab.arrays():
                a[:keep] = a[step : step + keep]  # numpy copies overlapping rows correctly
        end = keep + min(step, Q - j0)
        ks = np.arange(j0 + 1 + new, j0 + 1 + end)[:, None]
        # the unreduced phases go into rows of m, which symbol_tables overwrites
        x = np.add(grid, ks * model.omega, out=tab.m[new:end, :, 0])
        symbol_tables(model, reduce_phase(x, out=tab.phases[new:end]), out=tab[new:end])
        u = window_logdets(model, lam, E, tab[:end], N)
        u /= N * model.l
        floored += int(np.count_nonzero(u[:, : xs.size] < U_FLOOR))
        np.maximum(u, U_FLOOR, out=u)
        # numpy reduces axis 0 of a C-contiguous array row by row, in order
        u[0] += acc
        np.add.reduce(u, axis=0, out=acc)
    with _orbit_lock:
        if _orbit_sum is None or _orbit_sum[0] != key or _orbit_sum[1] < Q:
            _orbit_sum = key, Q, acc, floored
    return acc[: xs.size] / Q, floored


@functools.lru_cache(maxsize=64)
def _torus_integral(model, lam, E, N, nodes):
    return avg_logdet(model, lam, E, N, midpoint_grid(nodes)).value


@dataclass(frozen=True)
class DeviationReport:
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
