"""Eigenpair diagnostics on finite windows: decay-rate fits, transfer-matrix
Lyapunov oracle, Green's-function decay scans over orbit shifts, and the
resolvent patching check on a union of good windows."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .greens import NEAR_SINGULAR_RESIDUAL, STACK_CHUNK, green_solve, green_windows
from .operator import (
    OperatorParams,
    assemble_hamiltonian,
    check_coupling,
    check_finite,
    comparison_rate,
    dense_blocks,
    hamiltonian_blocks,
)
from .symbols import TABLE_CHUNK, SymbolTables, symbol_tables

FIT_FLOOR = 1e-14
FIT_EXCLUDE_RADIUS = 2  # near-center profile shape is not exponential
FIT_MIN_POINTS = 4
FIT_RESIDUAL_MAX = 0.5
DEFAULT_MARGIN = 32
RATE_FRACTION = 0.5


def eigensolve(h):
    """Full symmetric eigendecomposition of a dense window matrix.

    Returns the energies in ascending order, the unit eigenvectors as the
    columns of one (n, n) array, and each pair's two-norm residual
    ||H v - E v||, all straight from one np.linalg.eigh call.  A residual
    whose squared entries overflow is taken again as s * ||r / s||, with s
    the largest |entry| of its column r.
    """
    energies, vectors = np.linalg.eigh(h)
    r = h @ vectors - vectors * energies
    residuals = np.linalg.norm(r, axis=0)
    for k in np.flatnonzero(np.isinf(residuals)):
        s = np.max(np.abs(r[:, k]))
        if s < np.inf:
            residuals[k] = s * np.linalg.norm(r[:, k] / s)
    return energies, vectors, residuals


def block_profile(vectors, l):
    """Per-site two-norms of eigenvectors grouped into l-blocks, for one
    vector (n_sites * l,) or a stack (..., n_sites * l)."""
    v = np.asarray(vectors, dtype=float)
    if v.shape[-1] % l != 0:
        raise ValueError("vector length is not divisible by the block size")
    # np.linalg.norm's arithmetic, with one stack-sized temporary fewer
    return np.sqrt(np.square(v).reshape(v.shape[:-1] + (-1, l)).sum(axis=-1))


class DecayFit(NamedTuple):
    center: int
    rate: float
    residual: float
    n_points: int


def decay_fit(profiles):
    """Exponential decay rate of a per-site profile away from its peak.

    Fits log(profile) against -|j - j*| over sites with profile > FIT_FLOOR and
    |j - j*| >= 2; the rate is the slope clipped at zero.  The residual is
    the standard error of that slope in log units per site, i.e. how well
    the decay rate itself is determined; oscillatory dips of a cleanly
    decaying profile inflate the point scatter but not this number.  Ties
    for the peak break to the smallest index.

    `profiles` is one profile (n_sites,) or a stack (..., n_sites).  The
    fit points of every profile are gathered into one list, and each
    least-squares fit is taken in closed form from per-profile sums of the
    centred points, so a stack is one pass that holds only its fit points.
    Each field keeps the leading axes of the input, so one profile gives
    numpy scalars.  The rate and residual are NaN where fewer than
    FIT_MIN_POINTS sites qualify (`n_points` says so).  No more than two
    sites share a distance from the peak, so the distances of a fit never
    all coincide and the slope is always defined.
    """
    p = np.asarray(profiles, dtype=float)
    flat = p.reshape(-1, p.shape[-1])
    center = np.argmax(flat, axis=-1)
    row, col = np.nonzero(flat > FIT_FLOOR)
    d = np.abs(col - center[row])
    far = d >= FIT_EXCLUDE_RADIUS
    row, col, x = row[far], col[far], d[far].astype(float)
    y = np.log(flat[row, col])
    n_pts = np.bincount(row, minlength=len(flat))

    def total(w):
        return np.bincount(row, weights=w, minlength=len(flat))

    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x - (total(x) / n_pts)[row]
        yc = y - (total(y) / n_pts)[row]
        sxx = total(xc * xc)
        slope = total(xc * yc) / sxx
        misfit = yc - slope[row] * xc
        resid = np.sqrt(total(misfit * misfit) / (n_pts - 2) / sxx)
    few = n_pts < FIT_MIN_POINTS
    # where(), not maximum(): a zero slope must give the rate +0.0
    rate = np.where(few, np.nan, np.where(slope < 0.0, -slope, 0.0))
    resid = np.where(few, np.nan, resid)
    return DecayFit(*(a.reshape(p.shape[:-1])[()] for a in (center, rate, resid, n_pts)))


def lyapunov_rates(model, lam, energies, n_steps, x=0.0):
    """Transfer-matrix growth rates (1/n) log ||prod T_j|| of a scalar model
    for many energies at once, ||.|| the Frobenius norm and n the steps used.

    T_j = [[(d_j - E) / w_{j+1}, -w_j / w_{j+1}], [1, 0]] with d_j = lam*F -
    R, at the phases x + j*omega, j < n_steps; step j is skipped when
    its phase is within pole_tol of a pole or w_{j+1} ~ 0.  The product is
    rescaled by its max-norm at every step (Benettin et al., Meccanica 15
    (1980)).  A non-finite energy or x raises ValueError, and a rate that
    is not finite LinAlgError.
    """
    return _transfer_product(model, lam, energies, n_steps, x)[0]


def _transfer_product(model, lam, energies, n_steps, x):
    """lyapunov_rates, and the number of steps it used.

    The orbit is evaluated TABLE_CHUNK steps at a time, into one symbol
    table of TABLE_CHUNK + 1 phases (step j reads w at phase j + 1), so
    memory does not grow with n_steps.  The used steps of an orbit chunk go
    a product chunk of TABLE_CHUNK // len(energies) at a time: one
    expression forms the chunk's entries of T_j, each step writes into fixed
    buffers, and the chunk's rescalings are logged at once and added to the
    running sum in step order.  The chunk's first-column entries are formed
    twice over, as a (steps, 2, len(energies)) array of 2 * TABLE_CHUNK
    elements, so that each step multiplies rows of one shape; the loop walks
    that array, a list of the chunk's Python-float ratios and the rows of the
    log buffer together, and makes no index object per step.  Every element
    sees the operations of a step-by-step loop, in its order, so the rates
    are the same to the bit whatever the chunk sizes.  A rate that is not
    finite (an entry of T_j overflowed, and the product turned to NaN)
    raises LinAlgError.
    """
    check_coupling(lam)
    if model.l != 1:
        raise ValueError("transfer-matrix oracle requires block size 1")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    es = np.asarray(energies, dtype=float)
    check_finite("energies", es)
    check_finite("x", x)
    # a flat copy, of two energies at least: numpy sums a lone column
    # pairwise, not row by row, so one energy runs twice
    flat = np.resize(es, max(es.size, 2))
    step = max(1, TABLE_CHUNK // flat.size)
    # rows m00 m01 m10 m11 of the rescaled product; top and bot are its two
    # halves, and each step writes its new top rows over the old bottom ones
    mat = np.zeros((4, flat.size))
    mat[0] = mat[3] = 1.0
    top, bot = mat[:2], mat[2:]
    prod, absmat = np.empty((2, flat.size)), np.empty_like(mat)
    # row 0 the summed log rescalings, row i + 1 the rescaling of step i
    logs = np.zeros((step + 1, flat.size))
    rows = list(logs[1:])
    # bound once, so that the step loop looks up no attribute
    multiply, absolute, maximum_reduce = np.multiply, np.abs, np.maximum.reduce
    table = SymbolTables.empty(model, (min(TABLE_CHUNK, n_steps) + 1,))
    used = 0
    for s0 in range(0, n_steps, TABLE_CHUNK):
        sites = np.arange(s0, min(s0 + TABLE_CHUNK, n_steps) + 1)
        tab = symbol_tables(model, model.site_phase(x, sites), out=table[: sites.size])
        w = tab.w[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            onsite = hamiltonian_blocks(tab, lam)[0][:-1, 0, 0]
        usable = np.flatnonzero(~(tab.poles(model.pole_tol)[:-1] | (np.abs(w[1:]) < 1e-12)))
        used += usable.size
        for c0 in range(0, usable.size, step):
            j = usable[c0 : c0 + step]
            d = ((onsite[j, None] - flat) / w[j + 1, None])[:, None].repeat(2, axis=1)
            b = (-w[j] / w[j + 1]).tolist()
            for d_j, b_j, log_j in zip(d, b, rows):
                multiply(d_j, top, out=prod)
                bot *= b_j
                bot += prod
                top, bot = bot, top
                absolute(mat, out=absmat)
                mat /= maximum_reduce(absmat, out=log_j)
            k = j.size + 1
            np.log(logs[1:k], out=logs[1:k])
            logs[0] = np.add.reduce(logs[:k])
    if used == 0:
        raise ValueError("no usable transfer steps (orbit entirely on poles)")
    norm = np.sqrt(top[0] ** 2 + top[1] ** 2 + bot[0] ** 2 + bot[1] ** 2)
    rates = ((logs[0] + np.log(norm)) / used)[: es.size]
    bad = np.flatnonzero(~np.isfinite(rates))
    if bad.size:
        raise np.linalg.LinAlgError(
            f"transfer product overflowed: the rate at E = {float(flat[bad[0]])!r} is not finite"
        )
    return rates.reshape(es.shape)[()], used


def _decay_rate(lam, E, x0, N0, shifts, c11):
    """Check the arguments both Green-decay checks take; return log(lam + |E|).
    A c11 of None is to be fitted, and passes."""
    check_coupling(lam)
    check_finite("E", E)
    check_finite("x0", x0)
    if c11 is not None:
        check_finite("c11", c11)
    if N0 < 1:
        raise ValueError("N0 must be >= 1")
    if not shifts:
        raise ValueError("no shifts to scan")
    rate0 = comparison_rate(lam, E)
    if rate0 == -math.inf:  # lam = E = 0: the slack would hold 0 * -inf
        raise ValueError("lam + |E| must be > 0")
    if rate0 == math.inf:
        raise np.linalg.LinAlgError(f"log(lam + |E|) is not finite at lam={lam:g}, E={E:g}")
    return rate0


def _worst_slack(g, l, rate0, beyond):
    """Per matrix of the stack g: the largest log|G| + |p - p'| * rate0 over pairs of sites
    p = entry // l more than `beyond` apart, their number, and how many of them have |G| = 0."""
    p = np.arange(g.shape[-1]) // l
    dist = np.abs(p[:, None] - p[None, :])
    far = dist > beyond
    with np.errstate(divide="ignore"):
        slack = np.log(np.abs(g))
    zeros = np.count_nonzero((slack == -np.inf) & far, axis=(-2, -1))
    slack += np.where(far, dist * rate0, -np.inf)  # a nearer pair is never the worst
    return np.max(slack, axis=(-2, -1)), int(np.count_nonzero(far)), zeros


class ShiftRecord(NamedTuple):
    shift: int
    status: str  # good | bad | near_singular | pole | underflowed
    slack: float
    resonant: bool  # dist(E, spec H) < exp(-N0/2), or not finite; False on a pole window


class DecayScanReport(NamedTuple):
    records: tuple
    c11: float
    rate0: float
    good_fraction: float
    counts: dict
    eigensolved: int  # the windows whose resonance an eigensolve decided


def green_decay_scan(model, lam, E, x0, N0, shifts, c11=None):
    """Scan windows [-N0+j, N0+j] and test off-diagonal Green decay per shift.

    For each shift the scan computes t_j = max over entry pairs of
    (log|G| + |p - p'| * log(lam + |E|)) / (N0 * l).  Unless c11 is given,
    it is fitted (max-slack convention) over the non-resonant shifts, whose
    spectral distance dist(E, spec H) is at least exp(-N0/2); a shift
    is good when its slack (t_j - c11) * N0 * l is <= 0 and its solve
    succeeded.  Windows whose orbit hits a pole are skipped and counted.
    Any finite E is scanned but lam = E = 0, whose rate -inf raises ValueError;
    a rate that overflowed raises LinAlgError, and a non-finite c11 ValueError.
    A window with a |G| entry that underflowed to 0 has no known slack: it is
    `underflowed` (slack inf), and fitting c11 over one raises LinAlgError.

    A window is non-resonant when ||G||_F * exp(-N0/2) <= 1 - n * residual,
    n = (2*N0 + 1) * l: the computed inverse has Ht Ht^-1 = I + R with
    max|R_ij| = residual, so the true Green's function is G (I + R)^-1 and
    dist = 1 / ||G (I + R)^-1||_2 >= (1 - n * residual) / ||G||_F.  Only the
    windows this bound leaves open (a NaN, infinite or overflowed norm among
    them) are decided by the eigenvalues of their H; `eigensolved` counts them.
    """
    shifts = [int(j) for j in shifts]
    rate0 = _decay_rate(lam, E, x0, N0, shifts, c11)
    l, nl, n = model.l, N0 * model.l, (2 * N0 + 1) * model.l
    cut = math.exp(-N0 / 2.0)
    # one table over the union of the windows; column k of `cols` lists the
    # table rows of the window of shifts[k]
    sites = np.array(sorted({j + d for j in shifts for d in range(-N0, N0 + 1)}))
    cols = np.searchsorted(sites, np.arange(-N0, N0 + 1)[:, None] + np.array(shifts))
    tab = symbol_tables(model, model.site_phase(x0, sites))
    pole = tab.poles(model.pole_tol)[cols].any(axis=0)
    t = np.full(len(shifts), np.nan)
    resonant, singular, under = np.zeros((3, len(shifts)), dtype=bool)
    live = np.flatnonzero(~pole)
    eigensolved = 0
    # every array of a chunk (H, Ht, their inverses and products) holds at most
    # STACK_CHUNK elements, or one window when a window is larger
    step = max(1, STACK_CHUNK // n**2)
    for s in range(0, live.size, step):
        k = live[s : s + step]
        g, residual = green_windows(tab[cols[:, k]], lam, E)
        singular[k] = ~(residual <= NEAR_SINGULAR_RESIDUAL)
        worst, _, zeros = _worst_slack(g, l, rate0, -1)
        t[k], under[k] = worst / nl, zeros > 0
        with np.errstate(over="ignore"):  # an overflowed norm leaves its window open
            frob = np.sqrt(np.einsum("...ij,...ij->...", g, g))
        unsettled = k[~(frob * cut <= 1.0 - n * residual)]
        if unsettled.size:
            h = dense_blocks(*hamiltonian_blocks(tab[cols[:, unsettled]], lam))
            dist = np.min(np.abs(np.linalg.eigvalsh(h) - E), axis=-1)
            resonant[unsettled] = ~(dist >= cut)
            eigensolved += unsettled.size
    if c11 is None:
        fit = ~pole & ~singular & ~resonant
        if not fit.any():
            raise ValueError("every scanned window is resonant; cannot fit c11")
        if under[fit].any():
            raise np.linalg.LinAlgError("|G| underflowed on a window c11 is fitted over")
        c11 = float(t[fit].max())
    slack = np.select([pole, singular | under], [np.nan, np.inf], (t - c11) * nl)
    cases = [pole, singular, under, slack <= 0.0]
    status = np.select(cases, ["pole", "near_singular", "underflowed", "good"], "bad")
    counts = {
        s: int(np.count_nonzero(status == s))
        for s in ("good", "bad", "near_singular", "pole", "underflowed")
    }
    scanned = len(shifts) - counts["pole"]
    return DecayScanReport(
        records=tuple(map(ShiftRecord, shifts, status.tolist(), slack.tolist(), resonant.tolist())),
        c11=float(c11),
        rate0=rate0,
        good_fraction=counts["good"] / scanned if scanned else 0.0,
        counts=counts,
        eigensolved=eigensolved,
    )


class PatchReport(NamedTuple):
    passed: bool
    worst_slack: float
    threshold: float
    window: tuple
    pairs_checked: int
    underflowed: int  # the checked pairs whose |G| is 0; any fails the check


def resolvent_patch_check(model, lam, E, x0, N0, N2, c11, shifts=None):
    """Green decay on the union of shifted windows covering [sqrt(N2), 2*N2].

    The union of [-N0+n, N0+n] over consecutive shifts is a single interval;
    the check computes G there directly and verifies, for every pair with
    |p - p'| > N2/10, that log|G| + |p - p'| log(lam + |E|) stays below the
    fitted-prefactor bar 2 * c11 * N0 * l.  The argument rules are the scan's;
    a window with no pair that far apart checks nothing and raises ValueError.
    A checked pair whose |G| underflowed to 0 is counted and fails the check.
    """
    if shifts is None:
        shifts = range(int(math.isqrt(int(N2))) + 1, 2 * int(N2))
    shifts = sorted(int(s) for s in shifts)
    rate0 = _decay_rate(lam, E, x0, N0, shifts, c11)
    if any(b - a > 2 * N0 for a, b in zip(shifts, shifts[1:])):
        raise ValueError("shift gaps exceed 2*N0; the window union disconnects")
    window = (-N0 + shifts[0], N0 + shifts[-1])
    if window[1] - window[0] <= N2 / 10.0:
        raise ValueError(f"no pair of the window {window} is more than N2/10 = {N2 / 10.0:g} apart")
    g = green_solve(model, OperatorParams(lam=lam, x=x0, E=E, window=window))[0]
    worst, pairs, underflowed = _worst_slack(g, model.l, rate0, N2 / 10.0)
    threshold = 2.0 * c11 * N0 * model.l
    return PatchReport(
        passed=bool(worst <= threshold and not underflowed),
        worst_slack=float(worst),
        threshold=threshold,
        window=window,
        pairs_checked=pairs,
        underflowed=int(underflowed),
    )


class PairRecord(NamedTuple):
    energy: float
    center_site: int
    rate: float
    fit_residual: float
    target_rate: float
    interior: bool
    localized: bool
    status: str  # fit | delta | no_fit | unreliable


class LocalizationReport(NamedTuple):
    records: tuple
    aggregate_fraction: float
    counts: dict
    lam: float
    n_half: int
    margin: int
    rate_fraction: float
    max_eigen_residual: float  # the largest ||H v - E v|| of the eigenbasis

    def to_dict(self):
        return {
            "aggregate_fraction": self.aggregate_fraction,
            "counts": dict(self.counts),
            "max_eigen_residual": self.max_eigen_residual,
            "lambda": self.lam,
            "half_width": self.n_half,
            "margin": self.margin,
            "rate_fraction": self.rate_fraction,
            "records": [r._asdict() for r in self.records],
        }


def localize(model, lam, x0, N, margin=DEFAULT_MARGIN):
    """Eigen-decompose the window [-N, N] and fit every eigenvector's decay.

    A pair counts as localized when its fit is reliable (log-scale RMS
    residual < 0.5), the comparison rate log(lam + |E|) is an actual decay
    (> 0), and the fitted rate clears RATE_FRACTION of it.  Profiles
    concentrated on a single block (atomic limit) count as localized by
    convention.  The aggregate fraction is taken over interior-centered
    pairs, i.e. centers at least `margin` sites from the window edge.  The
    report carries the largest eigenpair residual ||H v - E v||, the check
    on the eigensolve.  An energy with lam + |E| == 0 (lam = 0, E = 0) has
    the target -inf and counts as localized only by the delta convention.
    A non-finite energy (an overflowed H) raises LinAlgError.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    check_finite("x0", x0)
    params = OperatorParams(lam=lam, x=x0, E=0.0, window=(-N, N))
    energy, vectors, residuals = eigensolve(assemble_hamiltonian(model, params))
    if not np.isfinite(energy).all():
        raise np.linalg.LinAlgError("eigensolve returned a non-finite energy")
    profiles = block_profile(vectors.T, model.l)
    fit = decay_fit(profiles)
    target = np.array([comparison_rate(lam, e) for e in energy.tolist()])
    few = fit.n_points < FIT_MIN_POINTS
    reliable = fit.residual < FIT_RESIDUAL_MAX  # False where few: the residual is NaN
    delta = few & (profiles.max(axis=-1) ** 2 >= 0.99)
    status = np.select([reliable, delta, few], ["fit", "delta", "no_fit"], "unreliable")
    rate = np.select([reliable, delta], [fit.rate, np.inf], np.nan)
    residual = np.where(delta, 0.0, fit.residual)
    localized = delta | (reliable & (target > 0.0) & (fit.rate >= RATE_FRACTION * target))
    site = fit.center - N
    interior = np.abs(site) <= N - margin
    counts = {
        s: int(np.count_nonzero(status == s)) for s in ("fit", "delta", "no_fit", "unreliable")
    }
    counts["interior"] = int(np.count_nonzero(interior))
    columns = (energy, site, rate, residual, target, interior, localized, status)
    return LocalizationReport(
        records=tuple(map(PairRecord, *(c.tolist() for c in columns))),
        aggregate_fraction=float(np.mean(localized[interior])) if counts["interior"] else 0.0,
        counts=counts,
        lam=float(lam),
        n_half=int(N),
        margin=int(margin),
        rate_fraction=float(RATE_FRACTION),
        max_eigen_residual=float(np.max(residuals)),
    )
