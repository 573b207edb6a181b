"""Determinants, minors, Green's functions, and the two bound checks.

All determinant work happens in log-magnitude domain: at coupling 1e3 and a
few dozen sites the determinant itself overflows doubles, but its log is a
well-behaved sum of pivot logs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NearSingular, TooManyExclusions
from .operator import (
    check_coupling,
    check_finite,
    check_overflow,
    comparison_rate,
    dense_blocks,
    regularization_scale,
    regularized_blocks,
    regularized_diagonal,
    window_tables,
)
from .symbols import TABLE_CHUNK, SymbolTables, reduce_phase, symbol_tables

#: solve residual beyond which an energy counts as numerically singular
NEAR_SINGULAR_RESIDUAL = 1e-6
#: samples with |E| below this are excluded from the minor-bound sweep,
#: because the bound's log(1 + lam/|E|) term diverges at E = 0
E_MIN = 1e-6
#: fraction of underflowed quadrature nodes tolerated by avg_logdet
EXCLUSION_LIMIT = 0.01
#: matrix elements per stacked LAPACK operand: per slogdet stack in
#: minor_logabs, per stack of instance matrices in check_minor_bound and per
#: array of a window chunk in localization.green_decay_scan; bounds their
#: memory (every pair of an N*l <= 16 window still fits in one call).  A smaller
#: stack takes fewer fresh pages: in a new process the window-scalar
#: benchmark's minor sweep takes about 3 100 minor page faults at this size
#: and 9 900 at 1 << 18, and no more time
STACK_CHUNK = 1 << 16


def logdet_abs(mat):
    """log |det| of a matrix, or of each matrix of a (..., n, n) stack.

    One stacked slogdet call, kept as numpy computes it (as in minor_logabs):
    -inf exactly where LU meets a zero pivot, NaN or +inf for a matrix with a
    non-finite entry; a float for a single matrix.
    """
    with np.errstate(invalid="ignore"):  # a NaN entry: its NaN is the answer
        out = np.linalg.slogdet(np.asarray(mat, dtype=float))[1]
    return float(out) if out.ndim == 0 else out


def minor_logabs(mat, alpha, alpha_prime):
    """log |minor| without row alpha_prime and column alpha; -inf if singular,
    NaN or +inf if an entry is not finite.

    `mat` is one matrix (n, n) or a stack (..., n, n).  Flat indices are
    1-based scalars or broadcastable arrays; the result has the stack axes
    first, then the pair shape, and is a float for one matrix and one pair.
    The flat index of every requested submatrix is built once per call and
    gathered from each matrix.  Stacked slogdet calls of at most STACK_CHUNK
    matrix elements factor the submatrices of whole matrices; a matrix whose
    submatrices alone exceed that budget is split by pairs.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("minor_logabs needs a square matrix or a stack of them")
    n = a.shape[-1]
    alpha, alpha_prime = np.broadcast_arrays(alpha, alpha_prime)
    if np.any((alpha < 1) | (alpha > n) | (alpha_prime < 1) | (alpha_prime > n)):
        raise IndexError("flat index out of range")
    keep = np.arange(n - 1)
    rows = keep + (keep >= alpha_prime.reshape(-1, 1) - 1)
    cols = keep + (keep >= alpha.reshape(-1, 1) - 1)
    flat = rows[:, :, None] * n + cols[:, None, :]  # (pairs, n - 1, n - 1)
    mats = a.reshape(math.prod(a.shape[:-2]), n * n)
    out = np.empty((mats.shape[0], flat.shape[0]))
    whole = STACK_CHUNK // max(1, flat.size)  # matrices per slogdet stack
    inst, pairs = (whole, flat.shape[0]) if whole else (1, max(1, STACK_CHUNK // (n - 1) ** 2))
    for s in range(0, mats.shape[0], inst):
        for t in range(0, flat.shape[0], pairs):
            sub = np.take(mats[s : s + inst], flat[t : t + pairs], axis=1)
            k, p = sub.shape[:2]
            logdet = np.linalg.slogdet(sub.reshape(k * p, n - 1, n - 1))[1]
            out[s : s + k, t : t + p] = logdet.reshape(k, p)
    out = out.reshape(a.shape[:-2] + alpha.shape)
    return float(out) if out.ndim == 0 else out


def green_windows(tab, lam, E):
    """Green's functions of (H - E) on windows of consecutive sites, and their residuals.

    Axis 0 of the symbol table `tab` runs over the sites of every window;
    its other axes are batch axes and come first in the results: the Green's
    functions have shape (..., N*l, N*l) and the residuals, the max-norm
    defects of (H - E) G - I, shape (...).  The pole-free regularized
    matrices are inverted in one stacked call and row-scaled by the
    denominator products.  When that call meets an exactly singular matrix,
    the zero signs of one stacked slogdet (the same getrf) mark the singular
    ones, which get a NaN inverse, hence a NaN residual, and one more stacked
    call inverts the rest.  numpy inverts a stack one matrix at a time, so
    each inverse equals the one-matrix inverse bit for bit.  An overflowed
    entry also leaves a NaN residual; then the first row, in C order, holding
    a non-finite entry raises LinAlgError naming the phase of its site.
    """
    ht = dense_blocks(*regularized_blocks(tab, lam, E))
    try:
        inv = np.linalg.inv(ht)
    except np.linalg.LinAlgError:
        live = np.linalg.slogdet(ht)[0] != 0
        inv = np.full_like(ht, np.nan)
        inv[live] = np.linalg.inv(ht[live])
    eye = np.eye(ht.shape[-1])
    defect = ht @ inv
    defect -= eye
    residual = np.max(np.abs(defect), axis=(-2, -1))
    if not np.isfinite(residual).all():
        rows = np.maximum(ht.max(axis=-1), -ht.min(axis=-1))
        phase = np.repeat(np.moveaxis(tab.phases, 0, -1), tab.m.shape[-1], axis=-1)
        check_overflow(rows, "non-finite entry of Ht at", lambda i: f"phase x={phase.flat[i]:.17g}")
    pref = np.moveaxis(regularization_scale(E) * tab.m, 0, -2)
    return pref.reshape(pref.shape[:-2] + (-1, 1)) * inv, residual


def green_solve(model, params):
    """Green's function of (H - E) over the window, and its solve residual.

    green_windows on one window.  Above a residual of NEAR_SINGULAR_RESIDUAL,
    or at a NaN one (an exactly singular matrix), the energy is flagged NearSingular.
    """
    g, residual = green_windows(window_tables(model, params), params.lam, params.E)
    residual = float(residual)
    if not residual <= NEAR_SINGULAR_RESIDUAL:
        raise NearSingular(
            f"solve residual {residual:.3e} exceeds {NEAR_SINGULAR_RESIDUAL:.1e}",
            residual=residual,
        )
    return g, residual


class BoundFitReport(NamedTuple):
    """Empirical constant for an inequality, fit with the max-slack convention.

    sweep["rows"] holds the per-instance rows, worst slack second to last;
    the minor sweep adds its "zero_minors" and "skipped_small_E" counts.
    group_constants maps each group value (N or lam) to the largest slack
    among its rows; fitted_constant, the largest of those, is the smallest
    constant making the inequality hold over every sample.
    """

    fitted_constant: float
    samples: int
    group_constants: dict
    sweep: dict


def _fit_report(rows, group, samples, **counts):
    """The BoundFitReport of a sweep's rows, grouped by their column `group`."""
    groups = {}
    for row in rows:
        groups[row[group]] = max(groups.get(row[group], float("-inf")), row[-2])
    best = max(groups.values())
    return BoundFitReport(best, samples, groups, {"rows": rows, **counts})


def check_minor_bound(
    model,
    N_list,
    lambda_list,
    E_list,
    x_count=16,
    pairs_per_instance=None,
    seed=0,
):
    """Sweep the scaled log-minor inequality and fit its additive constant.

    For every sampled (N, lam, E, x, alpha, alpha') the slack is
        (1/Nl) log|minor| + (|p - p'|/Nl) log(lam + |E|) - log(1 + lam/|E|).
    A zero minor has slack -inf, which satisfies any bound; it is counted.
    The fitted constant is the max over samples; group_constants holds the
    max per N so the caller can judge stability in N.  Samples with
    |E| < E_MIN are skipped, and a sweep left with no (N, lam, E, x)
    instance raises ValueError.  A (lam, E) whose log(lam + |E|) or
    log(1 + lam/|E|) is not finite (it overflowed) raises LinAlgError before
    any minor is factored, and so does the first (N, lam, E, x) instance with
    a NaN or +inf log-minor (an overflowed entry) before its rows are kept.
    sweep["rows"] holds one (N, lam, E, x, quantity, worst slack, zero
    minors) row per instance, where quantity is the (1/Nl) log|minor| of the
    first sampled pair reaching the worst slack and zero minors counts the
    instance's -inf minors; they sum to sweep["zero_minors"].
    """
    for lam in lambda_list:
        check_coupling(lam)
    check_finite("E_list", E_list)
    l = model.l
    for n in N_list:
        if n < 1:
            raise ValueError("minor sweep needs N >= 1")
        if n * l > 48:
            raise ValueError("minor sweep limited to N*l <= 48")
    # every (lam, E) that is not skipped, with the two log terms of its slack
    live = [
        (lam, E, comparison_rate(lam, E), math.log1p(lam / abs(E)))
        for lam in lambda_list for E in E_list if not abs(E) < E_MIN
    ]
    check_overflow(
        [row[2:] for row in live], "log(lam + |E|) or log(1 + lam/|E|) is not finite at",
        lambda i: f"lam={live[i // 2][0]:g}, E={live[i // 2][1]:g}",
    )
    rng = None  # made at the first sampled instance: numpy.random is a slow import
    xs = midpoint_grid(x_count)
    # one table for sites 1..max(N) (axis 0) at every x (axis 1); N takes its first rows
    sites = np.arange(1, max(N_list, default=0) + 1)[:, None]
    table = symbol_tables(model, model.site_phase(xs[None, :], sites))
    samples = 0
    rows = []
    for n in N_list:
        nl = n * l
        sampled = pairs_per_instance is not None and pairs_per_instance < nl * nl
        rng = np.random.default_rng(seed) if sampled and rng is None else rng
        a, b = np.indices((nl, nl)).reshape(2, -1) + 1
        corners = ((1, nl, 1), (nl, 1, 1))  # the pairs (1, nl), (nl, 1), (1, 1)
        step = max(1, STACK_CHUNK // (nl * nl))  # instances assembled at once
        for lam, E, growth, shift in live:
            for s in range(0, xs.size, step):
                cut = slice(s, s + step)
                hts = dense_blocks(*regularized_blocks(table[:n, cut], lam, float(E)))
                if sampled:  # each instance draws its alphas, then its alpha primes
                    a, b = np.array([
                        [np.r_[rng.integers(1, nl + 1, pairs_per_instance), c] for c in corners]
                        for _ in hts
                    ]).transpose(1, 0, 2)
                    mlog = np.array([minor_logabs(*args) for args in zip(hts, a, b)])
                else:
                    mlog = minor_logabs(hts, a, b)
                check_overflow(
                    mlog, "log|minor| is NaN or +inf (an entry overflowed) at",
                    lambda i: f"N={n}, lam={lam:g}, E={E:g}, x={xs[s + i // mlog.shape[1]]:.17g}",
                )
                p_dist = np.abs((a - 1) // l - (b - 1) // l)
                slack = mlog / nl + (p_dist / nl) * growth - shift
                k = np.argmax(slack, axis=1)
                at = np.arange(k.size)
                zeros = np.count_nonzero(mlog == float("-inf"), axis=1)
                columns = (xs[cut], mlog[at, k] / nl, slack[at, k], zeros)
                rows += [(n, lam, E, *r) for r in zip(*(c.tolist() for c in columns))]
                samples += slack.size
    if not rows:
        raise ValueError(
            f"minor sweep sampled no instance (x_count is 0 or every |E| < {E_MIN:g})"
        )
    return _fit_report(
        rows, 0, samples,
        zero_minors=sum(row[-1] for row in rows),
        skipped_small_E=len(N_list) * (len(lambda_list) * len(E_list) - len(live)),
    )


def midpoint_grid(n):
    return (np.arange(n) + 0.5) / n


def logdet_grid(model, lam, E, window, xs):
    """log |det| of the regularized matrix at each phase in xs (see window_logdets)."""
    check_coupling(lam)
    check_finite("E", E)
    if window[1] < window[0]:
        raise ValueError("window must hold at least one site")
    xs = np.asarray(xs, dtype=float)
    check_finite("xs", xs)
    out, n = np.empty(xs.size), int(window[1]) - int(window[0]) + 1
    for cols, u in _orbit_windows(model, lam, E, xs.reshape(-1), int(window[0]), n, 0, 1):
        out[cols] = u[0]
    return out.reshape(xs.shape)


def _orbit_windows(model, lam, E, xs, first, n, start, stop):
    """Yield (column slice, log|det|) of the n-site windows along x + k*omega.

    Term j is the window of sites first+j..first+j+n-1 at each phase of the
    flat grid xs.  Terms start..stop-1 come in order, per block of 2 to
    TABLE_CHUNK // (n*l^2) columns (a lone last column joins the block before:
    numpy sums one column pairwise) in runs of TABLE_CHUNK // (width * l^2)
    terms, rounded down to even (at least 1), each a (terms, width) array the
    caller may write into, so TABLE_CHUNK bounds a table along both axes.  A
    block writes one table of run + n - 1 rows in place: the n - 1 sites a
    run shares with the one before move to the top.  A run whose phase rows
    all equal those of the run before (a rational rotation repeats its rows
    exactly, and omega = 1/2 those of an even run) evaluates nothing and
    yields a copy of that run's log-determinants; a run keeps that copy only
    when its shared rows equal its first n - 1 rows.
    """
    width, keep = max(2, TABLE_CHUNK // (n * model.l**2)), n - 1
    edges = [*range(0, xs.size - 1 or 1, width), xs.size]
    for c0, c1 in zip(edges, edges[1:]):
        step = max(1, TABLE_CHUNK // ((c1 - c0) * model.l**2) & -2)
        tab = SymbolTables.empty(model, (min(step, stop - start) + keep, c1 - c0))
        last = None  # the run before's log-dets, while this run may repeat it
        for j0 in range(start, stop, step):
            new = keep if j0 > start else 0  # the first row this run evaluates
            for a in tab.arrays() if new else ():
                a[:keep] = a[step : step + keep]  # numpy copies overlapping rows correctly
            end = keep + min(step, stop - j0)
            ks = np.arange(first + j0 + new, first + j0 + end)[:, None]
            # the unreduced phases go into rows of m, which symbol_tables overwrites
            x = np.add(xs[c0:c1], ks * model.omega, out=tab.m[new:end, :, 0])
            if last is not None:  # rows new..end still hold the run before
                if np.array_equal(reduce_phase(x), tab.phases[new:end]):
                    # m held the unreduced phases: put back the product symbol_tables writes
                    np.multiply(tab.fden[new:end], tab.rden[new:end], out=tab.m[new:end])
                    yield slice(c0, c1), last[: end - keep].copy()
                    continue
                last = None
            symbol_tables(model, reduce_phase(x, out=tab.phases[new:end]), out=tab[new:end])
            u = window_logdets(tab[:end], lam, E, n)
            if j0 + step < stop and np.array_equal(tab.phases[step:end], tab.phases[:keep]):
                last = u.copy()  # the caller writes into u
            yield slice(c0, c1), u
            del u  # the caller's now; held here it would outlive the next evaluated run


def window_logdets(tab, lam, E, n):
    """log |det| of the regularized matrices of n consecutive sites.

    Axis 0 of the symbol table `tab` runs over K >= n consecutive sites;
    the result holds one value per window start, shape (K - n + 1, ...).
    Scalar tables (l = 1, the last axis of tab.m) use a rescaled three-term
    recurrence vectorized over the table, which reads only the diagonal;
    block tables assemble the dense matrices of all nodes of a start at
    once and pass the stack to logdet_abs.
    """
    if tab.m.shape[-1] == 1:
        a = regularized_diagonal(tab, lam, E)[..., 0]
        return _scalar_logdets(a, tab.w[..., 0, 0], tab.m[..., 0], regularization_scale(E), n)
    diag, lower, upper = regularized_blocks(tab, lam, E)
    return np.array([
        logdet_abs(dense_blocks(diag[s : s + n], lower[s : s + n - 1], upper[s : s + n - 1]))
        for s in range(diag.shape[0] - n + 1)
    ])


def _scalar_logdets(a, w, m, scale, n):
    """log |D_n| of the three-term recurrence D_i = a_i D_{i-1} - b_i D_{i-2}.

    b_i, the product of the two off-diagonal entries that join sites i - 1
    and i, is formed once for every site of the table.  Rows where max(|D_i|,
    |D_{i-1}|) leaves [1e-100, 1e100] (zero aside) are divided by it and
    its log is carried; a step where no row does skips the rescale, which
    would divide by 1.0 and add log(1.0) = +0.0 to a sum that is never -0.0.
    A row whose first product a_2 D_1 overflows (a coupling above about
    1e154) starts instead from D_1 / |D_1| and carries log |D_1|.
    The products, the three D rows and the two |D| rows live in one work
    block for the whole call, and each step writes into the rows the step
    before has freed; only a rescale step allocates its rows anew.
    """
    starts = a.shape[0] - n + 1
    with np.errstate(divide="ignore"):
        if n == 1:
            return np.log(np.abs(a))
        offprod, factor, *rows = np.empty((6,) + w[1:].shape)
        np.multiply(w[1:], m[1:], out=offprod)
        offprod *= scale
        np.multiply(w[1:], m[:-1], out=factor)
        factor *= scale
        offprod *= factor
        d_prev, d_cur, d_new, abs_cur, abs_new = (r[:starts] for r in [factor, *rows])
        d_prev.fill(1.0)
        d_cur[...] = a[:starts]
        np.abs(d_cur, out=abs_cur)
        logs = np.zeros_like(d_cur)
        for i in range(1, n):
            np.multiply(a[i : i + starts], d_cur, out=d_new)
            d_new -= np.multiply(offprod[i - 1 : i - 1 + starts], d_prev, out=d_prev)
            np.abs(d_new, out=abs_new)
            s = np.maximum(abs_new, abs_cur, out=d_prev)
            # NaN-blind extremes; a zero s only sends the step down the rescale path
            hi, lo = np.fmax.reduce(s, None, initial=0.0), np.fmin.reduce(s, None, initial=1.0)
            if hi > 1e100 or lo < 1e-100:
                if i == 1 and hi == math.inf:
                    # a_2 D_1 overflowed: those rows start over from D_1 / |D_1|
                    r = np.isinf(d_new) & np.isfinite(d_cur)
                    logs[r] = np.log(abs_cur[r])
                    d_cur[r] /= abs_cur[r]
                    d_new[r] = a[1 : 1 + starts][r] * d_cur[r] - offprod[:starts][r] / abs_cur[r]
                    s[r] = np.maximum(np.abs(d_new[r]), 1.0)
                f = np.where((s > 1e100) | ((s < 1e-100) & (s > 0.0)), s, 1.0)
                d_prev = d_cur / f
                d_cur = d_new / f
                abs_cur = np.abs(d_cur)
                logs += np.log(f)
                d_new = s
            else:
                d_prev, d_cur, d_new = d_cur, d_new, s
                abs_cur, abs_new = abs_new, abs_cur
        logs += np.log(abs_cur, out=abs_cur)
        return logs


class AvgLogdet(NamedTuple):
    value: float
    excluded: int
    nodes: int


def avg_logdet(model, lam, E, N, x_grid):
    """Midpoint-rule torus average of (1/Nl) log |det| of the regularized matrix.

    Nodes whose log-determinant underflows to -inf sit on a spectral curve
    of the sampled energy; they are excluded and counted, and more than
    EXCLUSION_LIMIT of them raises TooManyExclusions.  A NaN or +inf node
    (an overflowed entry) raises LinAlgError naming its phase.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 512:
        raise ValueError("x_grid must have at least 512 nodes")
    check_finite("x_grid", xs)
    nl = N * model.l
    u = logdet_grid(model, lam, E, (1, N), xs) / nl
    check_overflow(
        u, "log|det| is NaN or +inf (an entry overflowed) at the quadrature node",
        lambda i: f"x={xs.flat[i]:.17g}",
    )
    finite = np.isfinite(u)
    excluded = int(xs.size - np.count_nonzero(finite))
    if excluded > EXCLUSION_LIMIT * xs.size:
        raise TooManyExclusions(
            f"{excluded}/{xs.size} quadrature nodes underflowed",
            excluded=excluded,
            total=int(xs.size),
        )
    value = math.fsum(u[finite]) / (xs.size - excluded)
    return AvgLogdet(value=value, excluded=excluded, nodes=int(xs.size))


def check_det_lower_bound(model, lambda_list, E_list, N_list, x_grid):
    """Fit the additive constant in the determinant lower bound.

    Per (lam, E, N) the sample constant is log(lam) - avg_logdet, so every
    lam must be > 0 and every N >= 1, and no list may be empty.  sweep["rows"] holds one (N, lam, E,
    avg_logdet, constant, excluded nodes) row per sample; group_constants
    holds the max per lam, so stability under coupling growth can be checked.
    """
    for name, values in (("lambda_list", lambda_list), ("E_list", E_list), ("N_list", N_list)):
        if len(values) == 0:
            raise ValueError(f"det sweep needs a nonempty {name}")
    for lam in lambda_list:
        check_coupling(lam)
        if lam == 0:
            raise ValueError("the determinant lower bound needs lambda > 0: it fits log(lambda)")
    if any(n < 1 for n in N_list):
        raise ValueError("det sweep needs N >= 1")
    check_finite("E_list", E_list)
    xs = np.asarray(x_grid, dtype=float)
    check_finite("x_grid", xs)
    rows = []
    for lam in lambda_list:
        for E in E_list:
            for n in N_list:
                res = avg_logdet(model, lam, E, n, xs)
                rows.append((n, lam, E, res.value, math.log(lam) - res.value, res.excluded))
    return _fit_report(rows, 1, len(rows))
