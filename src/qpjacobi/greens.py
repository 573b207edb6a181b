"""Determinants, minors, Green's-function entries, and the two bound checks.

All determinant work happens in log-magnitude domain: at coupling 1e3 and a
few dozen sites the determinant itself overflows doubles, but its log is a
well-behaved sum of pivot logs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NearSingular, TooManyExclusions
from .operator import (
    OperatorParams,
    assemble_regularized,
    check_coupling,
    dense_blocks,
    index_split,
    regularized_blocks,
    row_prefactors,
)
from .symbols import TABLE_CHUNK, symbol_tables

#: pivots below this magnitude make the log-determinant the -inf sentinel
PIVOT_FLOOR = 1e-300
#: solve residual beyond which an energy counts as numerically singular
NEAR_SINGULAR_RESIDUAL = 1e-6
#: samples with |E| below this are excluded from the minor-bound sweep,
#: because the bound's log(1 + lam/|E|) term diverges at E = 0
E_MIN = 1e-6
#: fraction of underflowed quadrature nodes tolerated by avg_logdet
EXCLUSION_LIMIT = 0.01
#: matrix elements gathered per stacked slogdet in minor_logabs; bounds its
#: memory (every pair of an N*l <= 23 window still fits in one call)
MINOR_CHUNK = 1 << 18


def logdet_abs(mat):
    """log |det| from a row-pivoted LU; -inf when a pivot underflows."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.size == 0:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, _ = scipy.linalg.lu_factor(a, check_finite=False)
    d = np.abs(np.diag(lu))
    if np.any(d < PIVOT_FLOOR):
        return float("-inf")
    return float(np.sum(np.log(d)))


def minor_oracle(mat, alpha, alpha_prime):
    """Determinant of `mat` with row alpha_prime and column alpha deleted.

    Flat indices are 1-based.  This is the minor that pairs with the
    (alpha, alpha_prime) entry of the inverse under Cramer's rule.
    """
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")
    if not (1 <= alpha <= n and 1 <= alpha_prime <= n):
        raise IndexError("flat index out of range")
    sub = np.delete(np.delete(a, alpha_prime - 1, axis=0), alpha - 1, axis=1)
    return float(np.linalg.det(sub))


def minor_logabs(mat, alpha, alpha_prime):
    """log |minor| without row alpha_prime and column alpha; -inf if singular.

    Flat indices are 1-based scalars or broadcastable arrays; the requested
    submatrices are gathered and factored by stacked slogdet calls of at
    most MINOR_CHUNK matrix elements each.
    """
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    alpha, alpha_prime = np.broadcast_arrays(alpha, alpha_prime)
    if np.any((alpha < 1) | (alpha > n) | (alpha_prime < 1) | (alpha_prime > n)):
        raise IndexError("flat index out of range")
    keep = np.arange(n - 1)
    drop_col, drop_row = alpha.reshape(-1, 1) - 1, alpha_prime.reshape(-1, 1) - 1
    out = np.empty(alpha.size)
    step = max(1, MINOR_CHUNK // max(1, (n - 1) ** 2))
    for s in range(0, out.size, step):
        rows = keep + (keep >= drop_row[s : s + step])
        cols = keep + (keep >= drop_col[s : s + step])
        out[s : s + step] = np.linalg.slogdet(a[rows[:, :, None], cols[:, None, :]])[1]
    return float(out[0]) if alpha.ndim == 0 else out.reshape(alpha.shape)


def green_full(model, params):
    """Green's function of (H - E) over the window, via the regularized route.

    Solves with the pole-free regularized matrix and row-scales by the
    denominator products.  The reported residual equals the max-norm defect
    of (H - E) G - I; above NEAR_SINGULAR_RESIDUAL the energy is flagged
    NearSingular.
    """
    ht = assemble_regularized(model, params).to_dense()
    n = ht.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu = scipy.linalg.lu_factor(ht, check_finite=False)
        inv = scipy.linalg.lu_solve(lu, np.eye(n), check_finite=False)
    residual = float(np.max(np.abs(ht @ inv - np.eye(n))))
    if not np.isfinite(residual) or residual > NEAR_SINGULAR_RESIDUAL:
        raise NearSingular(
            f"solve residual {residual:.3e} exceeds {NEAR_SINGULAR_RESIDUAL:.1e}",
            residual=residual,
        )
    return row_prefactors(model, params)[:, None] * inv


@dataclass(frozen=True)
class GreenEntryQuery:
    """A pair of 1-based flat indices into an N*l window matrix."""

    alpha: int
    alpha_prime: int

    def split(self, l, n_sites=None):
        return (
            index_split(self.alpha, l, n_sites),
            index_split(self.alpha_prime, l, n_sites),
        )


def green_entry_cramer(model, params, query):
    """|G(alpha, alpha')| via the minor/determinant ratio.

    The row prefactor uses the site and intra-block index of alpha, which is
    what the exact diagonal-scaling identity dictates.
    """
    if not isinstance(query, GreenEntryQuery):
        query = GreenEntryQuery(*query)
    ht = assemble_regularized(model, params).to_dense()
    sign, logdet = np.linalg.slogdet(ht)
    if sign == 0 or not np.isfinite(logdet):
        raise NearSingular("regularized matrix is numerically singular")
    (p, q), _ = query.split(model.l, params.n_sites)
    u, _ = params.window
    y = model.site_phase(params.x, u + p)
    pref = abs(float(model.m_values(y)[q - 1])) / math.sqrt(1.0 + params.E**2)
    if pref == 0.0:
        return 0.0
    # a zero minor (log -inf) gives exp(-inf) = 0
    return math.exp(math.log(pref) + minor_logabs(ht, query.alpha, query.alpha_prime) - logdet)


@dataclass(frozen=True)
class BoundFitReport:
    """Empirical constant for an inequality, fit with the max-slack convention.

    fitted_constant is the smallest constant making the inequality hold over
    every sample.
    """

    fitted_constant: float
    samples: int
    group_constants: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)

    def group_spread(self):
        """Relative spread of the per-group constants (stability diagnostic)."""
        vals = [v for v in self.group_constants.values() if np.isfinite(v)]
        if len(vals) < 2:
            return 0.0
        scale = max(abs(v) for v in vals)
        if scale == 0.0:
            return 0.0
        return (max(vals) - min(vals)) / scale


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
    The fitted constant is the max over samples; per-N maxima are kept so the
    caller can judge stability in N.  Samples with |E| < E_MIN are skipped,
    and a sweep left with no (N, lam, E, x) instance raises ValueError.
    sweep["rows"] holds one (N, lam, E, x, quantity, worst slack) row per
    instance, where quantity is the (1/Nl) log|minor| of the first sampled
    pair reaching the worst slack.
    """
    for lam in lambda_list:
        check_coupling(lam)
    l = model.l
    for n in N_list:
        if n * l > 48:
            raise ValueError("minor sweep limited to N*l <= 48")
    rng = np.random.default_rng(seed)
    xs = (np.arange(x_count) + 0.5) / x_count
    samples = 0
    skipped_e = 0
    zero_minors = 0
    per_n = {}
    rows = []
    best = float("-inf")
    for n in N_list:
        nl = n * l
        group = float("-inf")
        sampled = pairs_per_instance is not None and pairs_per_instance < nl * nl
        a, b = np.indices((nl, nl)).reshape(2, -1) + 1
        for lam in lambda_list:
            for E in E_list:
                if abs(E) < E_MIN:
                    skipped_e += 1
                    continue
                growth, shift = math.log(lam + abs(E)), math.log1p(lam / abs(E))
                for x in xs:
                    params = OperatorParams(lam=lam, x=float(x), E=float(E), window=(1, n))
                    ht = assemble_regularized(model, params).to_dense()
                    if sampled:
                        a = np.r_[rng.integers(1, nl + 1, pairs_per_instance), 1, nl, 1]
                        b = np.r_[rng.integers(1, nl + 1, pairs_per_instance), nl, 1, 1]
                    mlog = minor_logabs(ht, a, b)
                    p_dist = np.abs((a - 1) // l - (b - 1) // l)
                    slack = mlog / nl + (p_dist / nl) * growth - shift
                    k = int(np.argmax(slack))
                    rows.append((n, lam, E, float(x), float(mlog[k] / nl), float(slack[k])))
                    samples += slack.size
                    zero_minors += int(np.count_nonzero(slack == float("-inf")))
                    group = max(group, float(slack[k]))
        per_n[f"N={n}"] = group
        best = max(best, group)
    if not rows:
        raise ValueError(
            f"minor sweep sampled no instance (x_count is 0 or every |E| < {E_MIN:g})"
        )
    return BoundFitReport(
        fitted_constant=best,
        samples=samples,
        group_constants=per_n,
        sweep={
            "N": list(N_list),
            "lambda": list(lambda_list),
            "E": list(E_list),
            "x_count": x_count,
            "skipped_small_E": skipped_e,
            "zero_minors": zero_minors,
            "seed": seed,
            "rows": rows,
        },
    )


def midpoint_grid(n):
    return (np.arange(n) + 0.5) / n


def logdet_grid(model, lam, E, window, xs):
    """log |det| of the regularized matrix at each phase in xs (see window_logdets)."""
    check_coupling(lam)
    if window[1] < window[0]:
        raise ValueError("window must hold at least one site")
    xs = np.asarray(xs, dtype=float)
    sites = np.arange(int(window[0]), int(window[1]) + 1)[:, None]
    flat = xs.reshape(-1)
    out = np.empty(flat.shape)
    step = max(1, TABLE_CHUNK // (sites.size * model.l**2))
    for s in range(0, flat.size, step):
        tab = symbol_tables(model, model.site_phase(flat[None, s : s + step], sites))
        out[s : s + step] = window_logdets(model, lam, E, tab, sites.size)[0]
    return out.reshape(xs.shape)


def window_logdets(model, lam, E, tab, n):
    """log |det| of the regularized matrices of n consecutive sites.

    Axis 0 of the symbol table `tab` runs over K >= n consecutive sites;
    the result holds one value per window start, shape (K - n + 1, ...).
    Scalar models use a rescaled three-term recurrence vectorized over the
    table; block models assemble the dense matrices of all nodes at once
    and factor each with logdet_abs.
    """
    diag, lower, upper = regularized_blocks(tab, lam, E, model.r_sign)
    starts = diag.shape[0] - n + 1
    if model.l == 1:
        scale = 1.0 / math.sqrt(1.0 + E * E)
        return _scalar_logdets(diag[..., 0, 0], tab.w[..., 0, 0], tab.m[..., 0], scale, n)
    nl = n * model.l
    out = np.empty((starts,) + diag.shape[1:-2])
    rows = out.reshape(starts, -1)
    for s in range(starts):
        dense = dense_blocks(diag[s : s + n], lower[s : s + n - 1], upper[s : s + n - 1])
        rows[s] = [logdet_abs(a) for a in dense.reshape(-1, nl, nl)]
    return out


def _scalar_logdets(a, w, m, scale, n):
    starts = a.shape[0] - n + 1
    with np.errstate(divide="ignore"):
        if n == 1:
            return np.log(np.abs(a))
        d_prev = np.ones_like(a[:starts])
        d_cur = a[:starts].copy()
        logs = np.zeros_like(d_cur)
        for i in range(1, n):
            wi = w[i : i + starts]
            offprod = (wi * m[i : i + starts] * scale) * (wi * m[i - 1 : i - 1 + starts] * scale)
            d_new = a[i : i + starts] * d_cur - offprod * d_prev
            s = np.maximum(np.abs(d_new), np.abs(d_cur))
            f = np.where((s > 1e100) | ((s < 1e-100) & (s > 0.0)), s, 1.0)
            d_prev = d_cur / f
            d_cur = d_new / f
            logs += np.log(f)
        return logs + np.log(np.abs(d_cur))


@dataclass(frozen=True)
class AvgLogdet:
    value: float
    excluded: int
    nodes: int


def avg_logdet(model, lam, E, N, x_grid):
    """Midpoint-rule torus average of (1/Nl) log |det| of the regularized matrix.

    Nodes whose log-determinant underflows to -inf sit on a spectral curve
    of the sampled energy; they are excluded and counted, and more than
    EXCLUSION_LIMIT of them raises TooManyExclusions.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.size < 512:
        raise ValueError("x_grid must have at least 512 nodes")
    nl = N * model.l
    u = logdet_grid(model, lam, E, (1, N), xs) / nl
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
    lam must be > 0; the report carries per-lambda maxima so stability under
    coupling growth can be checked.
    """
    for lam in lambda_list:
        check_coupling(lam)
        if lam == 0:
            raise ValueError("the determinant lower bound needs lambda > 0: it fits log(lambda)")
    xs = np.asarray(x_grid, dtype=float)
    samples = 0
    per_lambda = {}
    rows = []
    best = float("-inf")
    for lam in lambda_list:
        group = float("-inf")
        for E in E_list:
            for n in N_list:
                res = avg_logdet(model, lam, E, n, xs)
                c1 = math.log(lam) - res.value
                rows.append((n, lam, E, res.value, c1, res.excluded))
                group = max(group, c1)
                samples += 1
        per_lambda[f"lambda={lam:g}"] = group
        best = max(best, group)
    return BoundFitReport(
        fitted_constant=best,
        samples=samples,
        group_constants=per_lambda,
        sweep={
            "N": list(N_list),
            "lambda": list(lambda_list),
            "E": list(E_list),
            "nodes": int(xs.size),
            "rows": rows,
        },
    )
