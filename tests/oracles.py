"""Slow reference paths kept as oracles for the vectorized ones.

Each function evaluates the model one site and one symbol at a time, the
way the package did before every consumer moved onto `symbol_tables`.
Symbols are called at scalar phases, so these loops also pin the values of
the scalar evaluation path.
"""

import math
import warnings

import numpy as np
import scipy.linalg

from qpjacobi.errors import NearSingular, PoleProximity
from qpjacobi.greens import NEAR_SINGULAR_RESIDUAL, logdet_abs, logdet_grid
from qpjacobi.localization import (
    DEFAULT_MARGIN,
    FIT_EXCLUDE_RADIUS,
    FIT_FLOOR,
    FIT_MIN_POINTS,
    FIT_RESIDUAL_MAX,
    RATE_FRACTION,
    DecayFit,
    LocalizationReport,
    PairRecord,
    ShiftRecord,
    block_profile,
    eigensolve,
)
from qpjacobi.operator import OperatorParams
from qpjacobi.operator import assemble_hamiltonian as package_hamiltonian
from qpjacobi.operator import assemble_regularized as package_regularized
from qpjacobi.symbols import BlockModel, Dioph, MeroScalar, TrigPoly

#: pivots below this magnitude make logdet_lu the -inf sentinel
PIVOT_FLOOR = 1e-300


def real_values(poly, y):
    """Real part of `poly` at the reduced phases y, one exponential per mode."""
    acc = np.zeros(np.shape(y))
    for k, c in poly.items():
        if k == 0:
            acc += c.real
            continue
        mode = np.exp((2j * np.pi * k) * y)
        acc += c.real * mode.real - c.imag * mode.imag
    return acc


def check_poles(model, y, site=None):
    for i in range(model.l):
        for sym in (model.F[i][i], model.R[i][i]):
            if abs(sym.den(y)) < model.pole_tol:
                raise PoleProximity(
                    f"diagonal denominator below pole_tol at phase {y}"
                    + (f" (site {site})" if site is not None else ""),
                    phase=float(y),
                    site=site,
                )


def _matrix(grid, y, l):
    return np.array([[float(grid[i][j](y)) for j in range(l)] for i in range(l)])


def _w(model, y):
    return _matrix(model.W, y, model.l)


def _m(model, y):
    return np.array([model.F[i][i].den(y) * model.R[i][i].den(y) for i in range(model.l)])


def det_ft_m(model, ts, xs):
    """det[(F(x) - t) M(x)] for each t of ts (axis 0) at each phase of the flat
    array xs (axis 1), every symbol called on its own."""
    l = model.l
    mat = np.empty((len(ts), len(xs), l, l))
    for j in range(l):
        f, r = model.F[j][j], model.R[j][j]
        fden, rden = f.den(xs), r.den(xs)
        for i in range(l):
            if i == j:
                mat[:, :, j, j] = (f.num(xs) - np.multiply.outer(ts, fden)) * rden
            else:
                mat[:, :, i, j] = model.F[i][j](xs) * fden * rden
    return np.linalg.det(mat)


def degenerate_on_grid(model, ts, xs, tol=1e-10):
    """The t values of ts with no phase of xs where |det[(F - t)M]| > tol: a
    grid search for a witness, the sampled stand-in for the exact check."""
    dets = np.abs(det_ft_m(model, ts, np.asarray(xs, dtype=float)))
    return [t for t, row in zip(ts, dets) if not (row > tol).any()]


def mahler_quadrature(model, ts, n, chunk=1 << 16):
    """The n-node midpoint rule for the integral over [0, 1) of
    log|det[(F - t)M]|, one value per t of ts."""
    total = np.zeros(len(ts))
    for start in range(0, n, chunk):
        xs = (np.arange(start, min(start + chunk, n)) + 0.5) / n
        total += np.log(np.abs(det_ft_m(model, ts, xs))).sum(axis=1)
    return total / n


def _dense(diag, lower, upper):
    """Dense (n*l, n*l) matrix of n diagonal and n-1 lower/upper l x l blocks, block by block."""
    n, l = diag.shape[0], diag.shape[-1]
    out = np.zeros((n * l, n * l))
    for i in range(n):
        out[i * l : (i + 1) * l, i * l : (i + 1) * l] = diag[i]
    for i in range(n - 1):
        out[(i + 1) * l : (i + 2) * l, i * l : (i + 1) * l] = lower[i]
        out[i * l : (i + 1) * l, (i + 1) * l : (i + 2) * l] = upper[i]
    return out


def assemble_hamiltonian(model, params, r_sign=-1):
    """Dense H with on-site blocks lam*F + r_sign*R: the library's lam*F - R by
    default, and with r_sign=+1 the block a model file of that sign describes."""
    u, v = params.window
    n, l = params.n_sites, model.l
    diag = np.empty((n, l, l))
    for idx, site in enumerate(range(u, v + 1)):
        y = model.site_phase(params.x, site)
        check_poles(model, y, site=site)
        diag[idx] = params.lam * _matrix(model.F, y, l) + r_sign * _matrix(model.R, y, l)
    upper = np.empty((max(n - 1, 0), l, l))
    lower = np.empty_like(upper)
    for idx in range(n - 1):
        wv = _w(model, model.site_phase(params.x, u + idx + 1))
        upper[idx] = -wv
        lower[idx] = -wv.T
    return _dense(diag, lower, upper)


def assemble_regularized(model, params):
    u, v = params.window
    n, l = params.n_sites, model.l
    lam, E = params.lam, params.E
    scale = 1.0 / math.sqrt(1.0 + E * E)
    phases = [model.site_phase(params.x, site) for site in range(u, v + 1)]
    mvals = [_m(model, y) for y in phases]
    diag = np.empty((n, l, l))
    for idx, y in enumerate(phases):
        fden = [float(model.F[i][i].den(y)) for i in range(l)]
        rden = [float(model.R[i][i].den(y)) for i in range(l)]
        fnum = [float(model.F[i][i].num(y)) for i in range(l)]
        rnum = [float(model.R[i][i].num(y)) for i in range(l)]
        blk = np.empty((l, l))
        for a in range(l):
            for b in range(l):
                if a == b:
                    blk[a, a] = (
                        lam * fnum[a] * rden[a]
                        - rnum[a] * fden[a]
                        - E * fden[a] * rden[a]
                    )
                else:
                    blk[a, b] = (lam * model.F[a][b](y) - model.R[a][b](y)) * mvals[idx][b]
        diag[idx] = scale * blk
    upper = np.empty((max(n - 1, 0), l, l))
    lower = np.empty_like(upper)
    for idx in range(n - 1):
        wv = _w(model, phases[idx + 1])
        upper[idx] = -scale * wv * mvals[idx + 1][None, :]
        lower[idx] = -scale * wv.T * mvals[idx][None, :]
    return _dense(diag, lower, upper)


def trig_sum(*polys):
    """The TrigPoly sum of `polys`, from their added coefficient dicts."""
    acc = {}
    for p in polys:
        for k, c in p.items():
            acc[k] = acc.get(k, 0.0) + c
    return TrigPoly(acc)


def trig_product(*polys):
    """The TrigPoly product of `polys`, left to right, from convolved coefficient dicts."""
    prod = polys[0]
    for p in polys[1:]:
        acc = {}
        for k1, c1 in prod.items():
            for k2, c2 in p.items():
                acc[k1 + k2] = acc.get(k1 + k2, 0.0) + c1 * c2
        prod = TrigPoly(acc)
    return prod


def row_prefactors(model, params):
    u, v = params.window
    scale = 1.0 / math.sqrt(1.0 + params.E * params.E)
    return np.concatenate(
        [scale * _m(model, model.site_phase(params.x, site)) for site in range(u, v + 1)]
    )


def hopping_sup_bound(model):
    """Coefficient-sum bound for sup_x of any regularized hopping entry."""
    best = 0.0
    for i in range(model.l):
        for j in range(model.l):
            prod = trig_product(model.W[i][j], model.F[j][j].den, model.R[j][j].den)
            best = max(best, prod.coeff_abs_sum())
    return best


def onsite_sup_bound(model):
    """S1, S2, S3 with sup |Vt entry| <= lam*S1 + S2 + |E|*S3 at any phase."""
    s1 = s2 = s3 = 0.0
    for a in range(model.l):
        for b in range(model.l):
            if a == b:
                s1 = max(s1, trig_product(model.F[a][a].num, model.R[a][a].den).coeff_abs_sum())
                s2 = max(s2, trig_product(model.R[a][a].num, model.F[a][a].den).coeff_abs_sum())
                s3 = max(s3, trig_product(model.F[a][a].den, model.R[a][a].den).coeff_abs_sum())
            else:
                m_col = trig_product(model.F[b][b].den, model.R[b][b].den)
                s1 = max(s1, trig_product(model.F[a][b], m_col).coeff_abs_sum())
                s2 = max(s2, trig_product(model.R[a][b], m_col).coeff_abs_sum())
    return s1, s2, s3


def logdet_lu(mat):
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


def scalar_logdets(a, w, m, scale, n):
    """The l = 1 recurrence as it stood before its off-diagonal products were
    formed once per table: products every step, a rescale every step."""
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


def logdet_per_node(model, lam, E, window, xs):
    """Dense log |det| of the regularized matrix, one node at a time."""
    return np.array([
        logdet_abs(assemble_regularized(model, OperatorParams(lam, float(x), E, window)))
        for x in np.asarray(xs, dtype=float).ravel()
    ])


def orbit_average(model, lam, E, N, Q, xs, floor):
    """Birkhoff average of the density from one logdet_grid call per orbit point."""
    acc = np.zeros(xs.shape)
    floored = 0
    for j in range(Q):
        u = logdet_grid(model, lam, E, (1, N), (xs + j * model.omega) % 1.0) / (N * model.l)
        floored += int(np.count_nonzero(u < floor))
        acc += np.maximum(u, floor)
    return acc / Q, floored


def maryland_lyapunov(lam, E):
    """Lyapunov exponent of the Maryland model lam*tan(2 pi x) with unit
    hopping (Figotin & Pastur, CMP 95, 401 (1984)):
    cosh L = (sqrt((2 - E)^2 + lam^2) + sqrt((2 + E)^2 + lam^2)) / 4."""
    E = np.asarray(E, dtype=float)
    return np.arccosh((np.sqrt((2.0 - E) ** 2 + lam**2) + np.sqrt((2.0 + E) ** 2 + lam**2)) / 4.0)


def _unit_hopping(f, den=None):
    """The scalar model W = 1, F = f / den, R = 0 at the golden rotation."""
    return BlockModel(
        W=[[TrigPoly.constant(1.0)]],
        R=[[MeroScalar.from_ratio(TrigPoly.zero())]],
        F=[[MeroScalar.from_ratio(f, den)]],
        omega=(math.sqrt(5.0) - 1.0) / 2.0,
        dioph=Dioph(2.0, 0.1),
    )


def almost_mathieu():
    """The almost-Mathieu operator u(n+1) + u(n-1) + lam cos(2 pi (x + n omega)) u(n)
    at the golden rotation: W = 1, F = cos(2 pi x), R = 0."""
    return _unit_hopping(TrigPoly.cosine())


def rotated_pair():
    """A 2x2 model and the two scalar models it is made of.

    The pair has W = I, R = 0 and F = U diag(cos, 0.6 sin) U^T, with U the
    rotation by the angle 0.7, at the golden rotation.  Conjugation by I (x) U maps
    its H onto the direct sum of the scalar models' H, which are W = 1, R = 0
    and F = cos (almost_mathieu) or F = 0.6 sin.  Their M is 1, so the
    pair's regularized determinant is the product of theirs too.
    """
    c, s = math.cos(0.7), math.sin(0.7)
    cos, sin = TrigPoly.cosine, TrigPoly.sine
    f00 = trig_sum(cos(amp=c * c), sin(amp=0.6 * s * s))
    f11 = trig_sum(cos(amp=s * s), sin(amp=0.6 * c * c))
    f01 = trig_sum(cos(amp=c * s), sin(amp=-0.6 * c * s))
    one, zero, rz = TrigPoly.constant(1.0), TrigPoly.zero(), MeroScalar.from_ratio(TrigPoly.zero())
    pair = BlockModel(
        W=[[one, zero], [zero, one]],
        R=[[rz, zero], [zero, rz]],
        F=[[MeroScalar.from_ratio(f00), f01], [f01, MeroScalar.from_ratio(f11)]],
        omega=(math.sqrt(5.0) - 1.0) / 2.0,
        dioph=Dioph(2.0, 0.1),
    )
    return pair, (almost_mathieu(), _unit_hopping(sin(amp=0.6)))


def meromorphic_pair():
    """A 2x2 model with poles on both diagonals and the two scalar models it is made of.

    The pair has W = I, R = 0 and F = diag(tan, 0.5 tan(. - 0.3)), with
    tan = sin / cos, at the golden rotation: the Maryland model (W = 1,
    R = 0, F = tan) and its shifted half-coupling twin.  Each component keeps
    its own pole factor M, cos or cos(. - 0.3), so the pair's regularized
    determinant is the product of the scalar ones only if the block path
    scales each component by its own M.
    """
    sin, cos = TrigPoly.sine, TrigPoly.cosine
    f0, f1 = (sin(), cos()), (sin(amp=0.5, shift=0.3), cos(shift=0.3))
    one, zero, rz = TrigPoly.constant(1.0), TrigPoly.zero(), MeroScalar.from_ratio(TrigPoly.zero())
    pair = BlockModel(
        W=[[one, zero], [zero, one]],
        R=[[rz, zero], [zero, rz]],
        F=[[MeroScalar.from_ratio(*f0), zero], [zero, MeroScalar.from_ratio(*f1)]],
        omega=(math.sqrt(5.0) - 1.0) / 2.0,
        dioph=Dioph(2.0, 0.1),
    )
    return pair, (_unit_hopping(*f0), _unit_hopping(*f1))


def almost_mathieu_lyapunov(lam):
    """The almost-Mathieu Lyapunov exponent on the spectrum, log(lam / 2) for
    lam > 2 (Bourgain & Jitomirskaya, J. Stat. Phys. 108, 1203 (2002))."""
    return math.log(lam / 2.0)


def _transfer_terms(m, lam, x, j):
    y = m.site_phase(x, j)
    wn = float(m.W[0][0](m.site_phase(x, j + 1)))
    fsym, rsym = m.F[0][0], m.R[0][0]
    if abs(fsym.den(y)) < m.pole_tol or abs(rsym.den(y)) < m.pole_tol or abs(wn) < 1e-12:
        return None
    return lam * fsym(y) - rsym(y), float(m.W[0][0](y)), wn


def lyapunov_transfer(m, lam, E, n_steps, x=0.0):
    """(rate, skipped) of the scalar transfer product, one step at a time."""
    mat = np.eye(2)
    acc = 0.0
    used = skipped = 0
    for j in range(n_steps):
        terms = _transfer_terms(m, lam, x, j)
        if terms is None:
            skipped += 1
            continue
        onsite, wp, wn = terms
        step = np.array([[(onsite - E) / wn, -wp / wn], [1.0, 0.0]])
        mat = step @ mat
        s = np.max(np.abs(mat))
        acc += math.log(s)
        mat /= s
        used += 1
    return (acc + math.log(np.linalg.norm(mat, 2))) / used, skipped


def lyapunov_rates(m, lam, energies, n_steps, x=0.0):
    es = np.asarray(energies, dtype=float)
    m00, m01, m10, m11 = np.ones_like(es), np.zeros_like(es), np.zeros_like(es), np.ones_like(es)
    acc = np.zeros_like(es)
    used = 0
    for j in range(n_steps):
        terms = _transfer_terms(m, lam, x, j)
        if terms is None:
            continue
        onsite, wp, wn = terms
        d = (onsite - es) / wn
        b = -wp / wn
        m00, m01, m10, m11 = d * m00 + b * m10, d * m01 + b * m11, m00, m01
        s = np.maximum.reduce([np.abs(m00), np.abs(m01), np.abs(m10), np.abs(m11)])
        acc += np.log(s)
        m00, m01, m10, m11 = m00 / s, m01 / s, m10 / s, m11 / s
        used += 1
    return (acc + np.log(np.sqrt(m00**2 + m01**2 + m10**2 + m11**2))) / used


def minor_logabs(mat, alpha, alpha_prime):
    """log |minor| of one pair: delete row alpha_prime and column alpha, then slogdet."""
    a = np.asarray(mat, dtype=float)
    sub = np.delete(np.delete(a, alpha_prime - 1, axis=0), alpha - 1, axis=1)
    if sub.size == 0:
        return 0.0
    return float(np.linalg.slogdet(sub)[1])


def minor_bound_slack(nl, log_minor, p_dist, lam, E):
    if log_minor == float("-inf"):
        return float("-inf")
    return log_minor / nl + (p_dist / nl) * math.log(lam + abs(E)) - math.log1p(lam / abs(E))


def minor_sweep(model, N_list, lambda_list, E_list, x_count, e_min, pairs_per_instance=None, seed=0):
    """Rows, samples, zero minors and per-N constants of the minor sweep, one pair at a time.

    Sampled pairs are drawn per instance as `pairs_per_instance` alphas, then
    as many alpha primes, followed by the corner pairs (1, Nl), (Nl, 1), (1, 1).
    """
    rng = np.random.default_rng(seed)
    xs = (np.arange(x_count) + 0.5) / x_count
    rows, groups = [], {}
    samples = zero_minors = 0
    for n in N_list:
        nl = n * model.l
        group = float("-inf")
        for lam in lambda_list:
            for E in E_list:
                if abs(E) < e_min:
                    continue
                for x in xs:
                    params = OperatorParams(lam=lam, x=float(x), E=float(E), window=(1, n))
                    ht = assemble_regularized(model, params)
                    if pairs_per_instance is None or pairs_per_instance >= nl * nl:
                        pairs = [(a, b) for a in range(1, nl + 1) for b in range(1, nl + 1)]
                    else:
                        alphas = rng.integers(1, nl + 1, pairs_per_instance)
                        primes = rng.integers(1, nl + 1, pairs_per_instance)
                        pairs = [(int(a), int(b)) for a, b in zip(alphas, primes)]
                        pairs += [(1, nl), (nl, 1), (1, 1)]
                    worst = quantity = float("-inf")
                    zeros = 0
                    for a, b in pairs:
                        ml = minor_logabs(ht, a, b)
                        p_dist = abs((a - 1) // model.l - (b - 1) // model.l)
                        slack = minor_bound_slack(nl, ml, p_dist, lam, E)
                        samples += 1
                        if slack > worst:
                            worst, quantity = slack, ml / nl
                        if slack == float("-inf"):
                            zeros += 1
                        else:
                            group = max(group, slack)
                    rows.append((n, lam, E, float(x), quantity, worst, zeros))
                    zero_minors += zeros
        groups[n] = group
    return {"rows": rows, "samples": samples, "zero_minors": zero_minors, "groups": groups}


def minor_rows(model, N_list, lambda_list, E_list, x_count, e_min):
    """Per-instance (N, lam, E, x, quantity, worst slack, zero minors) over every entry pair."""
    return minor_sweep(model, N_list, lambda_list, E_list, x_count, e_min)["rows"]


def green_full(model, params):
    """Green's function from numpy's inverse of one assembled regularized window."""
    ht = package_regularized(model, params)
    n = ht.shape[0]
    try:
        inv = np.linalg.inv(ht)
    except np.linalg.LinAlgError:
        inv = np.full_like(ht, np.nan)
    residual = float(np.max(np.abs(ht @ inv - np.eye(n))))
    if not np.isfinite(residual) or residual > NEAR_SINGULAR_RESIDUAL:
        raise NearSingular(f"solve residual {residual:.3e}", residual=residual)
    return row_prefactors(model, params)[:, None] * inv


def green_scipy_lu(model, params):
    """Green's function from scipy's LU factor and solve of one assembled
    regularized window: a second LAPACK build, with no residual check."""
    ht = package_regularized(model, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu = scipy.linalg.lu_factor(ht, check_finite=False)
        inv = scipy.linalg.lu_solve(lu, np.eye(ht.shape[0]), check_finite=False)
    return row_prefactors(model, params)[:, None] * inv


def green_decay_scan(model, lam, E, x0, N0, shifts, c11=None):
    """(records, c11, counts) of the Green-decay scan, one assembled and solved window at a time.

    Every window without a pole is eigensolved: it is resonant unless the
    distance of E to its spectrum is at least exp(-N0/2)."""
    rate0 = math.log(lam + abs(E))
    nl = N0 * model.l
    cut = math.exp(-N0 / 2.0)
    raw = []
    for j in shifts:
        params = OperatorParams(lam=lam, x=x0, E=E, window=(-N0 + j, N0 + j))
        try:
            h = package_hamiltonian(model, params)
        except PoleProximity:
            raw.append((j, "pole", float("nan"), False))
            continue
        resonant = not float(np.min(np.abs(np.linalg.eigvalsh(h) - E))) >= cut
        try:
            g = green_full(model, params)
        except NearSingular:
            raw.append((j, "near_singular", float("inf"), resonant))
            continue
        if not g.all():  # an entry underflowed to 0: the window's slack is not known
            raw.append((j, "underflowed", float("inf"), resonant))
            continue
        p = np.arange(g.shape[0]) // model.l
        with np.errstate(divide="ignore"):
            slack = np.log(np.abs(g)) + np.abs(p[:, None] - p[None, :]) * rate0
        raw.append((j, None, float(np.max(slack)) / nl, resonant))
    if c11 is None:
        if any(st == "underflowed" and not res for _, st, _, res in raw):
            raise np.linalg.LinAlgError("|G| underflowed on a window c11 is fitted over")
        c11 = max(t for _, st, t, res in raw if st is None and not res)
    records = []
    counts = {"good": 0, "bad": 0, "near_singular": 0, "pole": 0, "underflowed": 0}
    for j, st, t, res in raw:
        if st is not None:
            counts[st] += 1
            records.append(ShiftRecord(j, st, float("nan") if st == "pole" else float("inf"), res))
            continue
        slack = (t - c11) * nl
        status = "good" if slack <= 0.0 else "bad"
        counts[status] += 1
        records.append(ShiftRecord(j, status, slack, res))
    return records, c11, counts


def norm_bound_leaves_open(model, lam, E, x0, N0, shift):
    """Whether the scan's norm bound leaves the pole-free window of `shift` to
    the eigensolve: not ||G||_F exp(-N0/2) <= 1 - n * residual, n = (2 N0 + 1) l,
    from the window's own inverse (an exactly singular one stays open)."""
    params = OperatorParams(lam=lam, x=x0, E=E, window=(-N0 + shift, N0 + shift))
    ht = package_regularized(model, params)
    n = ht.shape[0]
    try:
        inv = np.linalg.inv(ht)
    except np.linalg.LinAlgError:
        return True
    residual = float(np.max(np.abs(ht @ inv - np.eye(n))))
    g = row_prefactors(model, params)[:, None] * inv
    with np.errstate(over="ignore"):
        frob = float(np.sqrt(np.sum(g * g)))
    return not frob * math.exp(-N0 / 2.0) <= 1.0 - n * residual


def decay_fit(profile):
    """DecayFit of one profile from its own lstsq call, or None when fewer
    than FIT_MIN_POINTS sites qualify."""
    p = np.asarray(profile, dtype=float)
    center = int(np.argmax(p))
    d = np.abs(np.arange(p.size) - center)
    mask = (p > FIT_FLOOR) & (d >= FIT_EXCLUDE_RADIUS)
    n_pts = int(np.count_nonzero(mask))
    if n_pts < FIT_MIN_POINTS:
        return None
    x = d[mask].astype(float)
    y = np.log(p[mask])
    design = np.stack([x, np.ones_like(x)], axis=1)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    misfit = y - design @ beta
    sigma2 = float(misfit @ misfit) / max(n_pts - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    resid = math.sqrt(sigma2 / sxx) if sxx > 0 else float("inf")
    return DecayFit(center, max(0.0, -float(beta[0])), resid, n_pts)


def localize(model, lam, x0, N, margin=DEFAULT_MARGIN):
    """LocalizationReport from one decay_fit call and one status ladder per eigenpair."""
    params = OperatorParams(lam=lam, x=x0, E=0.0, window=(-N, N))
    energies, vectors, residuals = eigensolve(package_hamiltonian(model, params))
    records = []
    counts = {"fit": 0, "delta": 0, "no_fit": 0, "unreliable": 0, "interior": 0}
    n_loc = 0
    n_int = 0
    for energy, vector in zip(energies.tolist(), vectors.T):
        profile = block_profile(vector, model.l)
        target = math.log(lam + abs(energy)) if lam + abs(energy) > 0.0 else -math.inf
        fit = decay_fit(profile)
        if fit is not None:
            center = fit.center
            if fit.residual < FIT_RESIDUAL_MAX:
                status = "fit"
                rate = fit.rate
                residual = fit.residual
                localized = target > 0.0 and rate >= RATE_FRACTION * target
            else:
                status = "unreliable"
                rate = float("nan")
                residual = fit.residual
                localized = False
        else:
            center = int(np.argmax(profile))
            if profile[center] ** 2 >= 0.99:
                status = "delta"
                rate = float("inf")
                residual = 0.0
                localized = True
            else:
                status = "no_fit"
                rate = float("nan")
                residual = float("nan")
                localized = False
        counts[status] += 1
        site = center - N
        interior = abs(site) <= N - margin
        if interior:
            counts["interior"] += 1
            n_int += 1
            if localized:
                n_loc += 1
        records.append(
            PairRecord(
                energy=energy,
                center_site=site,
                rate=rate,
                fit_residual=residual,
                target_rate=target,
                interior=interior,
                localized=localized,
                status=status,
            )
        )
    aggregate = n_loc / n_int if n_int else 0.0
    return LocalizationReport(
        records=tuple(records),
        aggregate_fraction=aggregate,
        counts=counts,
        lam=float(lam),
        n_half=int(N),
        margin=int(margin),
        rate_fraction=float(RATE_FRACTION),
        max_eigen_residual=float(np.max(residuals)),
    )
