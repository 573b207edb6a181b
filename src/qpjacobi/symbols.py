"""Torus symbol algebra for quasi-periodic block operator families.

Phases live in [0, 1) and a frequency-k mode is e^{2*pi*i*k*x}.  Symbols are
either real trigonometric polynomials (Hermitian coefficient tables) or
ratios of two such polynomials with finitely many located poles.  Every
object here is immutable after construction, so evaluation over grids is
safe to run concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import AllDegenerate, DegenerateSymbol, PoleProximity

TWO_PI = 2.0 * math.pi

#: a companion-matrix root is a zero when the symbol magnitude at its phase
#: is at most this value times the symbol's coefficient sum (its sup bound)
ZERO_REFINE_TOL = 1e-10
#: the relative zero test of det[(F - t)M]'s coefficients (see check_nondegeneracy)
DET_COEFF_TOL = 1e-10
#: default guard distance from denominator zeros
DEFAULT_POLE_TOL = 1e-8
#: phases per symbol_tables call in the sliced sweeps; bounds their memory
TABLE_CHUNK = 1 << 14


def reduce_phase(x, out=None):
    """x mod 1: np.mod(x, 1.0) bit for bit on every finite double, without its division.

    x - floor(x) and np.mod's fmod-then-add-1 round the same exact value
    once, so they agree; both give +0.0 at integers and -0.0, and 1.0 for a
    negative x too small to keep its place below 1.  A scalar gives a float.
    The floor is written into `out` (a new array by default, never x
    itself) and the difference over it.
    """
    y = np.floor(x, out=out)
    y = np.subtract(x, y, out=y if isinstance(y, np.ndarray) else None)
    return float(y) if np.isscalar(x) else y


class TrigPoly:
    """Finite Fourier series sum_k c_k e^{2 pi i k x} with c_{-k} = conj(c_k).

    The constructor Hermitian-symmetrizes its input so that values on the
    torus are real; the imaginary residue of a direct complex evaluation
    stays below 1e-12.
    """

    __slots__ = ("_ks", "_cs")

    def __init__(self, coeffs=None):
        coeffs = dict(coeffs or {})
        keys = sorted(set(coeffs) | {-k for k in coeffs})
        ks, cs = [], []
        for k in keys:
            a = complex(coeffs.get(k, 0.0))
            b = complex(coeffs.get(-k, 0.0))
            c = 0.5 * (a + b.conjugate())
            if c != 0.0:
                ks.append(int(k))
                cs.append(c)
        self._ks = tuple(ks)
        self._cs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, value):
        return cls({0: float(value)})

    @classmethod
    def cosine(cls, k=1, amp=1.0, shift=0.0):
        """amp * cos(2 pi k (x - shift))."""
        c = 0.5 * amp * np.exp(-2j * np.pi * k * shift)
        return cls({k: c, -k: np.conj(c)})

    @classmethod
    def sine(cls, k=1, amp=1.0, shift=0.0):
        """amp * sin(2 pi k (x - shift))."""
        c = -0.5j * amp * np.exp(-2j * np.pi * k * shift)
        return cls({k: c, -k: np.conj(c)})

    # -- inspection --------------------------------------------------------

    def items(self):
        return zip(self._ks, self._cs)

    def coeff(self, k):
        try:
            return self._cs[self._ks.index(k)]
        except ValueError:
            return 0.0 + 0.0j

    @property
    def degree(self):
        return max((abs(k) for k in self._ks), default=0)

    @property
    def is_zero(self):
        return not self._ks

    def coeff_abs_sum(self):
        """Sum of |c_k|; an upper bound for sup_x |p(x)|."""
        return float(sum(abs(c) for c in self._cs))

    # -- evaluation --------------------------------------------------------

    def eval_complex(self, x):
        y = reduce_phase(np.asarray(x, dtype=np.float64))
        out = np.zeros(y.shape, dtype=np.complex128)
        for k, c in self.items():
            out += c * np.exp((2j * np.pi * k) * y)
        return out

    def __call__(self, x):
        y = reduce_phase(np.asarray(x, dtype=np.float64))
        term = np.empty(y.shape), np.empty(y.shape)
        val = _real_values(self, _modes([self], y), np.empty(y.shape), term)
        if np.ndim(x) == 0:
            return float(val)
        return val

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._ks == other._ks and self._cs == other._cs

    def __hash__(self):
        return hash((self._ks, self._cs))

    def __repr__(self):
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in self.items())
        return f"TrigPoly({{{terms}}})"


def _modes(polys, y):
    """The parts cos, sin of e^{2 pi i k y} for every frequency k > 0 of the
    polys, by k, as rows of one real array: the angle y * 2 pi k goes into the
    cos row, its sine into the sin row, its cosine over the angle.  With numpy
    2.4 on x86-64 glibc these are the bits of np.exp(2j * pi * k * y)."""
    ks = sorted({abs(k) for poly in polys for k, _ in poly.items() if k})
    waves = np.empty((len(ks), 2) + np.shape(y))
    modes = {}
    for i, k in enumerate(ks):
        re, im = waves[i, 0, ...], waves[i, 1, ...]  # views, also for 0-d phases
        np.multiply(y, TWO_PI * k, out=re)
        np.sin(re, out=im)
        modes[k] = np.cos(re, out=re), im
    return modes


def _real_values(poly, modes, out, term):
    """Real part of `poly`, accumulated into `out` from +0.0 and returned.

    `modes` holds the parts of e^{2 pi i k y} for the frequencies k > 0 of
    `poly` (see _modes) and `term` is a pair of scratch arrays shaped as out.
    Each term c.real*cos - c.imag*sin has its products rounded separately
    (numpy's vectorized complex product may fuse them), so a value does not
    depend on the shape of y.  One sin/cos pair serves the modes +-k: the
    angle of -k is the exact negation and sine is odd, so mode -k reads
    the parts of mode k with the sign folded into c.imag.  A zero
    coefficient part adds no product; that keeps every bit, because the
    accumulator starts at +0.0 and never becomes -0.0, so adding a zero of
    either sign leaves it as it is.
    """
    out.fill(0.0)
    t, t2 = term
    for k, c in poly.items():
        cr, ci = c.real, c.imag
        if k == 0:
            out += cr
            continue
        re, im = modes[abs(k)]
        if k < 0:
            ci = -ci
        if ci == 0.0:
            out += np.multiply(cr, re, out=t)
        elif cr == 0.0:
            out -= np.multiply(ci, im, out=t)
        else:
            np.multiply(cr, re, out=t)
            t -= np.multiply(ci, im, out=t2)
            out += t
    return out


def locate_zeros(den):
    """Phases in [0, 1) where `den` vanishes, sorted, each listed as often as
    its multiplicity.

    With z = e^{2 pi i x}, z^d * den is a polynomial of degree 2d in z; its
    roots (np.roots, the eigenvalues of the companion matrix) are mapped to
    phases, and a root counts as a zero when |den| at its phase is at most
    ZERO_REFINE_TOL * den.coeff_abs_sum().
    """
    if den.is_zero:
        raise DegenerateSymbol("cannot locate zeros of the zero symbol")
    d = den.degree
    roots = np.roots([den.coeff(k) for k in range(d, -d - 1, -1)])
    # a phase just below 0 reduces to 1.0; the second reduction maps it to 0
    phases = np.sort(reduce_phase(reduce_phase(np.angle(roots) / TWO_PI)))
    tol = ZERO_REFINE_TOL * den.coeff_abs_sum()
    return tuple(float(x) for x in phases if abs(den(x)) <= tol)


class MeroScalar(NamedTuple):
    """Ratio num/den of trig polynomials; its poles are the zeros of den."""

    num: TrigPoly
    den: TrigPoly

    @classmethod
    def from_ratio(cls, num, den=None):
        if den is None:
            den = TrigPoly.constant(1.0)
        if den.is_zero:
            raise DegenerateSymbol("denominator is identically zero")
        return cls(num, den)

    @property
    def zeros(self):
        """The pole phases, located on every read (see locate_zeros)."""
        return locate_zeros(self.den)

    def __call__(self, x):
        """num/den at x, guarded at DEFAULT_POLE_TOL (a model guards at its pole_tol)."""
        d = self.den(x)
        bad = np.flatnonzero(np.abs(d) < DEFAULT_POLE_TOL)
        if bad.size:
            x0 = float(np.ravel(x)[bad[0]])
            raise PoleProximity(f"denominator below pole_tol at phase {x0}", phase=x0)
        return self.num(x) / d


class DiophantineCheck(NamedTuple):
    ok: bool
    worst_k: int
    worst_margin: float  # min_k ||k*omega|| * k^A / C0; the condition holds iff >= 1


def is_diophantine(omega, A, C0, Kmax):
    """Check ||k*omega|| >= C0 / |k|^A for 1 <= |k| <= Kmax.

    Returns the verdict together with the k minimizing the margin
    ||k*omega|| * k^A / C0 (the worst offender).
    """
    if Kmax < 1:
        raise ValueError("Kmax must be >= 1")
    if A <= 1.0 or C0 <= 0.0:
        raise ValueError("require A > 1 and C0 > 0")
    ks = np.arange(1, int(Kmax) + 1, dtype=np.float64)
    frac = reduce_phase(ks * float(omega))
    dist = np.minimum(frac, 1.0 - frac)
    margin = dist * ks**A / C0
    i = int(np.argmin(margin))
    return DiophantineCheck(bool(margin[i] >= 1.0), int(ks[i]), float(margin[i]))


class Dioph(NamedTuple):
    A: float
    C0: float


class _BlockFields(NamedTuple):
    W: tuple
    R: tuple
    F: tuple
    omega: float
    dioph: Dioph
    pole_tol: float


class BlockModel(_BlockFields):
    """The (W, R, F) triple of l x l symmetric matrix symbols plus rotation
    number and Diophantine metadata.

    W entries and the off-diagonals of R and F are TrigPoly; the diagonals
    of R and F are MeroScalar (analytic entries use a constant denominator).
    The block size l is the size of the F grid.  Every construction
    validates and normalizes the fields, _replace too, so equal models
    write equal files (see models.model_to_dict).
    """

    __slots__ = ()

    def __new__(cls, W, R, F, omega, dioph, pole_tol=DEFAULT_POLE_TOL):
        if not math.isfinite(omega):
            raise ValueError("omega must be finite")
        if not (math.isfinite(pole_tol) and pole_tol > 0):
            raise ValueError("pole_tol must be finite and > 0")
        omega = reduce_phase(float(omega))
        # + 0.0 turns -0.0 into 0.0: == does not tell them apart, so neither may a file
        dioph = Dioph(*(float(v) + 0.0 for v in dioph))
        if not (1.0 < dioph.A < math.inf and 0.0 < dioph.C0 < math.inf):
            raise ValueError("dioph must have a finite A > 1 and a finite C0 > 0")
        W, R, F = (tuple(tuple(row) for row in grid) for grid in (W, R, F))
        l = len(F)
        if l < 1:
            raise ValueError("block size l must be >= 1")
        for name, grid in (("W", W), ("R", R), ("F", F)):
            if len(grid) != l or any(len(row) != l for row in grid):
                raise ValueError(f"{name} must be an {l}x{l} grid of symbols")
            for i in range(l):
                for j in range(l):
                    kind = MeroScalar if name != "W" and i == j else TrigPoly
                    if not isinstance(grid[i][j], kind):
                        raise ValueError(f"{name}[{i}][{j}] must be a {kind.__name__}")
                    if j < i and grid[i][j] != grid[j][i]:
                        raise ValueError(f"{name} is not symmetric at ({j},{i})")
        return super().__new__(cls, W, R, F, omega, dioph, float(pole_tol))

    @property
    def l(self):
        """The block size: every grid is l x l."""
        return len(self.F)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def with_omega(self, omega):
        return self._replace(omega=omega)

    # -- evaluation views over symbol_tables ---------------------------------

    def site_phase(self, x, n):
        return reduce_phase(x + n * self.omega)

    def w_values(self, y):
        return symbol_tables(self, y).w

    def f_values(self, y):
        """F(y) as dense matrices, shape (..., l, l); raises PoleProximity near diagonal poles."""
        tab = symbol_tables(self, y).guard(self.pole_tol)
        idx = np.arange(self.l)
        tab.f_off[..., idx, idx] = tab.fnum / tab.fden
        return tab.f_off

    def r_values(self, y):
        tab = symbol_tables(self, y).guard(self.pole_tol)
        idx = np.arange(self.l)
        tab.r_off[..., idx, idx] = tab.rnum / tab.rden
        return tab.r_off

    def m_values(self, y):
        """Denominator products denF_ii(y) * denR_ii(y), shape (..., l)."""
        return symbol_tables(self, y).m

    def check_poles(self, y, site=None):
        """Raise PoleProximity if any diagonal denominator is below pole_tol at y."""
        symbol_tables(self, y).guard(self.pole_tol, site)


class SymbolTables:
    """Every symbol of a BlockModel at an array of phases; see symbol_tables.

    Diagonal F/R entries are split into numerator and denominator tables of
    shape (..., l); the off-diagonal F/R entries (zero diagonal) and all of
    W have shape (..., l, l); m = denF * denR has shape (..., l).  The
    fields are read-only; equality is identity.  A table holds values only:
    poles and guard take the pole_tol of the model that built it.
    """

    __slots__ = ("phases", "fnum", "fden", "rnum", "rden", "f_off", "r_off", "w", "m")

    def __init__(self, phases, fnum, fden, rnum, rden, f_off, r_off, w, m):
        fields = phases, fnum, fden, rnum, rden, f_off, r_off, w, m
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def empty(cls, model, shape):
        """An unfilled table of `model` for a phase array of `shape`, which
        symbol_tables(model, phases, out=...) fills; its nine arrays are
        contiguous pieces of one allocation."""
        l = model.l
        shapes = [shape] + [shape + (l,)] * 4 + [shape + (l, l)] * 3 + [shape + (l,)]
        sizes = [math.prod(s) for s in shapes]
        block, end, arrays = np.empty(sum(sizes)), 0, []
        for s, n in zip(shapes, sizes):
            arrays.append(block[end : end + n].reshape(s))
            end += n
        return cls(*arrays)

    def arrays(self):
        """The phases and the eight symbol arrays, in field order."""
        return (
            self.phases, self.fnum, self.fden, self.rnum, self.rden,
            self.f_off, self.r_off, self.w, self.m,
        )

    def __getitem__(self, index):
        """The table at phases[index]; `index` may address the phase axes only."""
        return SymbolTables(*(a[index] for a in self.arrays()))

    def poles(self, pole_tol):
        """Mask of the phases where a diagonal denominator is below pole_tol."""
        near = (np.abs(self.fden) < pole_tol) | (np.abs(self.rden) < pole_tol)
        return near.any(axis=-1)

    def guard(self, pole_tol, first_site=None):
        """Raise PoleProximity at the first pole phase (see poles), else return self.

        The error names site first_site + i for the i-th phase in C order.
        """
        hit = np.flatnonzero(self.poles(pole_tol))
        if hit.size:
            y = float(self.phases.ravel()[hit[0]])
            site = None if first_site is None else first_site + int(hit[0])
            raise PoleProximity(
                f"diagonal denominator below pole_tol at phase {y}"
                + (f" (site {site})" if site is not None else ""),
                phase=y,
                site=site,
            )
        return self


def symbol_tables(model, phases, out=None):
    """Evaluate every symbol of `model` on a phase array of any shape at once.

    With `out`, a table of the same shape (see SymbolTables.empty), every
    field of it is written in place, the phases included, and it is
    returned; without it a new table is.  Each mode e^{2 pi i k y} is
    computed once and shared by all the symbols with frequency k, the modes
    +-k share one sin/cos pair, constant terms need none, and the
    symmetric (j, i) entry is copied from (i, j).  The per-term formula and
    order are those of TrigPoly.__call__, so every value is bit-identical to
    calling that symbol at the same phase.
    """
    x = np.asarray(phases, dtype=np.float64)
    tab = SymbolTables.empty(model, x.shape) if out is None else out
    tab.phases[...] = x
    y = reduce_phase(x)
    off = ((model.F, tab.f_off), (model.R, tab.r_off), (model.W, tab.w))
    # (symbol, the entry it fills, the symmetric entry copied from it)
    entries = []
    for i in range(model.l):
        entries += [
            (model.F[i][i].num, tab.fnum[..., i], None),
            (model.F[i][i].den, tab.fden[..., i], None),
            (model.R[i][i].num, tab.rnum[..., i], None),
            (model.R[i][i].den, tab.rden[..., i], None),
            (model.W[i][i], tab.w[..., i, i], None),
        ]
        tab.f_off[..., i, i] = tab.r_off[..., i, i] = 0.0
        for j in range(i + 1, model.l):
            entries += [(grid[i][j], a[..., i, j], a[..., j, i]) for grid, a in off]
    modes = _modes([poly for poly, _, _ in entries], y)
    term = np.empty(y.shape), np.empty(y.shape)
    acc = np.empty(y.shape)  # a strided (l >= 2) entry sums here, faster, and is copied
    for poly, entry, mirror in entries:
        if entry.flags.c_contiguous:
            _real_values(poly, modes, entry, term)
        else:
            entry[...] = _real_values(poly, modes, acc, term)
        if mirror is not None:
            mirror[...] = entry
    np.multiply(tab.fden, tab.rden, out=tab.m)
    return tab


class NondegeneracyReport(NamedTuple):
    ok: bool
    mahler: tuple  # (t, m(t)) per t, m(t) the integral of log|det[(F - t)M]| over [0, 1)


def check_nondegeneracy(model, t_grid):
    """Decide for each t whether p_t(x) = det[(F(x) - t I) M(x)] vanishes identically in x.

    p_t has degree at most 3ld, d the largest F or R symbol degree, so one FFT of its values at
    K = 6ld + 2 phases gives its coefficients c_k.  It vanishes when no |c_k| exceeds DET_COEFF_TOL
    times the samples' largest product of column 1-norms, which a column scaling of M rescales as
    it rescales p_t; else m(t) = log|c_n| + the sum of log|z| over the roots |z| > 1 of
    sum_k c_k z^(k+n), n the top k above that tolerance (Jensen).  Raises AllDegenerate naming
    each t whose p_t vanishes.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must be nonempty")
    syms = [s for grid in (model.F, model.R) for row in grid for s in row]
    d = max(p.degree for s in syms for p in (s if isinstance(s, MeroScalar) else (s,)))
    K = 6 * model.l * d + 2
    tab = symbol_tables(model, np.arange(K) / K)
    base = tab.f_off * tab.m[:, None, :]
    diag = np.arange(model.l)
    mahler, failed = [], []
    for t in ts:
        mat = base.copy()
        mat[:, diag, diag] = (tab.fnum - t * tab.fden) * tab.rden
        cols = np.abs(mat).sum(axis=1)
        # each column over its largest 1-norm: p_t over a constant, in floating-point range
        top = np.where(cols.max(axis=0) > 0.0, cols.max(axis=0), 1.0)
        coeffs = np.fft.fft(np.linalg.det(mat / top)) / K
        scale = (cols / top).prod(axis=-1).max()
        above = np.flatnonzero(np.abs(coeffs[: K // 2]) > DET_COEFF_TOL * scale)
        if above.size == 0:
            failed.append(t)
            continue
        n = int(above[-1])
        roots = np.abs(np.roots(coeffs[np.arange(n, -n - 1, -1) % K]))  # c_n first
        mahler.append((t, float(np.log([abs(coeffs[n]), *top, *roots[roots > 1.0]]).sum())))
    if failed:
        raise AllDegenerate(f"det[(F - t)M] vanishes identically for t in {failed}", failed=failed)
    return NondegeneracyReport(True, tuple(mahler))
