"""Torus symbol algebra for quasi-periodic block operator families.

Phases live in [0, 1) and a frequency-k mode is e^{2*pi*i*k*x}.  Symbols are
either real trigonometric polynomials (Hermitian coefficient tables) or
ratios of two such polynomials with finitely many located poles.  Every
object here is immutable after construction, so evaluation over grids is
safe to run concurrently.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllDegenerate, DegenerateSymbol, PoleProximity

TWO_PI = 2.0 * math.pi

#: bisection is pushed until the symbol magnitude drops below this value
ZERO_REFINE_TOL = 1e-10
#: a nondegeneracy witness must exceed this determinant magnitude
WITNESS_TOL = 1e-10
#: default guard distance from denominator zeros
DEFAULT_POLE_TOL = 1e-8
#: phases per symbol_tables call in the sliced sweeps; bounds their memory
TABLE_CHUNK = 1 << 14


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
        y = np.mod(np.asarray(x, dtype=np.float64), 1.0)
        out = np.zeros(y.shape, dtype=np.complex128)
        for k, c in self.items():
            out += c * np.exp((2j * np.pi * k) * y)
        return out

    def __call__(self, x):
        val = _real_values(self, np.mod(np.asarray(x, dtype=np.float64), 1.0), {})
        if np.ndim(x) == 0:
            return float(val)
        return val

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        acc = dict(self.items())
        for k, c in other.items():
            acc[k] = acc.get(k, 0.0) + c
        return TrigPoly(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TrigPoly({k: -c for k, c in self.items()})

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            acc = {}
            for k1, c1 in self.items():
                for k2, c2 in other.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0.0) + c1 * c2
            return TrigPoly(acc)
        if isinstance(other, (int, float)):
            return TrigPoly({k: other * c for k, c in self.items()})
        return NotImplemented

    __rmul__ = __mul__

    def coeffs_equal(self, other):
        return self._ks == other._ks and self._cs == other._cs

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.coeffs_equal(other)

    def __hash__(self):
        return hash((self._ks, self._cs))

    def __repr__(self):
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in self.items())
        return f"TrigPoly({{{terms}}})"


def _real_values(poly, y, modes):
    """Real part of `poly` at the reduced phases y; `modes` caches e^{2 pi i k y}.

    Each term's products are rounded separately (numpy's vectorized complex
    product may fuse them), so a value does not depend on the shape of y.
    Mode -k is the conjugate of mode k: its exponent is the exact negation
    and sine is odd, so one exponential serves both.
    """
    acc = np.zeros(np.shape(y))
    for k, c in poly.items():
        if k == 0:
            acc += c.real
            continue
        if k not in modes:
            modes[k] = np.conj(modes[-k]) if -k in modes else np.exp((2j * np.pi * k) * y)
        acc += c.real * modes[k].real - c.imag * modes[k].imag
    return acc


def _bisect_zero(poly, a, fa, b, fb):
    while b - a > 1e-15:
        mid = 0.5 * (a + b)
        fm = poly(mid)
        if abs(fm) <= ZERO_REFINE_TOL:
            return mid
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def locate_zeros(den, grid_size=4096):
    """Phases in [0, 1) where `den` vanishes, found by a uniform sign-change
    scan refined with bisection.

    Zero pairs closer than one grid cell and tangential (no-sign-change)
    zeros are missed; that is a documented limitation of the scan.
    """
    if den.is_zero:
        raise DegenerateSymbol("cannot locate zeros of the zero symbol")
    xs = np.arange(grid_size) / grid_size
    vals = den(xs)
    found = []
    for i in range(grid_size):
        a, fa = xs[i], vals[i]
        if i + 1 < grid_size:
            b, fb = xs[i + 1], vals[i + 1]
        else:
            b, fb = 1.0, vals[0]
        if fa == 0.0:
            found.append(a)
        elif fa * fb < 0.0:
            found.append(_bisect_zero(den, a, fa, b, fb) % 1.0)
    found.sort()
    merged = []
    for z in found:
        if merged and abs(z - merged[-1]) < 1e-9:
            continue
        merged.append(z)
    if len(merged) > 1 and abs((merged[0] + 1.0) - merged[-1]) < 1e-9:
        merged.pop()
    return tuple(merged)


@dataclass(frozen=True)
class MeroScalar:
    """Ratio num/den of trig polynomials; poles located at construction."""

    num: TrigPoly
    den: TrigPoly
    zeros: tuple
    pole_tol: float = DEFAULT_POLE_TOL

    @classmethod
    def from_ratio(cls, num, den=None, pole_tol=DEFAULT_POLE_TOL, grid_size=4096):
        if den is None:
            den = TrigPoly.constant(1.0)
        if den.is_zero:
            raise DegenerateSymbol("denominator is identically zero")
        return cls(num, den, locate_zeros(den, grid_size), float(pole_tol))

    @classmethod
    def analytic(cls, poly, pole_tol=DEFAULT_POLE_TOL):
        return cls(poly, TrigPoly.constant(1.0), (), float(pole_tol))

    @property
    def is_analytic(self):
        return self.den.degree == 0

    def __call__(self, x):
        d = self.den(x)
        bad = np.flatnonzero(np.abs(d) < self.pole_tol)
        if bad.size:
            x0 = float(np.ravel(x)[bad[0]])
            raise PoleProximity(f"denominator below pole_tol at phase {x0}", phase=x0)
        return self.num(x) / d


@dataclass(frozen=True)
class DiophantineCheck:
    ok: bool
    worst_k: int
    worst_margin: float  # min_k ||k*omega|| * k^A / C0; the condition holds iff >= 1

    def __bool__(self):
        return self.ok


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
    frac = np.mod(ks * float(omega), 1.0)
    dist = np.minimum(frac, 1.0 - frac)
    margin = dist * ks**A / C0
    i = int(np.argmin(margin))
    return DiophantineCheck(bool(margin[i] >= 1.0), int(ks[i]), float(margin[i]))


@dataclass(frozen=True)
class Dioph:
    A: float
    C0: float


def _as_grid(entries, l, kind):
    rows = tuple(tuple(row) for row in entries)
    if len(rows) != l or any(len(r) != l for r in rows):
        raise ValueError(f"{kind} must be an {l}x{l} grid of symbols")
    return rows


@dataclass(frozen=True)
class BlockModel:
    """The (W, R, F) triple of l x l symmetric matrix symbols plus rotation
    number and Diophantine metadata.

    W entries and the off-diagonals of R and F are TrigPoly; the diagonals
    of R and F are MeroScalar (analytic entries use a constant denominator).
    """

    l: int
    W: tuple
    R: tuple
    F: tuple
    omega: float
    dioph: Dioph
    pole_tol: float = DEFAULT_POLE_TOL
    r_sign: int = -1

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("block size l must be >= 1")
        if self.r_sign not in (-1, 1):
            raise ValueError("r_sign must be +1 or -1")
        object.__setattr__(self, "omega", float(self.omega) % 1.0)
        object.__setattr__(self, "W", _as_grid(self.W, self.l, "W"))
        object.__setattr__(self, "R", _as_grid(self.R, self.l, "R"))
        object.__setattr__(self, "F", _as_grid(self.F, self.l, "F"))
        for name, grid in (("W", self.W), ("R", self.R), ("F", self.F)):
            for i in range(self.l):
                for j in range(self.l):
                    entry = grid[i][j]
                    diag_slot = name in ("R", "F") and i == j
                    if diag_slot and not isinstance(entry, MeroScalar):
                        raise ValueError(f"{name}[{i}][{i}] must be a MeroScalar")
                    if not diag_slot and not isinstance(entry, TrigPoly):
                        raise ValueError(f"{name}[{i}][{j}] must be a TrigPoly")
            for i in range(self.l):
                for j in range(i + 1, self.l):
                    if not grid[i][j].coeffs_equal(grid[j][i]):
                        raise ValueError(f"{name} is not symmetric at ({i},{j})")

    def with_omega(self, omega):
        return dataclasses.replace(self, omega=omega)

    # -- evaluation views over symbol_tables ---------------------------------

    def site_phase(self, x, n):
        return (x + n * self.omega) % 1.0

    def w_values(self, y):
        return symbol_tables(self, y).w

    def f_values(self, y):
        """F(y) as a dense matrix; raises PoleProximity near diagonal poles."""
        tab = symbol_tables(self, y).guard()
        return tab.f_off + np.diag(tab.fnum / tab.fden)

    def r_values(self, y):
        tab = symbol_tables(self, y).guard()
        return tab.r_off + np.diag(tab.rnum / tab.rden)

    def m_values(self, y):
        """Denominator products denF_ii(y) * denR_ii(y), shape (..., l)."""
        return symbol_tables(self, y).m

    def check_poles(self, y, site=None):
        """Raise PoleProximity if any diagonal denominator is below pole_tol at y."""
        symbol_tables(self, y).guard(site)


@dataclass(frozen=True, eq=False)
class SymbolTables:
    """Every symbol of a BlockModel at an array of phases; see symbol_tables.

    Diagonal F/R entries are split into numerator and denominator tables of
    shape (..., l); the off-diagonal F/R entries (zero diagonal) and all of
    W have shape (..., l, l); m = denF * denR has shape (..., l).
    """

    phases: np.ndarray
    pole_tol: float
    fnum: np.ndarray
    fden: np.ndarray
    rnum: np.ndarray
    rden: np.ndarray
    f_off: np.ndarray
    r_off: np.ndarray
    w: np.ndarray
    m: np.ndarray

    def poles(self):
        """Mask of the phases where a diagonal denominator is below pole_tol."""
        near = (np.abs(self.fden) < self.pole_tol) | (np.abs(self.rden) < self.pole_tol)
        return near.any(axis=-1)

    def guard(self, first_site=None):
        """Raise PoleProximity at the first pole phase, else return self.

        The error names site first_site + i for the i-th phase in C order.
        """
        hit = np.flatnonzero(self.poles())
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


def symbol_tables(model, phases):
    """Evaluate every symbol of `model` on a phase array of any shape at once.

    Each mode e^{2 pi i k y} is computed once and shared by all the symbols
    with frequency k, the modes +-k share one exponential, constant terms
    need no exponential, and the symmetric (j, i) entry is copied from
    (i, j).  The per-term formula and order are those of TrigPoly.__call__,
    so every value is bit-identical to calling that symbol at the same phase.
    """
    x = np.asarray(phases, dtype=np.float64)
    y = np.mod(x, 1.0)
    modes = {}
    l = model.l
    fnum, fden, rnum, rden = (np.empty(x.shape + (l,)) for _ in range(4))
    f_off, r_off = np.zeros(x.shape + (l, l)), np.zeros(x.shape + (l, l))
    w = np.empty(x.shape + (l, l))
    for i in range(l):
        fnum[..., i] = _real_values(model.F[i][i].num, y, modes)
        fden[..., i] = _real_values(model.F[i][i].den, y, modes)
        rnum[..., i] = _real_values(model.R[i][i].num, y, modes)
        rden[..., i] = _real_values(model.R[i][i].den, y, modes)
        w[..., i, i] = _real_values(model.W[i][i], y, modes)
        for j in range(i + 1, l):
            for grid, out in ((model.F, f_off), (model.R, r_off), (model.W, w)):
                out[..., i, j] = out[..., j, i] = _real_values(grid[i][j], y, modes)
    return SymbolTables(x, model.pole_tol, fnum, fden, rnum, rden, f_off, r_off, w, fden * rden)


def regularizer_diag(model, x):
    """Diagonal matrix with entries denF_ii(x) * denR_ii(x).

    This is the column scaling that removes the diagonal poles from the
    finite-volume matrix; it is analytic, so no pole guard is needed.
    """
    return np.diag(model.m_values(x))


@dataclass(frozen=True)
class NondegeneracyReport:
    ok: bool
    witnesses: tuple  # (t, witness phase, |det| at the witness) per t


def check_nondegeneracy(model, t_grid, x_grid):
    """For each t, find a phase where |det[(F(x) - t I) M(x)]| > WITNESS_TOL.

    The determinant is assembled from numerator/denominator polynomials, so
    pole phases need no special handling.  Raises AllDegenerate listing the
    t values with no witness on the grid.
    """
    ts = [float(t) for t in t_grid]
    xs = np.asarray(x_grid, dtype=float)
    if not ts or xs.size == 0:
        raise ValueError("t_grid and x_grid must be nonempty")
    tab = symbol_tables(model, xs)
    base = tab.f_off * tab.m[:, None, :]
    diag = np.arange(model.l)
    witnesses = []
    failed = []
    for t in ts:
        mat = base.copy()
        mat[:, diag, diag] = (tab.fnum - t * tab.fden) * tab.rden
        dets = np.abs(np.linalg.det(mat))
        idx = np.flatnonzero(dets > WITNESS_TOL)
        if idx.size == 0:
            failed.append(t)
            witnesses.append((t, None, float(dets.max(initial=0.0))))
        else:
            k = int(idx[0])
            witnesses.append((t, float(xs[k]), float(dets[k])))
    if failed:
        raise AllDegenerate(
            f"no nondegeneracy witness for t in {failed}", failed=failed
        )
    return NondegeneracyReport(True, tuple(witnesses))
