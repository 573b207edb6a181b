"""Finite-volume assembly of the block Jacobi operator and its regularized form.

A window [u, v] of sites carries phases x + n*omega for n in [u, v].  The
plain operator H has on-site blocks lam*F_n + r_sign*R_n and hopping blocks
-W_{n+1} / -W_{n+1}^T between sites n and n+1; it is undefined on pole
orbits.  The regularized matrix right-multiplies (H - E) by the diagonal of
denominator products over sqrt(1 + E^2), which cancels every diagonal pole,
so it is assembled entirely from numerator/denominator polynomials and is
finite at any phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import symbol_tables


def check_coupling(lam):
    """Raise ValueError for a negative, NaN or infinite coupling; lam == 0 is
    allowed, since the free control experiments need it."""
    if not lam >= 0:
        raise ValueError("coupling lam must be >= 0")
    if lam == math.inf:
        raise ValueError("coupling lam must be finite")


@dataclass(frozen=True)
class OperatorParams:
    lam: float
    x: float
    E: float
    window: tuple

    def __post_init__(self):
        u, v = self.window
        if v < u:
            raise ValueError("window must satisfy v >= u")
        check_coupling(self.lam)
        object.__setattr__(self, "window", (int(u), int(v)))

    @property
    def n_sites(self):
        u, v = self.window
        return v - u + 1


@dataclass(frozen=True)
class BlockTridiagonal:
    """Block-banded storage: N diagonal blocks, N-1 sub/super blocks, all l x l."""

    n_sites: int
    l: int
    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        n, l = self.n_sites, self.l
        for name, arr, shape in (
            ("diag", self.diag, (n, l, l)),
            ("lower", self.lower, (max(n - 1, 0), l, l)),
            ("upper", self.upper, (max(n - 1, 0), l, l)),
        ):
            a = np.array(arr, dtype=float).reshape(shape)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def block(self, i, j):
        """1-based block accessor; zero outside the tridiagonal band."""
        if not (1 <= i <= self.n_sites and 1 <= j <= self.n_sites):
            raise IndexError("block index out of range")
        if i == j:
            return self.diag[i - 1]
        if i == j + 1:
            return self.lower[j - 1]
        if j == i + 1:
            return self.upper[i - 1]
        return np.zeros((self.l, self.l))

    def to_dense(self):
        return dense_blocks(self.diag, self.lower, self.upper)


def dense_blocks(diag, lower, upper):
    """Dense (..., N*l, N*l) matrices from blocks stacked along axis 0.

    `diag` has shape (N, ..., l, l) and `lower`/`upper` (N-1, ..., l, l);
    the axes in between are batch axes.
    """
    n, l = diag.shape[0], diag.shape[-1]
    batch = diag.shape[1:-2]
    out = np.zeros(batch + (n, l, n, l))
    # the site indices are separated by a slice, so numpy puts their axis
    # first, as in the block stacks
    i = np.arange(n)
    out[..., i, :, i, :] = diag
    out[..., i[:-1], :, i[1:], :] = upper
    out[..., i[1:], :, i[:-1], :] = lower
    return out.reshape(batch + (n * l, n * l))


def window_tables(model, params):
    """Symbol table of the window sites u..v, in site order along axis 0."""
    u, v = params.window
    return symbol_tables(model, model.site_phase(params.x, np.arange(u, v + 1)))


def assemble_hamiltonian(model, params):
    """H over the window: on-site lam*F + r_sign*R, hopping -W / -W^T.

    Raises PoleProximity (with the offending site) when the phase orbit
    comes within pole_tol of a diagonal denominator zero.
    """
    tab = window_tables(model, params).guard(params.window[0])
    blocks = hamiltonian_blocks(tab, params.lam, model.r_sign)
    return BlockTridiagonal(params.n_sites, model.l, *blocks)


def hamiltonian_blocks(tab, lam, r_sign):
    """Blocks of H for the sites on axis 0 of `tab`, shaped as in regularized_blocks.

    The on-site quotients are taken as they stand, so a pole phase gives
    non-finite entries: guard the table first.
    """
    diag = lam * tab.f_off + r_sign * tab.r_off
    idx = np.arange(tab.m.shape[-1])
    diag[..., idx, idx] = lam * (tab.fnum / tab.fden) + r_sign * (tab.rnum / tab.rden)
    upper = -tab.w[1:]
    return diag, np.swapaxes(upper, -1, -2), upper


def regularized_blocks(tab, lam, E, r_sign):
    """Blocks of (H - E) diag{M_n / sqrt(1+E^2)} for the sites on axis 0 of `tab`.

    Returns the diagonal blocks, shape (K, ..., l, l), and the lower and
    upper blocks between consecutive sites, shape (K-1, ..., l, l).  The
    diagonal entries are those of regularized_diagonal.
    """
    scale = 1.0 / math.sqrt(1.0 + E * E)
    m = tab.m[..., None, :]
    blk = scale * ((lam * tab.f_off + r_sign * tab.r_off) * m)
    idx = np.arange(tab.m.shape[-1])
    blk[..., idx, idx] = regularized_diagonal(tab, lam, E, r_sign)
    w = tab.w[1:]
    upper = -scale * w * m[1:]
    lower = -scale * np.swapaxes(w, -1, -2) * m[:-1]
    return blk, lower, upper


def regularized_diagonal(tab, lam, E, r_sign):
    """Diagonal entries of the regularized on-site blocks, shape (..., l).

    Each is built as
        (lam*numF*denR + r_sign*numR*denF - E*denF*denR) * (1/sqrt(1+E^2))
    (never as a quotient times M), so it is finite even at pole phases.
    """
    scale = 1.0 / math.sqrt(1.0 + E * E)
    return scale * (
        lam * tab.fnum * tab.rden + r_sign * tab.rnum * tab.fden - E * tab.fden * tab.rden
    )


def assemble_regularized(model, params):
    """(H - E) right-multiplied by diag{M_n / sqrt(1+E^2)} over the window."""
    tab = window_tables(model, params)
    blocks = regularized_blocks(tab, params.lam, params.E, model.r_sign)
    return BlockTridiagonal(params.n_sites, model.l, *blocks)


def hopping_sup_bound(model):
    """Coefficient-sum bound for sup_x of any regularized hopping entry."""
    best = 0.0
    for i in range(model.l):
        for j in range(model.l):
            prod = model.W[i][j] * model.F[j][j].den * model.R[j][j].den
            best = max(best, prod.coeff_abs_sum())
    return best


def onsite_sup_bound(model):
    """S1, S2, S3 with sup |Vt entry| <= lam*S1 + S2 + |E|*S3 at any phase."""
    s1 = s2 = s3 = 0.0
    for a in range(model.l):
        for b in range(model.l):
            if a == b:
                s1 = max(s1, (model.F[a][a].num * model.R[a][a].den).coeff_abs_sum())
                s2 = max(s2, (model.R[a][a].num * model.F[a][a].den).coeff_abs_sum())
                s3 = max(s3, (model.F[a][a].den * model.R[a][a].den).coeff_abs_sum())
            else:
                m_col = model.F[b][b].den * model.R[b][b].den
                s1 = max(s1, (model.F[a][b] * m_col).coeff_abs_sum())
                s2 = max(s2, (model.R[a][b] * m_col).coeff_abs_sum())
    return s1, s2, s3
