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


def _finite(mat, params, what):
    """`mat`, or LinAlgError naming the first window site whose row of `mat`
    holds an entry that overflowed (or came from a NaN phase)."""
    # a row's max and min are finite exactly when its entries are, and they
    # need no temporary the size of the matrix
    rows = np.isfinite(mat.max(axis=1)) & np.isfinite(mat.min(axis=1))
    if not rows.all():
        l = len(rows) // params.n_sites
        site = params.window[0] + int(np.argmin(rows)) // l
        raise np.linalg.LinAlgError(f"non-finite {what} at site {site}")
    return mat


def assemble_hamiltonian(model, params):
    """Dense (N*l, N*l) H over the window: on-site lam*F + r_sign*R, hopping -W / -W^T.

    Raises PoleProximity (with the offending site) when the phase orbit
    comes within pole_tol of a diagonal denominator zero, and LinAlgError
    when an entry is not finite (an overflowing coupling).
    """
    tab = window_tables(model, params).guard(params.window[0])
    mat = dense_blocks(*hamiltonian_blocks(tab, params.lam, model.r_sign))
    return _finite(mat, params, "energy or hopping of H")


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
    out = np.multiply(lam, tab.fnum)
    out *= tab.rden
    term = np.multiply(r_sign, tab.rnum)
    term *= tab.fden
    out += term
    np.multiply(E, tab.fden, out=term)
    term *= tab.rden
    out -= term
    out *= scale
    return out


def assemble_regularized(model, params):
    """Dense (N*l, N*l) (H - E) right-multiplied by diag{M_n / sqrt(1+E^2)} over the window.

    Raises LinAlgError when an entry is not finite (an overflowing coupling
    or energy).
    """
    tab = window_tables(model, params)
    mat = dense_blocks(*regularized_blocks(tab, params.lam, params.E, model.r_sign))
    return _finite(mat, params, "entry of Ht")

