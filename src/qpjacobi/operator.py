"""Finite-volume assembly of the block Jacobi operator and its regularized form.

A window [u, v] of sites carries phases x + n*omega for n in [u, v].  The
plain operator H has on-site blocks lam*F_n - R_n and hopping blocks
-W_{n+1} / -W_{n+1}^T between sites n and n+1; it is undefined on pole
orbits.  The regularized matrix right-multiplies (H - E) by the diagonal of
denominator products over sqrt(1 + E^2), which cancels every diagonal pole,
so it is assembled entirely from numerator/denominator polynomials and is
finite at any phase.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .symbols import symbol_tables


def check_coupling(lam):
    """Raise ValueError for a negative, NaN or infinite coupling; lam == 0 is
    allowed, since the free control experiments need it."""
    if not lam >= 0:
        raise ValueError("coupling lam must be >= 0")
    if lam == math.inf:
        raise ValueError("coupling lam must be finite")


def check_finite(name, value):
    """Raise ValueError naming the argument `name` unless every entry of
    `value` (an energy or phase, or an array of them) is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


class _ParamFields(NamedTuple):
    lam: float
    x: float
    E: float
    window: tuple


class OperatorParams(_ParamFields):
    """Coupling, phase, energy and site window (u, v), validated; _replace too."""

    __slots__ = ()

    def __new__(cls, lam, x, E, window):
        u, v = window
        if v < u:
            raise ValueError("window must satisfy v >= u")
        check_coupling(lam)
        check_finite("x", x)
        check_finite("E", E)
        return super().__new__(cls, lam, x, E, (int(u), int(v)))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def n_sites(self):
        u, v = self.window
        return v - u + 1


def regularization_scale(E):
    """The scale 1/sqrt(1 + E^2) of the regularized matrix, and 1/|E| where E*E
    overflows.  The two agree bit for bit wherever both are finite and
    |E| >= 2**27, since 1 + E*E then rounds to E*E."""
    e2 = E * E
    return 1.0 / (math.sqrt(1.0 + e2) if e2 < math.inf else abs(E))


def comparison_rate(lam, E):
    """The rate log(lam + |E|) decay is compared with; -inf where lam + |E| == 0."""
    a = lam + abs(E)
    return math.log(a) if a > 0.0 else -math.inf


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
    holds an entry that overflowed."""
    # a row's max and min are finite exactly when its entries are, and they
    # need no temporary the size of the matrix
    rows = np.isfinite(mat.max(axis=1)) & np.isfinite(mat.min(axis=1))
    if not rows.all():
        l = len(rows) // params.n_sites
        site = params.window[0] + int(np.argmin(rows)) // l
        raise np.linalg.LinAlgError(f"non-finite {what} at site {site}")
    return mat


def assemble_hamiltonian(model, params):
    """Dense (N*l, N*l) H over the window: on-site lam*F - R, hopping -W / -W^T.

    Raises PoleProximity (with the offending site) when the phase orbit
    comes within pole_tol of a diagonal denominator zero, and LinAlgError
    when an entry is not finite (an overflowing coupling).
    """
    tab = window_tables(model, params).guard(model.pole_tol, params.window[0])
    mat = dense_blocks(*hamiltonian_blocks(tab, params.lam))
    return _finite(mat, params, "energy or hopping of H")


def hamiltonian_blocks(tab, lam):
    """Blocks of H for the sites on axis 0 of `tab`, shaped as in regularized_blocks.

    The on-site quotients are taken as they stand, so a pole phase gives
    non-finite entries: guard the table first.
    """
    diag = lam * tab.f_off - tab.r_off
    idx = np.arange(tab.m.shape[-1])
    diag[..., idx, idx] = lam * (tab.fnum / tab.fden) - tab.rnum / tab.rden
    upper = -tab.w[1:]
    return diag, np.swapaxes(upper, -1, -2), upper


def regularized_blocks(tab, lam, E):
    """Blocks of (H - E) diag{M_n / sqrt(1+E^2)} for the sites on axis 0 of `tab`.

    Returns the diagonal blocks, shape (K, ..., l, l), and the lower and
    upper blocks between consecutive sites, shape (K-1, ..., l, l).  The
    diagonal entries are those of regularized_diagonal.
    """
    scale = regularization_scale(E)
    m = tab.m[..., None, :]
    blk = scale * ((lam * tab.f_off - tab.r_off) * m)
    idx = np.arange(tab.m.shape[-1])
    blk[..., idx, idx] = regularized_diagonal(tab, lam, E)
    w = tab.w[1:]
    upper = -scale * w * m[1:]
    lower = -scale * np.swapaxes(w, -1, -2) * m[:-1]
    return blk, lower, upper


def regularized_diagonal(tab, lam, E):
    """Diagonal entries of the regularized on-site blocks, shape (..., l).

    Each is built as
        (lam*numF*denR - numR*denF - E*denF*denR) * regularization_scale(E)
    (never as a quotient times M), so it is finite even at pole phases.
    """
    scale = regularization_scale(E)
    out = np.multiply(lam, tab.fnum)
    out *= tab.rden
    term = np.multiply(tab.rnum, tab.fden)
    out -= term
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
    mat = dense_blocks(*regularized_blocks(window_tables(model, params), params.lam, params.E))
    return _finite(mat, params, "entry of Ht")

