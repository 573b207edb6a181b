"""Model config files: JSON schema, validation with field paths, hashing,
and the bundled example models."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re

from .errors import DegenerateSymbol, ModelFormatError
from .symbols import DEFAULT_POLE_TOL, BlockModel, Dioph, MeroScalar, TrigPoly

_ENTRY_RE = re.compile(r"^([WRF])\[(\d+)\]\[(\d+)\]$")


def is_number(v):
    """True for an int or a finite float as JSON gives them; a bool is not a number."""
    return type(v) is int or type(v) is float and math.isfinite(v)


def _scalar(value, field, integral=False):
    """`value` as a float, or as an int where `integral`; ModelFormatError
    naming `field` unless it is a finite number (an int, where `integral`)."""
    if integral and type(value) is not int:
        raise ModelFormatError("expected an integer", field=field)
    if not is_number(value):
        raise ModelFormatError("expected a finite number", field=field)
    return value if integral else float(value)


def _parse_coeffs(rows, field):
    if not isinstance(rows, list):
        raise ModelFormatError("coefficient table must be a list", field=field)
    coeffs = {}
    for i, row in enumerate(rows):
        here = f"{field}[{i}]"
        if not (isinstance(row, list) and len(row) == 3):
            raise ModelFormatError("expected [k, re, im]", field=here)
        k, re_part, im_part = (
            _scalar(v, f"{here}[{n}]", integral=n == 0) for n, v in enumerate(row)
        )
        c = complex(re_part, im_part)
        if k in coeffs:
            raise ModelFormatError(f"duplicate frequency k={k}", field=here)
        coeffs[k] = c
    for k, c in coeffs.items():
        mate = coeffs.get(-k, 0.0)
        if abs(c - mate.conjugate()) > 1e-12 * max(1.0, abs(c)):
            raise ModelFormatError(
                f"table is not Hermitian at k={k} (coeff(-k) != conj(coeff(k)))",
                field=field,
            )
    return coeffs


def model_from_dict(cfg):
    """Build a BlockModel from the JSON config schema.

    Validation failures raise ModelFormatError carrying the offending field
    path, e.g. "entries[2].den".
    """
    if not isinstance(cfg, dict):
        raise ModelFormatError("model config must be a JSON object", field="$")
    l = _scalar(cfg.get("l"), "l", integral=True)
    if l < 1:
        raise ModelFormatError("block size must be >= 1", field="l")
    omega = _scalar(cfg.get("omega"), "omega")
    dioph_cfg = cfg.get("dioph")
    if not isinstance(dioph_cfg, dict) or "A" not in dioph_cfg or "C0" not in dioph_cfg:
        raise ModelFormatError("expected {A, C0}", field="dioph")
    dioph = Dioph(A=_scalar(dioph_cfg["A"], "dioph.A"), C0=_scalar(dioph_cfg["C0"], "dioph.C0"))
    if dioph.A <= 1:
        raise ModelFormatError("A must be > 1", field="dioph.A")
    if dioph.C0 <= 0:
        raise ModelFormatError("C0 must be > 0", field="dioph.C0")
    pole_tol = _scalar(cfg.get("pole_tol", DEFAULT_POLE_TOL), "pole_tol")
    if pole_tol <= 0:
        raise ModelFormatError("pole_tol must be positive", field="pole_tol")
    r_sign = _scalar(cfg.get("r_sign", -1), "r_sign", integral=True)
    if r_sign not in (-1, 1):
        raise ModelFormatError("r_sign must be +1 or -1", field="r_sign")

    tables = {}  # (name, i, j) -> (num coeffs, den coeffs or None)
    entries = cfg.get("entries")
    if not isinstance(entries, list):
        raise ModelFormatError("missing entry list", field="entries")
    for idx, ent in enumerate(entries):
        here = f"entries[{idx}]"
        if not isinstance(ent, dict) or "entry" not in ent:
            raise ModelFormatError("expected an object with an 'entry' key", field=here)
        match = _ENTRY_RE.match(str(ent["entry"]))
        if not match:
            raise ModelFormatError(
                "entry must look like F[0][0]", field=f"{here}.entry"
            )
        name, i, j = match.group(1), int(match.group(2)), int(match.group(3))
        if not (0 <= i < l and 0 <= j < l):
            raise ModelFormatError("entry index out of range", field=f"{here}.entry")
        num = _parse_coeffs(ent.get("num", []), f"{here}.num")
        if name == "R" and r_sign == 1:  # the file adds R; the library subtracts it
            num = {k: -c for k, c in num.items()}
        den = None
        if "den" in ent:
            if name == "W" or i != j:
                raise ModelFormatError(
                    "only diagonal F/R entries may carry a denominator",
                    field=f"{here}.den",
                )
            den = _parse_coeffs(ent["den"], f"{here}.den")
        # an off-diagonal entry also fills its mirror, so a second entry for
        # either slot is a duplicate
        if (name, i, j) in tables:
            raise ModelFormatError("duplicate entry", field=f"{here}.entry")
        tables[name, i, j] = tables[name, j, i] = (num, den)

    def poly(name, i, j):
        num, _ = tables.get((name, i, j), ({}, None))
        return TrigPoly(num)

    def mero(name, i):
        num, den = tables.get((name, i, i), ({}, None))
        try:
            return MeroScalar.from_ratio(TrigPoly(num), None if den is None else TrigPoly(den))
        except DegenerateSymbol as exc:
            raise ModelFormatError(str(exc), field=f"{name}[{i}][{i}].den")

    W = [[poly("W", i, j) for j in range(l)] for i in range(l)]
    R = [[mero("R", i) if i == j else poly("R", i, j) for j in range(l)] for i in range(l)]
    F = [[mero("F", i) if i == j else poly("F", i, j) for j in range(l)] for i in range(l)]
    return BlockModel(W=W, R=R, F=F, omega=omega, dioph=dioph, pole_tol=pole_tol)


def _coeff_rows(poly):
    # + 0.0 writes a -0.0 part as 0.0, so equal symbols write equal rows
    return [[int(k), float(c.real) + 0.0, float(c.imag) + 0.0] for k, c in poly.items()]


def model_to_dict(model):
    entries = []
    for name, grid in (("W", model.W), ("R", model.R), ("F", model.F)):
        for i in range(model.l):
            for j in range(i, model.l):
                sym = grid[i][j]
                if isinstance(sym, TrigPoly) and sym.is_zero:
                    continue  # a zero W or off-diagonal entry is left out; diagonals are not
                num, den = sym if isinstance(sym, MeroScalar) else (sym, None)
                ent = {"entry": f"{name}[{i}][{j}]", "num": _coeff_rows(num)}
                if den is not None and den != TrigPoly.constant(1.0):
                    ent["den"] = _coeff_rows(den)
                entries.append(ent)
    return {
        "l": model.l,
        "omega": model.omega,
        "dioph": {"A": model.dioph.A, "C0": model.dioph.C0},
        "pole_tol": model.pole_tol,
        "r_sign": -1,  # the sign model_from_dict folds into R, so every file says it
        "entries": entries,
    }


def model_hash(model):
    """Short content hash of the canonical serialized form."""
    canon = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}", field="$")
    return model_from_dict(cfg)


# the rotation and Diophantine constants of every bundled model
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DIOPH = Dioph(A=2.0, C0=0.1)


def _maryland():
    tan = MeroScalar.from_ratio(TrigPoly.sine(), TrigPoly.cosine())
    zero = MeroScalar.from_ratio(TrigPoly.zero())
    return BlockModel(
        W=[[TrigPoly.constant(1.0)]], R=[[zero]], F=[[tan]], omega=_GOLDEN, dioph=_DIOPH
    )


def _analytic2():
    one, zero = TrigPoly.constant(1.0), TrigPoly.zero()
    v1 = MeroScalar.from_ratio(TrigPoly.cosine())
    v2 = MeroScalar.from_ratio(TrigPoly.cosine(amp=1.5, shift=0.31))
    rz = MeroScalar.from_ratio(zero)
    return BlockModel(
        W=[[one, zero], [zero, one]],
        R=[[rz, one], [one, rz]],
        F=[[v1, zero], [zero, v2]],
        omega=_GOLDEN,
        dioph=_DIOPH,
    )


def _mero2():
    one = TrigPoly.constant(1.0)
    f00 = MeroScalar.from_ratio(TrigPoly.sine(), TrigPoly.cosine())
    f11 = MeroScalar.from_ratio(TrigPoly.sine(shift=0.29), TrigPoly.cosine(shift=0.29))
    f01 = TrigPoly.cosine(amp=0.2)
    r00 = MeroScalar.from_ratio(TrigPoly.sine(amp=0.5, shift=0.13), TrigPoly.cosine(shift=0.13))
    r11 = MeroScalar.from_ratio(TrigPoly.cosine(amp=0.3, shift=0.41))
    r01 = TrigPoly.sine(amp=0.1)
    w01 = TrigPoly.cosine(amp=0.25)
    return BlockModel(
        W=[[one, w01], [w01, one]],
        R=[[r00, r01], [r01, r11]],
        F=[[f00, f01], [f01, f11]],
        omega=_GOLDEN,
        dioph=_DIOPH,
    )


#: the shipped example models: the scalar tangent model, a 2x2 band model with
#: analytic diagonals, and a 2x2 model with poles on both the F and R diagonals
_BUILDERS = {"maryland": _maryland, "analytic2": _analytic2, "mero2": _mero2}
BUNDLED = tuple(_BUILDERS)


def bundled(name):
    """One of the shipped example models, by name."""
    if name not in BUNDLED:
        raise ModelFormatError(
            f"unknown bundled model {name!r}; choose from {', '.join(BUNDLED)}",
            field="model",
        )
    return _load_bundled(name)


# a BlockModel is immutable, so every caller may share one build; model files
# given by path are read on every call, because a file may change
@functools.cache
def _load_bundled(name):
    return _BUILDERS[name]()


def resolve_model(spec):
    """Interpret a CLI --model value as a bundled name or a file path."""
    if spec in BUNDLED:
        return bundled(spec)
    return load_model(spec)
