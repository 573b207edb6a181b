"""Command-line orchestration: argument parsing, sweeps, and report emission.

Every output file embeds a header with the model hash and the tool version,
and `bounds` adds its seed; given the same config, outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import AllDegenerate, ModelFormatError, NearSingular, PoleProximity, TooManyExclusions
from .ergodic import deviation_measure
from .greens import check_det_lower_bound, check_minor_bound, green_solve, midpoint_grid
from .localization import DEFAULT_MARGIN, _transfer_product, green_decay_scan, localize
from .models import is_number, model_hash, resolve_model
from .operator import OperatorParams, assemble_hamiltonian, assemble_regularized
from .symbols import check_nondegeneracy, is_diophantine

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_lines(rows):
    return (",".join(map(_fmt, row)) for row in rows)


def _write(args, model, body, extra=()):
    """Write one output to stdout or to `--out`.

    The header holds the common keys, then the command's own `extra` keys.
    `body` is a JSON payload dict, written after the header as "meta", or a
    (columns, ready-made lines) CSV table, written under '# key=value' lines.
    """
    meta = {
        "tool": "qpjacobi",
        "version": __version__,
        "command": args.command,
        "model_hash": model_hash(model),
        **dict(extra),
    }
    if isinstance(body, dict):
        text = json.dumps({"meta": meta, **body}, indent=2)
    else:
        columns, lines = body
        header = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
        text = "\n".join([*header, ",".join(columns), *lines])
    if args.out is None or args.out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


# argparse `type=` parsers: ModelFormatError is not a ValueError, so argparse
# lets it through to main, which reports it as a config error
def _int_pair(field, form):
    def parse(text):
        try:
            a, b = (int(s) for s in text.split(":"))
        except ValueError:
            raise ModelFormatError(f"expected {form}", field=field)
        return a, b

    return parse


def _finite(field):
    def parse(text):
        try:
            val = float(text)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise ModelFormatError("expected a finite number", field=field)
        return val

    return parse


def _number_list(convert, field, kind, name):
    def parse(text):
        try:
            vals = [convert(s) for s in text.split(",") if s]
        except ValueError:
            vals = [math.nan]
        if not all(map(is_number, vals)):
            raise ModelFormatError(f"expected a comma-separated {kind} list", field=field)
        if not vals:
            raise ModelFormatError(f"at least one {name} value required", field=field)
        return vals

    return parse


#: the required number flags that subcommands share: flag -> (dest, argparse type)
_NUMBER_FLAGS = {
    "--lambda": ("lam", float),
    "--x": ("x", _finite("--x")),
    "--E": ("E", _finite("--E")),
    "--x0": ("x0", _finite("--x0")),
}


def _matrix_rows(mat, l):
    """(block_row, block_col, i, j, value) of every band block of a dense window matrix."""
    n = mat.shape[0] // l
    blocks = mat.reshape(n, l, n, l)
    return [
        (bi + 1, bj + 1, i + 1, j + 1, float(blocks[bi, i, bj, j]))
        for bi in range(n)
        for bj in range(max(bi - 1, 0), min(bi + 2, n))
        for i in range(l)
        for j in range(l)
    ]


def _warn_diophantine(model, kmax=10000):
    chk = is_diophantine(model.omega, model.dioph.A, model.dioph.C0, kmax)
    if not chk.ok:
        sys.stderr.write(
            f"warning: omega={model.omega} fails the Diophantine condition "
            f"(A={model.dioph.A}, C0={model.dioph.C0}) at k={chk.worst_k}\n"
        )
    return chk


_BAND_COLUMNS = ("block_row", "block_col", "i", "j", "value")


def _run_assemble(args, model):
    assemble = assemble_hamiltonian if args.matrix == "h" else assemble_regularized
    mat = assemble(model, OperatorParams(args.lam, args.x, args.E, args.window))
    _write(args, model, (_BAND_COLUMNS, _csv_lines(_matrix_rows(mat, model.l))))


def _run_green(args, model):
    g, residual = green_solve(model, OperatorParams(args.lam, args.x, args.E, args.window))
    l = model.l
    site = [str(a // l + 1) for a in range(g.shape[0])]
    comp = [str(a % l + 1) for a in range(g.shape[0])]
    # a row is its four index columns, joined once, and the value
    index = [f"{sa},{sb},{ca},{cb}" for sa, ca in zip(site, comp) for sb, cb in zip(site, comp)]
    lines = [f"{i},{v:.17g}" for i, v in zip(index, g.ravel().tolist())]
    _write(args, model, (_BAND_COLUMNS, lines), {"residual": residual})


def _check_sweep(sweep):
    """Raise ModelFormatError unless the sweep file's lists and counts are well typed."""
    if not isinstance(sweep, dict):
        raise ModelFormatError("sweep file must hold a JSON object", field="--sweep")
    for key, ok, what in (
        ("N", lambda v: type(v) is int and v > 0, "positive ints"),
        ("lambda", is_number, "finite numbers"),
        ("E", is_number, "finite numbers"),
    ):
        vals = sweep.get(key)
        if not isinstance(vals, list) or not vals or not all(map(ok, vals)):
            raise ModelFormatError(f"{key!r} must be a nonempty list of {what}", field="--sweep")
    for key in ("x_count", "pairs", "nodes"):
        if key in sweep and not (type(sweep[key]) is int and sweep[key] >= 0):
            raise ModelFormatError(f"{key!r} must be a non-negative int", field="--sweep")


def _run_bounds(args, model):
    try:
        with open(args.sweep) as fh:
            sweep = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read sweep file: {exc}", field="--sweep")
    _check_sweep(sweep)
    if args.check == "minor":
        report = check_minor_bound(
            model, sweep["N"], sweep["lambda"], sweep["E"], x_count=sweep.get("x_count", 16),
            pairs_per_instance=sweep.get("pairs"), seed=args.seed,
        )
        columns = ("N", "lambda", "E", "x", "quantity", "slack", "zero_minors")
        group = "N"
    else:
        report = check_det_lower_bound(
            model, sweep["lambda"], sweep["E"], sweep["N"], midpoint_grid(sweep.get("nodes", 1024))
        )
        columns = ("N", "lambda", "E", "quantity", "slack", "excluded")
        group = "lambda"
    extra = {"seed": args.seed, "fitted_constant": report.fitted_constant}
    # a group key spells its value as the rows' own column does
    extra.update((f"{group}={_fmt(k)}", v) for k, v in report.group_constants.items())
    _write(args, model, (columns, _csv_lines(report.sweep["rows"])), extra)


def _run_ldt(args, model):
    # main already folded an --omega override into the model
    xs = midpoint_grid(args.grid)
    rows = []
    for Q in args.Qs:
        rep = deviation_measure(model, args.lam, args.E, args.N, Q, args.S, args.sigma, xs)
        rows.append((rep.Q, rep.threshold, rep.bad_fraction, rep.floored))
    # every Q of the ladder shares one reference integral
    columns = ("Q", "threshold", "bad_fraction", "floored")
    _write(args, model, (columns, _csv_lines(rows)), {"integral": rep.integral})


def _run_scan(args, model):
    a, b = args.shifts
    report = green_decay_scan(model, args.lam, args.E, args.x0, args.N0, range(a, b + 1))
    counts = report.counts
    extra = {"c11": report.c11, "good_fraction": report.good_fraction}
    extra.update(pole=counts["pole"], near_singular=counts["near_singular"])
    extra["eigensolved"] = report.eigensolved
    rows = [(r.shift, r.status, r.slack) for r in report.records]
    _write(args, model, (("shift", "status", "slack"), _csv_lines(rows)), extra)
    if counts["near_singular"] + counts["pole"] + counts["underflowed"] > len(report.records) / 2:
        raise NearSingular("more than half of the scanned windows failed")


def _run_localize(args, model):
    report = localize(model, args.lam, args.x0, args.N, margin=args.margin)
    _write(args, model, {"report": report.to_dict()})


def _run_lyapunov(args, model):
    rates, used = _transfer_product(model, args.lam, args.E, args.steps, args.x)
    extra = {"used": used, "skipped": args.steps - used}
    _write(args, model, (("E", "gamma"), _csv_lines(zip(args.E, rates.tolist()))), extra)


def _run_check_model(args, model):
    chk = _warn_diophantine(model, args.Kmax)
    zeros = {}
    for name, grid in (("F", model.F), ("R", model.R)):
        for i in range(model.l):
            zeros[f"{name}[{i}][{i}]"] = list(grid[i][i].zeros)
    nd = check_nondegeneracy(model, args.t_grid)
    payload = {
        "diophantine": {"ok": chk.ok, "worst_k": chk.worst_k, "worst_margin": chk.worst_margin},
        "denominator_zeros": zeros,
        "nondegeneracy": {"ok": nd.ok, "mahler": [{"t": t, "m": m} for t, m in nd.mahler]},
    }
    _write(args, model, payload)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts like a negative number (-1e-3, -8:8, -inf, -NaN)
        # is not a flag; Python 3.11's argparse pattern matches only the -1
        # and -.5 forms
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)\b)", re.I)

    def error(self, message):
        # main turns the config error into the exit code
        self.print_usage(sys.stderr)
        raise ModelFormatError(message)


# built at the first `main` call, not at import, and kept for the process:
# each `parse_args` call makes a fresh namespace
@functools.cache
def build_parser():
    parser = _Parser(prog="qpjacobi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qpjacobi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, help, numbers=()):
        """Subcommand `name` running `handler`, with the common flags and the
        shared required number flags `numbers`."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("--model", required=True, help="model file or bundled name")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        for flag in numbers:
            dest, kind = _NUMBER_FLAGS[flag]
            sp.add_argument(flag, dest=dest, type=kind, required=True)
        return sp

    window = _int_pair("--window", "u:v")
    sp = add_parser(
        "assemble", _run_assemble, "emit a finite-volume matrix as CSV", ("--lambda", "--x", "--E")
    )
    sp.add_argument("--window", type=window, required=True, help="u:v site window")
    sp.add_argument("--matrix", choices=("h", "htilde"), default="htilde")

    sp = add_parser(
        "green", _run_green, "emit the window Green's function as CSV", ("--lambda", "--x", "--E")
    )
    sp.add_argument("--window", type=window, required=True)

    sp = add_parser("bounds", _run_bounds, "minor upper bound / determinant lower bound sweeps")
    sp.add_argument("--sweep", required=True, help="JSON sweep file")
    sp.add_argument("--check", choices=("minor", "det"), required=True)
    sp.add_argument("--seed", type=int, default=0, help="pair sampling seed (minor, with pairs)")

    sp = add_parser(
        "ldt", _run_ldt, "large-deviation measurement over a Q ladder", ("--lambda", "--E")
    )
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--sigma", type=_finite("--sigma"), default=0.3)
    sp.add_argument("--S", type=_finite("--S"), default=1.0)
    sp.add_argument(
        "--Qs", type=_number_list(int, "--Qs", "integer", "Q"), default="10,32,100,316,1000"
    )
    sp.add_argument("--grid", type=int, default=2000)
    sp.add_argument(
        "--omega", type=_finite("--omega"), default=None, help="override the model rotation"
    )

    sp = add_parser(
        "scan", _run_scan, "Green decay over shifted windows", ("--lambda", "--E", "--x0")
    )
    sp.add_argument("--N0", type=int, default=16)
    sp.add_argument(
        "--shifts",
        type=_int_pair("--shifts", "a:b"),
        default="-256:255",
        help="a:b inclusive shift range",
    )

    sp = add_parser(
        "localize", _run_localize, "eigenpair decay-rate report as JSON", ("--lambda", "--x0")
    )
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--margin", type=int, default=DEFAULT_MARGIN)

    sp = add_parser(
        "lyapunov", _run_lyapunov, "transfer-matrix growth rates per energy", ("--lambda", "--x")
    )
    sp.add_argument("--E", type=_number_list(float, "--E", "number", "E"), required=True)
    sp.add_argument("--steps", type=int, required=True, help="transfer steps along the orbit")

    sp = add_parser(
        "check-model", _run_check_model, "hypothesis checks: rotation, poles, nondegeneracy"
    )
    sp.add_argument(
        "--t-grid", type=_number_list(float, "--t-grid", "number", "t"), default="-1,0,1"
    )
    sp.add_argument("--Kmax", type=int, default=10000)

    return parser


def main(argv=None):
    """Run one subcommand; the exit code is 0, 1 for a config or file-system
    error, or 2 for a numerical failure."""
    try:
        args = build_parser().parse_args(argv)
        model = resolve_model(args.model)
        if args.command == "ldt" and args.omega is not None:
            model = model.with_omega(args.omega)
        if args.command != "check-model":
            _warn_diophantine(model)
        # numpy's floating-point warnings stay off stderr: each failure they
        # would announce is checked where it arises and exits 2
        with np.errstate(all="ignore"):
            args.handler(args, model)
    except SystemExit:
        # --help and --version; every parse error is a ModelFormatError
        return EXIT_OK
    # LinAlgError subclasses ValueError, so the numerical failures come first
    except (
        np.linalg.LinAlgError, TooManyExclusions, NearSingular, AllDegenerate, PoleProximity
    ) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except (ModelFormatError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
