"""Command-line orchestration: config ingestion, sweeps, and report emission.

Every output file embeds a header with the model hash, the seed, and the
tool version; given the same config and seed, outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .errors import (
    AllDegenerate,
    ModelFormatError,
    NearSingular,
    PoleProximity,
    TooManyExclusions,
)
from .ergodic import deviation_measure
from .greens import (
    check_det_lower_bound,
    check_minor_bound,
    green_full,
    midpoint_grid,
)
from .localization import green_decay_scan, localize
from .models import model_hash, resolve_model
from .operator import OperatorParams, assemble_hamiltonian, assemble_regularized
from .symbols import check_nondegeneracy, is_diophantine

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


@dataclass
class ExperimentConfig:
    command: str
    model_spec: str
    out: str | None
    seed: int
    params: dict = field(default_factory=dict)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _meta(config, model):
    return {
        "tool": "qpjacobi",
        "version": __version__,
        "command": config.command,
        "model_hash": model_hash(model),
        "seed": config.seed,
    }


def _write_csv(path, meta, columns, rows):
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, meta, payload):
    doc = {"meta": meta, **payload}
    text = json.dumps(doc, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_window(text):
    try:
        u, v = text.split(":")
        return int(u), int(v)
    except ValueError:
        raise ModelFormatError("expected u:v", field="--window")


def _matrix_rows(block_mat):
    rows = []
    n, l = block_mat.n_sites, block_mat.l
    for bi in range(1, n + 1):
        for bj in (bi - 1, bi, bi + 1):
            if not (1 <= bj <= n):
                continue
            blk = block_mat.block(bi, bj)
            for i in range(l):
                for j in range(l):
                    rows.append((bi, bj, i + 1, j + 1, float(blk[i, j])))
    return rows


def _warn_diophantine(model, kmax=10000):
    chk = is_diophantine(model.omega, model.dioph.A, model.dioph.C0, kmax)
    if not chk.ok:
        sys.stderr.write(
            f"warning: omega={model.omega} fails the Diophantine condition "
            f"(A={model.dioph.A}, C0={model.dioph.C0}) at k={chk.worst_k}\n"
        )
    return chk


def _run_assemble(config, model):
    p = config.params
    params = OperatorParams(lam=p["lam"], x=p["x"], E=p["E"], window=p["window"])
    if p["matrix"] == "h":
        mat = assemble_hamiltonian(model, params)
    else:
        mat = assemble_regularized(model, params)
    _write_csv(
        config.out,
        _meta(config, model),
        ("block_row", "block_col", "i", "j", "value"),
        _matrix_rows(mat),
    )
    return EXIT_OK


def _run_green(config, model):
    p = config.params
    params = OperatorParams(lam=p["lam"], x=p["x"], E=p["E"], window=p["window"])
    g = green_full(model, params)
    l = model.l
    rows = []
    for a in range(g.shape[0]):
        for b in range(g.shape[1]):
            rows.append((a // l + 1, b // l + 1, a % l + 1, b % l + 1, float(g[a, b])))
    _write_csv(
        config.out,
        _meta(config, model),
        ("block_row", "block_col", "i", "j", "value"),
        rows,
    )
    return EXIT_OK


def _is_number(v):
    return type(v) is int or type(v) is float and math.isfinite(v)


def _check_sweep(sweep):
    """Raise ModelFormatError unless the sweep file's lists and counts are well typed."""
    if not isinstance(sweep, dict):
        raise ModelFormatError("sweep file must hold a JSON object", field="--sweep")
    for key, ok, what in (
        ("N", lambda v: type(v) is int and v > 0, "positive ints"),
        ("lambda", _is_number, "finite numbers"),
        ("E", _is_number, "finite numbers"),
    ):
        vals = sweep.get(key)
        if not isinstance(vals, list) or not vals or not all(map(ok, vals)):
            raise ModelFormatError(f"{key!r} must be a nonempty list of {what}", field="--sweep")
    for key in ("x_count", "pairs", "nodes"):
        if key in sweep and not (type(sweep[key]) is int and sweep[key] >= 0):
            raise ModelFormatError(f"{key!r} must be a non-negative int", field="--sweep")


def _run_bounds(config, model):
    p = config.params
    try:
        with open(p["sweep"]) as fh:
            sweep = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read sweep file: {exc}", field="--sweep")
    _check_sweep(sweep)
    if p["check"] == "minor":
        report = check_minor_bound(
            model,
            sweep["N"],
            sweep["lambda"],
            sweep["E"],
            x_count=sweep.get("x_count", 16),
            pairs_per_instance=sweep.get("pairs"),
            seed=config.seed,
        )
        rows = report.sweep["rows"]
    else:
        report = check_det_lower_bound(
            model, sweep["lambda"], sweep["E"], sweep["N"], midpoint_grid(sweep.get("nodes", 1024))
        )
        rows = [
            (n, lam, E, float("nan"), value, c1)
            for n, lam, E, value, c1, _excluded in report.sweep["rows"]
        ]
    extra = {"fitted_constant": report.fitted_constant, **report.group_constants}
    meta = _meta(config, model)
    meta.update({k: _fmt(v) for k, v in extra.items()})
    _write_csv(config.out, meta, ("N", "lambda", "E", "x", "quantity", "slack"), rows)
    return EXIT_OK


def _run_ldt(config, model):
    # a rotation override was already folded into the model by run()
    p = config.params
    xs = midpoint_grid(p["grid"])
    rows = []
    for Q in p["Qs"]:
        rep = deviation_measure(model, p["lam"], p["E"], p["N"], Q, p["S"], p["sigma"], xs)
        rows.append((rep.Q, rep.threshold, rep.bad_fraction))
    _write_csv(config.out, _meta(config, model), ("Q", "threshold", "bad_fraction"), rows)
    return EXIT_OK


def _run_scan(config, model):
    p = config.params
    report = green_decay_scan(
        model, p["lam"], p["E"], p["x0"], p["N0"], range(p["shifts"][0], p["shifts"][1] + 1)
    )
    meta = _meta(config, model)
    meta["c11"] = _fmt(report.c11)
    meta["good_fraction"] = _fmt(report.good_fraction)
    rows = [(r.shift, r.status, r.slack) for r in report.records]
    _write_csv(config.out, meta, ("shift", "status", "slack"), rows)
    if report.counts["near_singular"] + report.counts["pole"] > len(report.records) / 2:
        raise NearSingular("more than half of the scanned windows failed")
    return EXIT_OK


def _run_localize(config, model):
    p = config.params
    report = localize(model, p["lam"], p["x0"], p["N"], margin=p["margin"])
    _write_json(config.out, _meta(config, model), {"report": report.to_dict()})
    return EXIT_OK


def _run_check_model(config, model):
    p = config.params
    chk = _warn_diophantine(model, p["kmax"])
    zeros = {}
    for name, grid in (("F", model.F), ("R", model.R)):
        for i in range(model.l):
            zeros[f"{name}[{i}][{i}]"] = list(grid[i][i].zeros)
    ts = [float(t) for t in p["t_grid"]]
    xs = midpoint_grid(p["x_count"])
    nd = check_nondegeneracy(model, ts, xs)
    payload = {
        "diophantine": {
            "ok": chk.ok,
            "worst_k": chk.worst_k,
            "worst_margin": chk.worst_margin,
        },
        "denominator_zeros": zeros,
        "nondegeneracy": {
            "ok": nd.ok,
            "witnesses": [
                {"t": t, "x": x, "det": d} for t, x, d in nd.witnesses
            ],
        },
    }
    _write_json(config.out, _meta(config, model), payload)
    return EXIT_OK


_HANDLERS = {
    "assemble": _run_assemble,
    "green": _run_green,
    "bounds": _run_bounds,
    "ldt": _run_ldt,
    "scan": _run_scan,
    "localize": _run_localize,
    "check-model": _run_check_model,
}


def run(config):
    """Execute one experiment described by an ExperimentConfig."""
    model = resolve_model(config.model_spec)
    if config.command != "check-model":
        _warn_diophantine(model)
    if config.params.get("omega") is not None:
        model = model.with_omega(config.params["omega"])
    return _HANDLERS[config.command](config, model)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def build_parser():
    parser = _Parser(prog="qpjacobi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qpjacobi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", required=True, help="model file or bundled name")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("assemble", help="emit a finite-volume matrix as CSV")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--E", type=float, required=True)
    sp.add_argument("--window", required=True, help="u:v site window")
    sp.add_argument("--matrix", choices=("h", "htilde"), default="htilde")

    sp = sub.add_parser("green", help="emit the window Green's function as CSV")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--E", type=float, required=True)
    sp.add_argument("--window", required=True)

    sp = sub.add_parser("bounds", help="minor upper bound / determinant lower bound sweeps")
    common(sp)
    sp.add_argument("--sweep", required=True, help="JSON sweep file")
    sp.add_argument("--check", choices=("minor", "det"), required=True)

    sp = sub.add_parser("ldt", help="large-deviation measurement over a Q ladder")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--E", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=0.3)
    sp.add_argument("--S", type=float, default=1.0)
    sp.add_argument("--Qs", default="10,32,100,316,1000")
    sp.add_argument("--grid", type=int, default=2000)
    sp.add_argument("--omega", type=float, default=None, help="override the model rotation")

    sp = sub.add_parser("scan", help="Green decay over shifted windows")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--E", type=float, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--N0", type=int, default=16)
    sp.add_argument(
        "--shifts",
        default="-256:255",
        help="a:b inclusive shift range (use --shifts=-8:8 for negative starts)",
    )

    sp = sub.add_parser("localize", help="eigenpair decay-rate report as JSON")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--margin", type=int, default=32)

    sp = sub.add_parser("check-model", help="hypothesis checks: rotation, poles, nondegeneracy")
    common(sp)
    sp.add_argument("--t-grid", default="-1,0,1")
    sp.add_argument("--x-count", type=int, default=4096)
    sp.add_argument("--Kmax", type=int, default=10000)

    return parser


def _config_from_args(args):
    params = {}
    if args.command in ("assemble", "green"):
        params = {
            "lam": args.lam,
            "x": args.x,
            "E": args.E,
            "window": _parse_window(args.window),
        }
        if args.command == "assemble":
            params["matrix"] = args.matrix
    elif args.command == "bounds":
        params = {"sweep": args.sweep, "check": args.check}
    elif args.command == "ldt":
        try:
            qs = [int(s) for s in args.Qs.split(",") if s]
        except ValueError:
            raise ModelFormatError("expected a comma-separated integer list", field="--Qs")
        if not qs:
            raise ModelFormatError("at least one Q value required", field="--Qs")
        params = {
            "lam": args.lam,
            "E": args.E,
            "N": args.N,
            "sigma": args.sigma,
            "S": args.S,
            "Qs": qs,
            "grid": args.grid,
            "omega": args.omega,
        }
    elif args.command == "scan":
        try:
            a, b = (int(s) for s in args.shifts.split(":"))
        except ValueError:
            raise ModelFormatError("expected a:b", field="--shifts")
        params = {
            "lam": args.lam,
            "E": args.E,
            "x0": args.x0,
            "N0": args.N0,
            "shifts": (a, b),
        }
    elif args.command == "localize":
        params = {"lam": args.lam, "x0": args.x0, "N": args.N, "margin": args.margin}
    elif args.command == "check-model":
        try:
            t_grid = [float(s) for s in args.t_grid.split(",") if s]
        except ValueError:
            raise ModelFormatError("expected a comma-separated number list", field="--t-grid")
        if not t_grid:
            raise ModelFormatError("at least one t value required", field="--t-grid")
        params = {"t_grid": t_grid, "x_count": args.x_count, "kmax": args.Kmax}
    return ExperimentConfig(
        command=args.command,
        model_spec=args.model,
        out=args.out,
        seed=args.seed,
        params=params,
    )


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return run(config)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except (ModelFormatError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (TooManyExclusions, NearSingular, AllDegenerate, PoleProximity) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
