"""Workload definitions and the seeded input generator.

A workload is a fixed list of jobs.  Each job is one or more `qpjacobi`
command-line invocations (run in-process through `qpjacobi.cli.main`) or a
call of the transfer-matrix oracle `lyapunov_rates`.  The seed only picks an
input variant: the phase `x`/`x0` of the windowed jobs and the Lyapunov
energy set.  Variants form a finite grid inside fixed ranges so that every
variant has a reference fingerprint recorded in `reference.json`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
VARIANTS = 8
#: x / x0 values 0.11, 0.16, ..., 0.46: off the rational phases where the
#: bundled models' denominators vanish (maryland at 1/4 and 3/4)
X0_GRID = tuple(round(0.11 + 0.05 * v, 2) for v in range(VARIANTS))
#: Lyapunov energies are drawn uniformly from [-E_RANGE, E_RANGE]
E_RANGE = 40.0
LYAP_ENERGIES = 400
LYAP_STEPS = 20_000
LYAP_LAMBDA = 20.0

LDT_ARGS = [
    "--model", "maryland", "--lambda", "50", "--E", "1", "--N", "4",
    "--Qs", "10,32,100,316,1000", "--grid", "2000",
]


@dataclass(frozen=True)
class Inputs:
    variant: int
    x0: float
    energies: tuple


def variant_for_seed(seed):
    return random.Random(seed).randrange(VARIANTS)


def make_inputs(variant):
    """Everything a pass needs from an input variant."""
    rng = random.Random(1000 + variant)
    energies = tuple(sorted(rng.uniform(-E_RANGE, E_RANGE) for _ in range(LYAP_ENERGIES)))
    return Inputs(variant=variant, x0=X0_GRID[variant], energies=energies)


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orbit-scalar",
            ("maryland",),
            "phase-vectorized orbit path of the scalar model: TrigPoly evaluation, l=1 "
            "log-det recurrence, Birkhoff and transfer loops; no window assembly",
        ),
        Workload(
            "window-scalar",
            ("maryland",),
            "per-site window assembly and many small dense factorizations on the scalar "
            "model: 512 overlapping scan windows, eigensolve, minor sweep with its re-sweep",
        ),
        Workload(
            "block-mero2",
            ("mero2",),
            "the same greens/operator entry points through their l>=2 paths on a 2x2 "
            "model with poles on both diagonals: dense log-det per node, block scan",
        ),
    )
}


def _cli(kind, label, argv, out):
    return {"kind": kind, "label": label, "argv": [*argv, "--out", str(out)], "out": str(out)}


def _sweep(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def build_jobs(workload, inputs, out_dir):
    """Job list of one pass; writes the sweep files the jobs read into out_dir."""
    out = Path(out_dir)
    x0 = repr(inputs.x0)
    if workload == "orbit-scalar":
        return [
            {"name": "ldt", "calls": [
                _cli("ldt", "golden", ["ldt", *LDT_ARGS], out / "ldt_golden.csv"),
                _cli("ldt", "omega_half", ["ldt", *LDT_ARGS, "--omega", "0.5"],
                     out / "ldt_omega_half.csv"),
            ]},
            {"name": "lyapunov", "calls": [{
                "kind": "lyapunov", "label": "rates", "model": "maryland",
                "lam": LYAP_LAMBDA, "energies": list(inputs.energies),
                "n_steps": LYAP_STEPS, "x": inputs.x0,
            }]},
        ]
    if workload == "window-scalar":
        minor = _sweep(out / "minor_sweep.json", {
            "N": [4, 8, 16], "lambda": [10.0, 100.0, 1000.0],
            "E": [1.0, 10.0, 100.0], "x_count": 16,
        })
        common = ["--model", "maryland", "--lambda", "20"]
        return [
            {"name": "scan", "calls": [_cli("scan", "scan", [
                "scan", *common, "--E", "0.5", "--x0", x0, "--N0", "16",
                "--shifts=-256:255"], out / "scan.csv")]},
            {"name": "localize", "calls": [_cli("localize", "localize", [
                "localize", *common, "--x0", x0, "--N", "256", "--margin", "32"],
                out / "localize.json")]},
            {"name": "minor", "calls": [_cli("minor", "minor", [
                "bounds", "--model", "maryland", "--sweep", minor, "--check", "minor"],
                out / "minor.csv")]},
            {"name": "green", "calls": [_cli("green", "green", [
                "green", *common, "--x", x0, "--E", "0.5", "--window=-64:64"],
                out / "green.csv")]},
        ]
    if workload == "block-mero2":
        det = _sweep(out / "det_sweep.json", {
            "N": [4], "lambda": [10.0, 100.0], "E": [0.5], "nodes": 1024,
        })
        minor = _sweep(out / "minor_sweep.json", {
            "N": [4, 8], "lambda": [10.0, 100.0, 1000.0],
            "E": [1.0, 10.0, 100.0], "x_count": 8,
        })
        common = ["--model", "mero2", "--lambda", "20"]
        return [
            {"name": "det", "calls": [_cli("det", "det", [
                "bounds", "--model", "mero2", "--sweep", det, "--check", "det"],
                out / "det.csv")]},
            {"name": "scan", "calls": [_cli("scan", "scan", [
                "scan", *common, "--E", "0.5", "--x0", x0, "--N0", "8",
                "--shifts=-64:63"], out / "scan.csv")]},
            {"name": "localize", "calls": [_cli("localize", "localize", [
                "localize", *common, "--x0", x0, "--N", "128", "--margin", "32"],
                out / "localize.json")]},
            {"name": "minor", "calls": [_cli("minor", "minor", [
                "bounds", "--model", "mero2", "--sweep", minor, "--check", "minor"],
                out / "minor.csv")]},
        ]
    raise ValueError(f"unknown workload {workload!r}")
