"""The package runs on numpy alone: scipy is a test dependency only."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import qpjacobi

SRC = pathlib.Path(qpjacobi.__file__).resolve().parents[1]


def _python(code, cwd, flags=(), paths=()):
    path = os.pathsep.join([str(SRC), *map(str, paths), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_loads_no_scipy(tmp_path):
    proc = _python(
        "import sys, qpjacobi, qpjacobi.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_and_model_load_generate_no_code(tmp_path):
    # -S: no site hook imports either module first; numpy comes from its own directory
    proc = _python(
        "import sys, qpjacobi, qpjacobi.cli\n"
        "assert qpjacobi.resolve_model('mero2').l == 2\n"
        "print(sorted(m for m in ('dataclasses', 'importlib.resources') if m in sys.modules))",
        tmp_path,
        flags=["-S"],
        paths=[pathlib.Path(np.__file__).resolve().parents[1]],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    sweeps = {
        "minor": {"N": [2, 3], "lambda": [10], "E": [1.0], "x_count": 2},
        "det": {"N": [2], "lambda": [10], "E": [0.5], "nodes": 512},
        # 48 instances each, none with a vanishing minor
        "minor_maryland": {"N": [4, 8, 16], "lambda": [10, 100], "E": [1, -3], "x_count": 4},
        "minor_mero2": {"N": [2, 4, 8], "lambda": [10, 100], "E": [1, -3], "x_count": 4},
    }
    for name, sweep in sweeps.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(sweep))
    maryland = ["--model", "maryland", "--lambda", "20"]
    argvs = {
        "assemble": ["assemble", *maryland, "--x", "0.1", "--E", "0.5", "--window", "1:3"],
        "green": ["green", "--model", "mero2", "--lambda", "20", "--x", "0.1", "--E", "0.5",
                  "--window", "1:3"],
        "scan": ["scan", *maryland, "--E", "0.5", "--x0", "0.1", "--N0", "2", "--shifts=-3:3"],
        # site 5 of this orbit sits on the pole of tan(2 pi x) at phase 1/4
        "pole_scan": ["scan", *maryland, "--E", "0.5", "--x0", "POLE_X0", "--N0", "4",
                      "--shifts=-8:11"],
        "minor": ["bounds", "--model", "maryland", "--sweep", "minor.json", "--check", "minor"],
        "det": ["bounds", "--model", "mero2", "--sweep", "det.json", "--check", "det"],
        "minor_maryland": ["bounds", "--model", "maryland", "--sweep", "minor_maryland.json",
                           "--check", "minor"],
        "minor_mero2": ["bounds", "--model", "mero2", "--sweep", "minor_mero2.json",
                        "--check", "minor"],
        "ldt": ["ldt", "--model", "maryland", "--lambda", "50", "--E", "1", "--N", "2",
                "--Qs", "10,32", "--grid", "1000"],
        "localize": ["localize", *maryland, "--x0", "0.41", "--N", "32", "--margin", "8"],
        "lyapunov": ["lyapunov", *maryland, "--x", "0.1", "--E", "0.5,-3", "--steps", "200"],
        "check-model": ["check-model", "--model", "mero2", "--x-count", "64", "--Kmax", "100"],
    }
    code = f"""
import json, sys
BLOCK
from qpjacobi import bundled, cli
argvs = {argvs!r}
pole_x0 = repr((0.25 - 5 * bundled("maryland").omega) % 1.0)
rcs = {{}}
for name, argv in argvs.items():
    argv = [pole_x0 if a == "POLE_X0" else a for a in argv]
    rcs[name] = cli.main([*argv, "--out", name + ".out"])
print(json.dumps(rcs))
"""
    # the same commands with scipy importable write the same bytes
    outs = {}
    for block in ('sys.modules["scipy"] = None', ""):
        proc = _python(code.replace("BLOCK", block), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == dict.fromkeys(argvs, 0)
        outs[block] = {name: (tmp_path / f"{name}.out").read_bytes() for name in argvs}
    blocked, importable = outs.values()
    assert blocked == importable
    assert b"# pole=9" in blocked["pole_scan"].splitlines()
    for name in ("minor_maryland", "minor_mero2"):
        table = [l for l in blocked[name].decode().splitlines() if not l.startswith("#")]
        assert table[0] == "N,lambda,E,x,quantity,slack,zero_minors"
        assert len(table) == 1 + 48 and {row.split(",")[6] for row in table[1:]} == {"0"}


def test_import_builds_no_parser_and_loads_no_model(tmp_path):
    # the parser and the bundled models are built at their first use
    proc = _python(
        "import qpjacobi, qpjacobi.cli\n"
        "print(qpjacobi.cli.build_parser.cache_info().currsize,"
        " qpjacobi.models._load_bundled.cache_info().currsize)",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_deleted_names_stay_deleted():
    import qpjacobi.operator

    gone = {
        qpjacobi: (
            "birkhoff_avg", "lyapunov_transfer", "green_entry_cramer", "GreenEntryQuery",
            "minor_oracle", "index_split", "BlockTridiagonal", "EigenPair", "green_full",
            "TooFewPoints",
        ),
        qpjacobi.operator: ("hopping_sup_bound", "onsite_sup_bound"),
    }
    back = {m.__name__: [n for n in names if hasattr(m, n)] for m, names in gone.items()}
    assert back == {"qpjacobi": [], "qpjacobi.operator": []}
