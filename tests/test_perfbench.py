"""What the benchmark harness under perfbench/ needs from the package.

The harness wraps library functions and symbol methods by name, captures
the reports some CLI handlers receive and reads their fields.  A change in
`src/` that breaks it would otherwise show only as a failed benchmark pass
or a traced run that dies.  This test runs one traced pass of the harness's
own worker with one tiny call of each job kind.
"""

import json
import os
import pathlib
import subprocess
import sys

import qpjacobi

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(qpjacobi.__file__).resolve().parents[1]


def _cli(kind, argv, out):
    return {"kind": kind, "label": kind, "argv": [*argv, "--out", str(out)], "out": str(out)}


def test_a_traced_worker_pass_runs_every_job_kind(tmp_path):
    (tmp_path / "minor.json").write_text(
        json.dumps({"N": [2], "lambda": [10.0], "E": [1.0], "x_count": 2})
    )
    (tmp_path / "det.json").write_text(
        json.dumps({"N": [2], "lambda": [10.0], "E": [0.5], "nodes": 512})
    )
    ldt = ["ldt", "--model", "maryland", "--lambda", "50", "--E", "1", "--N", "2",
           "--Qs", "2,5", "--grid", "1000"]
    jobs = [
        {"name": "ldt", "calls": [
            _cli("ldt", ldt, tmp_path / "ldt.csv"),
            {**_cli("ldt", [*ldt, "--omega", "0.5"], tmp_path / "half.csv"), "label": "half"},
        ]},
        {"name": "lyapunov", "calls": [{
            "kind": "lyapunov", "label": "rates", "model": "maryland", "lam": 20.0,
            "energies": [-1.0, 0.5, 3.0], "n_steps": 100, "x": 0.11,
        }]},
        {"name": "scan", "calls": [_cli("scan", [
            "scan", "--model", "mero2", "--lambda", "20", "--E", "0.5", "--x0", "0.11",
            "--N0", "2", "--shifts=-4:3"], tmp_path / "scan.csv")]},
        {"name": "localize", "calls": [_cli("localize", [
            "localize", "--model", "mero2", "--lambda", "20", "--x0", "0.11", "--N", "8",
            "--margin", "2"], tmp_path / "localize.json")]},
        {"name": "minor", "calls": [_cli("minor", [
            "bounds", "--model", "mero2", "--sweep", str(tmp_path / "minor.json"),
            "--check", "minor"], tmp_path / "minor.csv")]},
        {"name": "det", "calls": [_cli("det", [
            "bounds", "--model", "mero2", "--sweep", str(tmp_path / "det.json"),
            "--check", "det"], tmp_path / "det.csv")]},
        {"name": "green", "calls": [_cli("green", [
            "green", "--model", "maryland", "--lambda", "20", "--x", "0.11", "--E", "0.5",
            "--window=-4:4"], tmp_path / "green.csv")]},
    ]
    spec = {
        "src": str(SRC), "models": ["maryland", "mero2"], "jobs": jobs, "trace": True,
        "setup_only": False, "untraced_pass_s": 1.0, "cpu": min(os.sched_getaffinity(0)),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(tmp_path / "spec.json")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    for job, done in zip(jobs, out["jobs"]):
        assert (done["name"], done["rc"], done["error"]) == (job["name"], 0, None)
        # fingerprint.extract read every call's output and captured reports
        assert sorted(done["fingerprints"]) == sorted(call["label"] for call in job["calls"])
        assert all(done["fingerprints"].values())
    # Tracer.metrics gives every per-layer metric the benchmark declares, and
    # every layer's functions ran under a span
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layers = out["layers"]
    assert sorted(layers) == sorted(m["name"] for m in declared)
    for layer in ("symbols", "models", "operator", "greens", "ergodic", "localization", "cli"):
        assert layers[f"{layer}.self_s"][0] > 0.0, layer
