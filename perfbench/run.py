#!/usr/bin/env python3
"""qpjacobi benchmark: end-to-end job times per workload, and a traced
per-module breakdown.

usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all      # every workload, one table each
  python3 perfbench/run.py --self-test         # a perturbed reference must be caught
  python3 perfbench/run.py --record-reference  # rewrite reference.json from src/

Run from the repository root; the package is imported from ./src.  Every
pass runs in a fresh interpreter (closed loop, one client, jobs one after
another), so each pass pays what a command-line user pays: interpreter
start, imports, model load with its pole search, and an empty
`ergodic._torus_integral` cache.  Set-up is timed separately from the jobs
by extra set-up-only interpreters.  Gated times are corrected for the
co-tenant contention of the CPU (see contention.py); the raw wall times
are printed beside them.  With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of one traced pass, next to one untraced pass for the overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

import fingerprint
from workloads import DEFAULT_SEED, VARIANTS, WORKLOADS, build_jobs, make_inputs, variant_for_seed

#: BLAS threads of the passes (so never more than the usable cores); the
#: matrices are at most 513 x 513, where threads add noise and no speed
BLAS_THREADS = 1
#: set-up-only interpreters per run, after one untimed warm-up
SETUP_PROBES = 4
MIN_PASSES = 2
#: a workload run, passes included, ends within this many seconds
RUN_LIMIT_S = 170
#: jobs reported on their own in the table; localize and green (0.1-0.2 s)
#: are too short to repeat within a tenth and count only toward pass_s
NAMED_JOBS = ("ldt", "lyapunov", "scan", "minor", "det")
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "jobs_ok_frac": "frac"}


class HarnessError(RuntimeError):
    pass


def machine_info(versions):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), **caches, **versions,
            "blas_threads": BLAS_THREADS}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cpu_cycle():
    """The usable CPUs, endlessly in turn.

    Consecutive interpreters of a run are pinned to them in turn: the
    slowdowns that other tenants of the host cause differ per CPU and are
    uncorrelated between them, so alternating keeps one CPU's bad spell
    from setting a whole run's median.
    """
    return itertools.cycle(sorted(os.sched_getaffinity(0)))


def spawn(spec, out_dir, cpu, timeout=RUN_LIMIT_S):
    """Run one pass (or set-up probe) in a fresh interpreter pinned to `cpu`; returns its result."""
    spec = {**spec, "cpu": cpu}
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"pass exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - start
    result["setup_s"] = result["setup_wall_s"] / result["setup_slowdown"]
    result["stderr"] = proc.stderr[-2000:]
    result["spawn_to_exit_s"] = time.monotonic() - start
    return result


def base_spec(workload, inputs, out_dir):
    return {
        "src": str(SRC),
        "models": list(WORKLOADS[workload].models),
        "jobs": build_jobs(workload, inputs, out_dir),
        "trace": False,
        "setup_only": False,
        "untraced_pass_s": None,
    }


def check_jobs(passes, reference):
    """(attempted, failed, messages) over every job of every pass."""
    attempted = failed = 0
    messages = []
    for number, result in enumerate(passes):
        for job in result["jobs"]:
            attempted += 1
            expected = reference.get(job["name"], {})
            if job["rc"] != 0:
                problems = [f"exit code {job['rc']}", job["error"] or result["stderr"]]
            else:
                problems = [
                    f"{label}: {p}"
                    for label in sorted(set(expected) | set(job["fingerprints"]))
                    for p in fingerprint.compare(
                        job["fingerprints"].get(label, {}), expected.get(label, {})
                    )
                ]
            if problems:
                failed += 1
                messages.append(f"pass {number} job {job['name']}: " + "; ".join(problems))
    return attempted, failed, messages


def load_reference(workload, variant):
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload][str(variant)]


def tail(values):
    """(label, value) of the highest percentile with at least 10 samples beyond it."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(values, n=100)[pct - 1]
    return None


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, table rows, machine info, messages)."""
    variant = variant_for_seed(seed)
    inputs = make_inputs(variant)
    out_dir = OUT / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spec = base_spec(workload, inputs, out_dir)
    reference = load_reference(workload, variant)
    started = time.monotonic()
    cpus = cpu_cycle()

    def run(pass_spec, cpu=None):
        cpu = next(cpus) if cpu is None else cpu
        return spawn(pass_spec, out_dir, cpu, RUN_LIMIT_S - (time.monotonic() - started))

    run({**spec, "setup_only": True})  # untimed: byte-compile, warm the file cache
    if trace:
        # both passes on one CPU, so that the overhead is not another CPU's noise
        cpu = next(cpus)
        untraced = run(spec, cpu)
        traced = run({**spec, "trace": True, "untraced_pass_s": untraced["pass_s"]}, cpu)
        passes, setups = [untraced, traced], []
    else:
        setups = [run({**spec, "setup_only": True}) for _ in range(SETUP_PROBES)]
        passes = []
        while True:
            passes.append(run(spec))
            per_pass = statistics.median(p["spawn_to_exit_s"] for p in passes)
            if len(passes) >= MIN_PASSES and time.monotonic() - started + per_pass > seconds:
                break
    attempted, failed, messages = check_jobs(passes, reference)
    info = machine_info(passes[0]["versions"])
    header = {"workload": workload, "seed": seed, "variant": variant, "x0": inputs.x0,
              "seconds": seconds, "trace": trace, "passes": len(passes)}
    if trace:
        layers = traced["layers"]
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit, _) in layers.items()}
        rows = [(k, v, unit, 1, None) for k, (v, unit, _) in layers.items()]
    else:
        metrics, rows = end_to_end(passes, setups, attempted, failed)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, rows, {**header, "machine": info}, messages


def end_to_end(passes, setups, attempted, failed):
    """Gated metrics (medians over the run) and the table rows, per-job times included."""
    walls = {
        "setup_wall_s": [s["setup_wall_s"] for s in setups + passes],
        "pass_wall_s": [p["pass_wall_s"] for p in passes],
        "cpu_slowdown": [p["pass_wall_s"] / p["pass_s"] for p in passes],
    }
    samples = {
        "setup_s": [s["setup_s"] for s in setups + passes],
        "pass_s": [p["pass_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]}
               for k, v in samples.items()}
    metrics["jobs_ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "frac"}
    rows = [(k, metrics[k]["value"], metrics[k]["unit"], len(v), tail(v)) for k, v in samples.items()]
    rows.append(("jobs_ok_frac", metrics["jobs_ok_frac"]["value"], "frac", attempted, None))
    for k, v in walls.items():
        rows.append((k, statistics.median(v), "x" if k == "cpu_slowdown" else "s", len(v), tail(v)))
    job_times = {}
    for p in passes:
        for job in p["jobs"]:
            job_times.setdefault(job["name"], []).append(job["s"])
    for name in NAMED_JOBS:
        if name in job_times:
            vals = job_times[name]
            rows.append((f"{name}_s", statistics.median(vals), "s", len(vals), tail(vals)))
    rows.append(("jobs_failed_frac", failed / attempted, "frac", attempted, None))
    return metrics, rows


def print_table(header, rows, messages):
    print("# qpjacobi benchmark " + " ".join(f"{k}={v}" for k, v in header.items() if k != "machine"))
    print("# machine " + json.dumps(header["machine"], sort_keys=True))
    print(f"{'metric':40s} {'median':>14s} {'unit':6s} {'samples':>7s}  tail")
    for name, value, unit, n, tail_value in rows:
        extra = f"{tail_value[0]}={tail_value[1]:.6g}" if tail_value else "-"
        print(f"{name:40s} {value:14.6g} {unit:6s} {n:7d}  {extra}")
    for msg in messages:
        print("MISMATCH " + msg, file=sys.stderr)


def record_reference():
    doc = {
        "note": "fingerprints of src/ as committed with the benchmark; "
                "tolerances are stated in fingerprint.py",
        "workloads": {},
    }
    cpus = cpu_cycle()
    for workload in WORKLOADS:
        per_variant = {}
        for variant in range(VARIANTS):
            out_dir = OUT / "reference" / workload
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            result = spawn(base_spec(workload, make_inputs(variant), out_dir), out_dir, next(cpus))
            for job in result["jobs"]:
                if job["rc"] != 0:
                    raise HarnessError(f"{workload} variant {variant} {job['name']}: "
                                       f"{job['error'] or result['stderr']}")
            per_variant[str(variant)] = {j["name"]: j["fingerprints"] for j in result["jobs"]}
            print(f"recorded {workload} variant {variant}", file=sys.stderr)
        doc["workloads"][workload] = per_variant
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def _perturbed(value, scale):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1.0 + scale * fingerprint.REL_TOL) + scale * fingerprint.ABS_TOL
    return [_perturbed(value[0], scale), *value[1:]]


def self_test():
    """One real pass must match the reference, and every single-value
    perturbation of that reference beyond the tolerance must fail the job,
    while one inside the tolerance must not."""
    workload, variant = "block-mero2", variant_for_seed(DEFAULT_SEED)
    out_dir = OUT / "self-test"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    passes = [spawn(base_spec(workload, make_inputs(variant), out_dir), out_dir, next(cpu_cycle()))]
    reference = load_reference(workload, variant)
    _, failed, messages = check_jobs(passes, reference)
    errors = [f"unperturbed reference: {m}" for m in messages]
    checked = 0
    for job, labels in reference.items():
        for label, fp in labels.items():
            for key, value in fp.items():
                for scale, should_fail in ((10.0, True), (0.1, False)):
                    if should_fail is False and not isinstance(value, (float, list)):
                        continue
                    bad = json.loads(json.dumps(reference))
                    bad[job][label][key] = _perturbed(value, scale)
                    _, failed, _ = check_jobs(passes, bad)
                    if bool(failed) != should_fail:
                        errors.append(f"{job}/{label}/{key} x{scale}: failed={failed}")
                    checked += 1
    for err in errors:
        print("SELF-TEST " + err, file=sys.stderr)
    print(f"self-test: {checked} perturbations of the {workload} reference checked, "
          f"{len(errors)} errors")
    return 1 if errors else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[*WORKLOADS, "all"])
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qpjacobi" / "__init__.py").is_file():
        print(f"error: no qpjacobi sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.record_reference:
            return record_reference()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        total_failed = 0
        for name in names:
            line, rows, header, messages = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(header, rows, messages)
            total_failed += line["failed"]
            if args.workload != "all":
                print(json.dumps(line))
        return 1 if total_failed else 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
