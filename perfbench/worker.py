"""One benchmark pass, run by `run.py` in a fresh interpreter.

usage: python3 worker.py SPEC.json

The spec names the workload's models, its jobs and whether to trace.  The
pass imports qpjacobi, resolves the models (that is the set-up that
`setup_s` measures, from the parent's spawn time to the monotonic time
printed here), then runs the jobs one after another and prints one JSON
result line: job times (wall, and corrected for CPU contention as
`contention.py` describes), exit codes, fingerprints, peak RSS and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path


def _capture(cli, captured):
    """Keep the reports the CLI handlers receive from the library sweeps.

    The CLI does not write the excluded, floored and zero-minor counters, so
    the fingerprint reads them here; a few calls per pass, no timing.
    """
    for name in ("deviation_measure", "check_minor_bound", "check_det_lower_bound"):
        fn = getattr(cli, name)

        def keep(*args, _fn=fn, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            captured[_name].append(result)
            return result

        setattr(cli, name, keep)


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})
    import qpjacobi
    from qpjacobi import cli, localization, models

    src = Path(spec["src"]).resolve()
    if src not in Path(qpjacobi.__file__).resolve().parents:
        raise SystemExit(f"qpjacobi imported from {qpjacobi.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    resolved = {name: models.resolve_model(name) for name in spec["models"]}
    ready = time.monotonic()

    import contention

    setup_slowdown = contention.burst_factor()
    if spec["setup_only"]:
        print(json.dumps({"ready": ready, "setup_slowdown": setup_slowdown}))
        return 0

    import numpy as np

    import fingerprint

    captured = defaultdict(list)
    _capture(cli, captured)
    top_before = tracer.top[0] if tracer else 0.0
    jobs = []
    per_call = []
    sampler = contention.Sampler()
    sampler.install()
    pass_start = time.perf_counter()
    for job in spec["jobs"]:
        rc, error = 0, None
        start = time.perf_counter()
        for call in job["calls"]:
            captured.clear()
            result = None
            try:
                if call["kind"] == "lyapunov":
                    result = localization.lyapunov_rates(
                        resolved[call["model"]], call["lam"],
                        np.asarray(call["energies"]), call["n_steps"], x=call["x"],
                    )
                else:
                    rc = cli.main(call["argv"])
            except Exception:
                rc, error = -1, traceback.format_exc()
            per_call.append((job["name"], call, dict(captured), result))
            if rc != 0:
                break
        end = time.perf_counter()
        jobs.append({"name": job["name"], "s": sampler.corrected(start, end),
                     "wall_s": end - start, "rc": rc, "error": error, "fingerprints": {}})
    pass_end = time.perf_counter()
    sampler.uninstall()
    pass_wall = pass_end - pass_start
    pass_s = sampler.corrected(pass_start, pass_end)
    top_jobs = (tracer.top[0] if tracer else 0.0) - top_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    by_name = {j["name"]: j for j in jobs}
    bytes_written = 0
    for name, call, caught, result in per_call:
        job = by_name[name]
        if job["rc"] != 0:
            continue
        if "out" in call:
            bytes_written += os.path.getsize(call["out"])
        try:
            job["fingerprints"][call["label"]] = fingerprint.extract(call, caught, result)
        except Exception:
            job["rc"], job["error"] = -2, traceback.format_exc()
    out = {
        "ready": ready,
        "setup_slowdown": setup_slowdown,
        "pass_s": pass_s,
        "pass_wall_s": pass_wall,
        "probes": len(sampler.samples),
        "jobs": jobs,
        "peak_rss_mb": peak_rss_mb,
        "versions": _versions(),
    }
    if tracer:
        overhead = pass_s / spec["untraced_pass_s"] - 1.0
        out["layers"] = tracer.metrics(pass_wall, top_jobs, bytes_written, overhead)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
