"""Output fingerprints of the benchmark jobs and their comparison.

A fingerprint is a flat mapping from a name to an int, a float or a list of
them.  Tolerance, stated once for every job:

* integers (counts: shift statuses, excluded nodes, floored terms, zero
  minors, samples, rows) must match exactly;
* floats (bad and good fractions, fitted and group constants, the localize
  aggregate fraction, the median Lyapunov rate, sums) must match to
  REL_TOL relative, with an ABS_TOL floor for values at zero.  Fractions are
  ratios of counts, so a single flipped classification is far outside it.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-6
ABS_TOL = 1e-12


def read_csv(path):
    """(meta, rows) of a qpjacobi CSV: '# key=value' header lines, then a table."""
    meta, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].rpartition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return meta, rows


#: header keys every qpjacobi output carries; the rest are fitted constants
_META_KEYS = {"tool", "version", "command", "model_hash", "seed"}


def _constants(meta):
    return {f"const.{k}": float(v) for k, v in meta.items() if k not in _META_KEYS}


def extract(call, captured, result=None):
    """Fingerprint of one job call.

    `captured` holds the library reports the CLI handler received during the
    call (counters that the CLI does not write); `result` is the return value
    of a direct library call.
    """
    kind = call["kind"]
    fp = {}
    if kind == "lyapunov":
        rates = sorted(float(r) for r in result)
        n = len(rates)
        fp["energies"] = n
        fp["median_rate"] = 0.5 * (rates[(n - 1) // 2] + rates[n // 2])
        return fp
    if kind == "localize":
        with open(call["out"]) as fh:
            doc = json.load(fh)["report"]
        fp["aggregate_fraction"] = float(doc["aggregate_fraction"])
        fp.update({f"count.{k}": int(v) for k, v in doc["counts"].items()})
        return fp
    meta, rows = read_csv(call["out"])
    fp["rows"] = len(rows)
    if kind == "ldt":
        fp["bad_fraction"] = [float(r["bad_fraction"]) for r in rows]
        fp["floored"] = sum(int(rep.floored) for rep in captured["deviation_measure"])
    elif kind == "scan":
        fp["c11"] = float(meta["c11"])
        fp["good_fraction"] = float(meta["good_fraction"])
        for status in ("good", "bad", "near_singular", "pole"):
            fp[f"status.{status}"] = sum(1 for r in rows if r["status"] == status)
    elif kind == "minor":
        fp.update(_constants(meta))
        (rep,) = captured["check_minor_bound"]
        fp["samples"] = int(rep.samples)
        fp["zero_minors"] = int(rep.sweep["zero_minors"])
        fp["skipped_small_E"] = int(rep.sweep["skipped_small_E"])
    elif kind == "det":
        fp.update(_constants(meta))
        fp["quantity"] = [float(r["quantity"]) for r in rows]
        (rep,) = captured["check_det_lower_bound"]
        fp["excluded"] = sum(int(row[5]) for row in rep.sweep["rows"])
    elif kind == "green":
        fp["abs_sum"] = math.fsum(abs(float(r["value"])) for r in rows)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return fp


def _close(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            return a == b or (math.isnan(a) and math.isnan(b))
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return False


def compare(actual, expected):
    """Mismatch messages of one call's fingerprint against its reference; empty when it matches."""
    problems = []
    for key in sorted(set(actual) | set(expected)):
        if key not in expected:
            problems.append(f"{key}: not in the reference")
        elif key not in actual:
            problems.append(f"{key}: missing from the output")
        elif not _close(actual[key], expected[key]):
            problems.append(f"{key}: got {actual[key]!r}, reference {expected[key]!r}")
    return problems
