"""Span tracing of the qpjacobi layers from outside the package.

`install` wraps every public function of the package's modules in every
module namespace that binds it (`greens`, `localization` and `cli` import
from `operator` by name, so each of those bindings gets the same wrapper),
plus the symbol evaluation methods at their classes and `numpy.linalg.
eigvalsh`, which the Green-decay scan calls directly.  A span's layer is the
module that defines the function.  Spans are aggregated as they close:
self time is the span's duration minus the time covered by its child spans.
Counters that need the call's arguments or result are read by per-function
hooks; quantities that are costly to compute (distinct phase sets) are
recorded during the pass and derived afterwards by `metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("symbols", "models", "operator", "greens", "ergodic", "localization", "cli")
#: methods traced at their class; everything else is found by scanning namespaces
CLASS_METHODS = {
    "TrigPoly": ("__call__", "eval_complex"),
    "MeroScalar": ("__call__",),
    "BlockModel": ("w_values", "f_values", "r_values", "m_values", "check_poles"),
}
#: phases are compared after rounding to this many binary digits
PHASE_BITS = 40


class Tracer:
    def __init__(self):
        # each open span holds the time covered by its children so far
        self.stack = []
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        # function -> [calls, self time, time of its outermost spans, open depth]
        self.per_fn = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.top = [0.0]  # time covered by spans opened with an empty stack
        self.counts = defaultdict(float)
        self.site_windows = []  # (omega, x, u, v) per assembled window
        self.orbits = []  # (omega, x_grid, Q, N) per deviation_measure call

    def wrap(self, fn, layer, key, hook=None):
        stack, perf, top = self.stack, time.perf_counter, self.top
        lay, st = self.layer_self[layer], self.per_fn[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            st[3] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                own = dur - stack.pop()
                lay[0] += own
                st[0] += 1
                st[1] += own
                st[3] -= 1
                if not st[3]:
                    st[2] += dur
                if stack:
                    stack[-1] += dur
                else:
                    top[0] += dur
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- hooks: counters read from arguments and results -------------------

    def _hooks(self):
        c = self.counts

        def bound(fn, args, kwargs):
            ba = inspect.signature(fn).bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        def eval_points(args, kwargs, result):
            c["eval_points"] += getattr(args[1], "size", 1)

        def assemble(args, kwargs, result):
            model, params = args[0], args[1]
            c["assemble_calls"] += 1
            c["assembled_sites"] += params.n_sites
            self.site_windows.append((model.omega, params.x, *params.window))

        def lu(n):
            return 2.0 * n**3 / 3.0

        def factored(flops):
            c["factor_calls"] += 1
            c["factor_flops"] += flops

        def logdet_abs(args, kwargs, result):
            factored(lu(np.shape(args[0])[0]))

        def minor(args, kwargs, result):
            c["minor_calls"] += 1
            factored(lu(np.shape(args[0])[0] - 1))

        def green_full(args, kwargs, result):
            n = args[1].n_sites * args[0].l
            # LU, solve against the identity, residual product
            factored(lu(n) + 2.0 * n**3 + 2.0 * n**3)

        def check_minor_bound(args, kwargs, result):
            c["minor_samples"] += result.samples

        def avg_logdet(args, kwargs, result):
            c["excluded_nodes"] += result.excluded

        def logdet_grid(args, kwargs, result):
            c["logdet_nodes"] += np.size(args[4])

        def deviation_measure(args, kwargs, result):
            a = bound(deviation_measure_fn, args, kwargs)
            omega = a["model"].omega if a["omega"] is None else float(a["omega"])
            grid = np.asarray(a["x_grid"], dtype=float)
            c["orbit_terms"] += int(a["Q"]) * grid.size
            c["floored"] += result.floored
            self.orbits.append((omega, grid, int(a["Q"]), int(a["N"])))

        def lyapunov_rates(args, kwargs, result):
            a = bound(lyapunov_rates_fn, args, kwargs)
            c["transfer_steps"] += int(a["n_steps"]) * np.size(a["energies"])

        def scan(args, kwargs, result):
            c["scan_windows"] += len(result.records)
            c["pole_windows"] += result.counts["pole"]
            c["near_singular_windows"] += result.counts["near_singular"]

        ergodic = importlib.import_module("qpjacobi.ergodic")
        localization = importlib.import_module("qpjacobi.localization")
        deviation_measure_fn = ergodic.deviation_measure
        lyapunov_rates_fn = localization.lyapunov_rates
        return {
            "symbols.TrigPoly.eval_complex": eval_points,
            "operator.assemble_hamiltonian": assemble,
            "operator.assemble_regularized": assemble,
            "greens.logdet_abs": logdet_abs,
            "greens.minor_logabs": minor,
            "greens.green_full": green_full,
            "greens.check_minor_bound": check_minor_bound,
            "greens.avg_logdet": avg_logdet,
            "greens.logdet_grid": logdet_grid,
            "ergodic.deviation_measure": deviation_measure,
            "localization.lyapunov_rates": lyapunov_rates,
            "localization.green_decay_scan": scan,
        }

    def install(self):
        """Wrap the package in place for the rest of the process."""
        hooks = self._hooks()
        pkg = importlib.import_module("qpjacobi")
        modules = {layer: importlib.import_module(f"qpjacobi.{layer}") for layer in LAYERS}
        wrapped = {}
        for ns in (pkg, *modules.values()):
            for name, obj in list(vars(ns).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("qpjacobi.") or layer not in LAYERS:
                    continue
                if obj not in wrapped:
                    key = f"{layer}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, layer, key, hooks.get(key))
                setattr(ns, name, wrapped[obj])
        symbols = modules["symbols"]
        for cls_name, methods in CLASS_METHODS.items():
            cls = getattr(symbols, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                key = f"symbols.{cls_name}.{meth}"
                setattr(cls, meth, self.wrap(fn, "symbols", key, hooks.get(key)))
        np.linalg.eigvalsh = self.wrap(np.linalg.eigvalsh, "localization", "localization.eigvalsh")

    # -- derived metrics ----------------------------------------------------

    def metrics(self, jobs_wall_s, top_s_jobs, bytes_written, overhead_frac):
        c = self.counts
        calls = lambda key: self.per_fn[key][0]
        own = lambda key: self.per_fn[key][1]
        incl = lambda key: self.per_fn[key][2]
        layer = lambda name: self.layer_self[name][0]
        ratio = lambda num, den: num / den if den else 0.0
        out = {
            "symbols.eval_calls": (calls("symbols.TrigPoly.eval_complex"), "count", "lower"),
            "symbols.eval_points": (c["eval_points"], "count", "lower"),
            "symbols.self_s": (layer("symbols"), "s", "lower"),
            "symbols.locate_zeros_s": (incl("symbols.locate_zeros"), "s", "lower"),
            "models.resolve_s": (incl("models.resolve_model"), "s", "lower"),
            "models.self_s": (layer("models"), "s", "lower"),
            "operator.assemble_calls": (c["assemble_calls"], "count", "lower"),
            "operator.assembled_sites": (c["assembled_sites"], "count", "lower"),
            "operator.self_s": (layer("operator"), "s", "lower"),
            "operator.distinct_site_ratio": (
                ratio(_distinct_sites(self.site_windows), c["assembled_sites"]), "ratio", "higher"),
            "greens.logdet_nodes": (c["logdet_nodes"], "count", "lower"),
            "greens.logdet_s": (incl("greens.logdet_grid"), "s", "lower"),
            "greens.factor_calls": (c["factor_calls"], "count", "lower"),
            "greens.factor_flops_computed": (c["factor_flops"], "flop", "lower"),
            "greens.solve_s": (own("greens.green_full"), "s", "lower"),
            "greens.minor_calls": (c["minor_calls"], "count", "lower"),
            "greens.minor_s": (incl("greens.minor_logabs"), "s", "lower"),
            "greens.minor_useful_ratio": (
                ratio(c["minor_samples"], c["minor_calls"]), "ratio", "higher"),
            "greens.excluded_nodes": (c["excluded_nodes"], "count", "lower"),
            "greens.self_s": (layer("greens"), "s", "lower"),
            "ergodic.orbit_terms": (c["orbit_terms"], "count", "lower"),
            "ergodic.self_s": (layer("ergodic"), "s", "lower"),
            "ergodic.floored": (c["floored"], "count", "lower"),
            "ergodic.distinct_phase_ratio": (_orbit_phase_ratio(self.orbits), "ratio", "higher"),
            "localization.transfer_steps": (c["transfer_steps"], "count", "lower"),
            "localization.lyapunov_s": (incl("localization.lyapunov_rates"), "s", "lower"),
            "localization.scan_windows": (c["scan_windows"], "count", "lower"),
            "localization.pole_windows": (c["pole_windows"], "count", "lower"),
            "localization.near_singular_windows": (c["near_singular_windows"], "count", "lower"),
            "localization.eigensolve_s": (
                incl("localization.eigensolve") + incl("localization.eigvalsh"), "s", "lower"),
            "localization.decay_fits": (calls("localization.decay_fit"), "count", "lower"),
            "localization.self_s": (layer("localization"), "s", "lower"),
            "cli.self_s": (layer("cli"), "s", "lower"),
            "cli.bytes_written": (bytes_written, "B", "lower"),
            "trace.overhead_frac": (overhead_frac, "frac", "lower"),
            "trace.unattributed_s": (jobs_wall_s - top_s_jobs, "s", "lower"),
        }
        return {k: (int(v) if unit in ("count", "B") else v, unit, better)
                for k, (v, unit, better) in out.items()}


def _phase_keys(phases):
    scaled = np.rint(np.mod(phases, 1.0) * 2.0**PHASE_BITS).astype(np.int64)
    return np.mod(scaled, 2**PHASE_BITS)


def _distinct_sites(windows):
    """Distinct orbit phases x + n*omega over every assembled window."""
    if not windows:
        return 0
    keys = [
        _phase_keys(x + np.arange(u, v + 1) * omega) for omega, x, u, v in windows
    ]
    return int(np.unique(np.concatenate(keys)).size)


def _orbit_phase_ratio(orbits):
    """Distinct site phases of the deviation_measure orbits over site evaluations.

    Term j of a Birkhoff sum evaluates the symbols at x + (j + n) * omega for
    sites n = 1..N, so a call costs Q * N evaluations per grid node while
    the orbit holds Q + N - 1 distinct phases; calls sharing a grid and
    rotation share them.
    """
    evaluated = sum(q * n * grid.size for _, grid, q, n in orbits)
    if not evaluated:
        return 0.0
    groups = {}
    for omega, grid, q, n in orbits:
        key = (omega, grid.tobytes())
        top = groups.get(key, (grid, 0))[1]
        groups[key] = (grid, max(top, q + n - 1))
    distinct = 0
    for (omega, _), (grid, top) in groups.items():
        ks = np.arange(1, top + 1) * omega
        distinct += int(np.unique(_phase_keys(grid[:, None] + ks[None, :])).size)
    return distinct / evaluated
