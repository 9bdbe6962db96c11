"""Traced mode: spans around the calls into each layer of ``oudesign``.

The tracer wraps each measured public function at every module attribute
bound to it.  ``mc`` imports ``sample_observations`` and
``nine_point_restricted_2d`` by name, ``asymptotics`` imports the fim and
objectives functions by name, and so on, so patching only the defining
module would miss those calls.  Untraced runs never import this module
and install no wrappers.

A span is (name, start, end, parent index, item id, failed, iterations);
spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the durations of its direct child spans
(children nest inside their parent and do not overlap: the program is
single-threaded).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Measured functions per layer (module of src/oudesign).  ``cli.main`` is
# a click command object that only the benchmark calls; the benchmark
# records its span at the call site.
LAYERS = {
    "cli": ("main",),
    "mc": ("run_efficiency_1d", "run_efficiency_2d", "gls_estimate"),
    "model": ("sample_observations", "correlation_matrix_1d", "inv_correlation_matrix_1d",
              "inv_correlation_matrix_2d"),
    "search": ("three_point_restricted_1d", "nine_point_restricted_2d", "four_point_grid_k_optimal",
               "two_point_k_optimal", "equidistant_k_optimal_1d", "kopt_surface_2d",
               "collapse_interval"),
    "asymptotics": ("cond_limit_surface_2d", "doubling_ratio_2d"),
    "fim": ("fim_entries_equidistant_1d", "fim_entries_equidistant_2d"),
    "objectives": ("k_objective_2d", "d_objective_2d"),
}
# Searches whose SearchResult.iterations are summed.
ITERATED = ("three_point_restricted_1d", "nine_point_restricted_2d", "four_point_grid_k_optimal",
            "two_point_k_optimal", "equidistant_k_optimal_1d")
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
PACKAGE = "oudesign"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    def install(self):
        """Replace every module attribute bound to a measured function."""
        originals = {}
        for mod, fns in LAYERS.items():
            if mod == "cli":
                continue
            module = sys.modules[f"{PACKAGE}.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap(self, name, fn):
        iterated = name.split(".", 1)[1] in ITERATED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, iterated)

        return wrapper

    def call(self, name, fn, args, kwargs, iterated=False):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        failed, iterations = False, 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if iterated:
                iterations = result.iterations
            return result
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item, failed, iterations)

    def reset(self):
        self.spans.clear()

    def metrics(self, rounds):
        """Per-layer metrics per round: calls and self time of every
        measured function, summed search iterations, and escaped
        exceptions.  Every round makes the same calls, so the counts
        per round repeat exactly from run to run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(NAMES, 0)
        self_s = dict.fromkeys(NAMES, 0.0)
        iterations = dict.fromkeys(ITERATED, 0)
        failed = dict.fromkeys([n for n in NAMES if n.startswith("search.")] + ["cli.main"], 0)
        for i, (name, start, end, _, _, fail, its) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            fn = name.split(".", 1)[1]
            if fn in iterations:
                iterations[fn] += its
            if fail and name in failed:
                failed[name] += 1

        def per_round(total, unit):
            value = total / rounds
            return {"value": int(value) if unit == "count" and value.is_integer() else value, "unit": unit}

        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = per_round(calls[name], "count")
            out[f"{name}.self_s"] = per_round(self_s[name], "s")
        for fn, its in iterations.items():
            out[f"search.{fn}.iterations"] = per_round(its, "count")
        for name, n in failed.items():
            out[f"{name}.failed"] = per_round(n, "count")
        return out

    def write(self, path, header):
        """One JSON header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
