"""Per-layer tracing of mlechar from outside the program.

``Tracer.install`` replaces mlechar's public functions with wrappers in every
module that bound them (``from .x import y`` copies a reference, so patching
only the home module would miss, say, the suite's calls).  The functions in
``SPANS`` record a span (name, start, end, parent) kept in memory; every other
public function only counts its calls, which keeps the ~6M hot scalar calls
of a suite run (``eval_dlogf``, the pointwise scores, the score sums) cheap.
A span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the wall time of the outermost ones.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

MODULES = ("catalog", "density", "score", "coverage", "estimator",
           "equivalence", "forge", "specfiles", "suite", "cli")

# (module, function) -> layer name the span reports under
SPANS = {
    ("catalog", "lookup"): "catalog.lookup",
    ("density", "sample_from"): "density.sample_from",
    ("density", "normalize"): "density.normalize",
    ("density", "effective_interval"): "density.effective_interval",
    ("score", "analyze_image"): "score.analyze_image",
    ("coverage", "brute_force_projectable"): "coverage.brute_force_projectable",
    ("estimator", "mle_location"): "estimator.mle_location",
    ("estimator", "mle_scale"): "estimator.mle_scale",
    ("estimator", "mle_group"): "estimator.mle_group",
    ("estimator", "closed_form_mle"): "estimator.closed_form_mle",
    ("equivalence", "tilt"): "equivalence.tilt",
    ("equivalence", "tilt_with_spec"): "equivalence.tilt",
    ("equivalence", "same_class"): "equivalence.same_class",
    ("forge", "forge_odd_h"): "forge.forge_odd_h",
    ("forge", "verify_counterexample"): "forge.verify_counterexample",
    ("specfiles", "write_tabulated"): "specfiles.write_tabulated",
    ("specfiles", "load_family_spec"): "specfiles.load_family_spec",
    ("suite", "run_suite"): "suite.run_suite",
    ("cli", "main"): "cli.main",
}

SOLVERS = ("estimator.mle_location", "estimator.mle_scale", "estimator.mle_group")
POINTWISE = ("score.location_score", "score.scale_score", "score.group_score")
SCORE_SUMS = ("estimator.location_score_sum", "estimator.scale_score_sum",
              "estimator.group_score_sum")
CLI_SUBCOMMANDS = ("mcss", "analyze", "mle", "tilt", "same-class", "forge",
                   "verify-counterexample", "suite")


def public_functions(module):
    """(name, function) pairs defined in ``module`` under a public name."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Wraps mlechar's public functions; collects spans and call counts."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent span index]
        self._stack = []           # [span index, time covered by children]
        self.calls = Counter()     # layer name -> calls (spans and counters)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.failed = Counter()    # layer name -> calls that raised MlecharError
        self.cold_samplers = 0
        self.bytes_written = 0
        self._counters = {}        # layer name -> reader of a counted function
        self._patches = []         # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, error_type):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, self_s, durations = self.calls, self.self_s, self.durations[name]

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1][0] if stack else -1]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except error_type:
                self.failed[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                record[2] = end
                duration = end - record[1]
                self_s[name] += duration - frame[1]
                calls[name] += 1
                durations.append(duration)
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _counted(self, name, fn):
        n = 0

        def wrapper(*args, **kwargs):
            nonlocal n
            n += 1
            return fn(*args, **kwargs)

        self._counters[name] = lambda: n
        return wrapper

    def _sample_from_hook(self, fn):
        # a model without a memoized sampler on entry makes this call build one
        def wrapper(model, *args, **kwargs):
            if getattr(model, "_sampler", None) is None:
                self.cold_samplers += 1
            return fn(model, *args, **kwargs)
        return wrapper

    def _write_tabulated_hook(self, fn):
        def wrapper(model, path, *args, **kwargs):
            out = fn(model, path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)
            return out
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every mlechar module binding of every public function."""
        error_type = importlib.import_module("mlechar.errors").MlecharError
        hooks = {"density.sample_from": self._sample_from_hook,
                 "specfiles.write_tabulated": self._write_tabulated_hook}
        replacement = {}
        for short in MODULES:
            module = importlib.import_module(f"mlechar.{short}")
            for fname, fn in public_functions(module):
                layer = SPANS.get((short, fname))
                if layer is None:
                    wrapped = self._counted(f"{short}.{fname}", fn)
                else:
                    inner = hooks.get(f"{short}.{fname}", lambda f: f)(fn)
                    wrapped = self._span(layer, inner, error_type)
                replacement[id(fn)] = (fn, wrapped)
        for modname, module in list(sys.modules.items()):
            if modname != "mlechar" and not modname.startswith("mlechar."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def stats(self) -> dict:
        """Plain-data totals, mergeable across processes with ``merge``."""
        counts = Counter(self.calls)
        for name, read in self._counters.items():
            counts[name] += read()
        return {
            "calls": dict(counts),
            "self_s": dict(self.self_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "failed": dict(self.failed),
            "cold_samplers": self.cold_samplers,
            "bytes_written": self.bytes_written,
        }

    def dump_spans(self, path, extra=None):
        """Write the spans (one JSON list per line) and ``extra`` at the end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            if extra is not None:
                fh.write(json.dumps(extra) + "\n")


def merge(total: dict, part: dict) -> dict:
    """Add the stats ``part`` into ``total`` (both as returned by ``stats``)."""
    for key in ("calls", "self_s", "failed"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    durations = total.setdefault("durations", {})
    for name, values in part["durations"].items():
        durations.setdefault(name, []).extend(values)
    for key in ("cold_samplers", "bytes_written"):
        total[key] = total.get(key, 0) + part[key]
    return total


def layer_metrics(stats: dict, ops: int, cli_durations: dict) -> dict:
    """Per-layer metric values, per operation of the workload.

    ``cli_durations`` maps a CLI subcommand to the in-process durations of
    ``cli.main`` for it (empty outside the CLI workload).
    """
    calls, self_s = stats["calls"], stats["self_s"]
    per_op = lambda v: v / ops

    def p50(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name in ("catalog.lookup", "density.normalize", "density.effective_interval",
                 "score.analyze_image", "coverage.brute_force_projectable",
                 "estimator.closed_form_mle", "equivalence.tilt",
                 "equivalence.same_class", "forge.forge_odd_h",
                 "forge.verify_counterexample", "specfiles.write_tabulated",
                 "specfiles.load_family_spec", *SOLVERS):
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
        out[f"{name}.self_s"] = per_op(self_s.get(name, 0.0))
    for name in SOLVERS:
        out[f"{name}.p50_us"] = 1e6 * p50(stats["durations"].get(name, []))
        out[f"{name}.failed"] = per_op(stats["failed"].get(name, 0))

    samples = calls.get("density.sample_from", 0)
    cold = stats["cold_samplers"]
    out["density.sample_from.calls"] = per_op(samples)
    out["density.sample_from.self_s"] = per_op(self_s.get("density.sample_from", 0.0))
    out["density.sample_from.cold_calls"] = per_op(cold)
    out["density.sampler_reuse_ratio"] = (samples - cold) / samples if samples else 0.0
    out["density.eval_dlogf.calls"] = per_op(calls.get("density.eval_dlogf", 0))
    out["score.pointwise.calls"] = per_op(sum(calls.get(n, 0) for n in POINTWISE))
    for name in ("coverage.mcss", "coverage.mnss", "coverage.is_projectable",
                 "equivalence.scale_identification"):
        out[f"{name}.calls"] = per_op(calls.get(name, 0))
    score_sums = sum(calls.get(n, 0) for n in SCORE_SUMS)
    solves = sum(calls.get(n, 0) for n in SOLVERS)
    out["estimator.score_sum.calls"] = per_op(score_sums)
    out["estimator.score_sum_per_solve"] = score_sums / solves if solves else 0.0
    out["specfiles.write_tabulated.bytes"] = per_op(stats["bytes_written"])
    out["suite.run_suite.self_s"] = per_op(self_s.get("suite.run_suite", 0.0))
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_s"] = p50(cli_durations.get(sub, []))
    return out
