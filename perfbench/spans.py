"""Span tracing installed from outside the package.

`Tracer.install()` wraps the public functions of each campanato_lab module
and rebinds every module-level name that refers to them, so calls made
through `from .norms import campanato_norm` style imports are timed too.
Each span adds its self time and a call to per-name totals when it
closes; the totals stay in memory and are written once, as a small JSON
file, with `save` when the traced process ends.  Every traced
process opens root spans `bench.setup` and `bench.op`; the self time of
a root is time spent outside every wrapped call.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOTS = ("bench.setup", "bench.op")

# (module, function names); spans are named "<module>.<function>".
TARGETS = {
    "filtration": ("build_dyadic", "build_from_spec", "parse_tree_config",
                   "regularity_constant", "chain_to_root", "truncate",
                   "check_chain_gaps"),
    "functions": ("conditional_expectation", "martingale_of",
                  "central_p_integral", "expectation", "linf_norm", "lp_norm"),
    "phi": ("eval_phi", "phi_star", "phi_report", "doubling_constant",
            "almost_monotone_constants", "int_condition_constant",
            "int_condition_power_weight", "classify_regime", "quotient_phi",
            "default_grid"),
    "norms": ("campanato_norm", "campanato_seminorm", "oscillation_scan",
              "phi_level_values", "phi_star_level_values",
              "chi_norm_closed_form", "f_norm_exact", "f_norm_lower"),
    "constructions": ("extremal_chain_function", "h_function",
                      "sin_h_multiplier", "dyadic_h_closed_form",
                      "lipschitz_compose_check", "measure_chain_constants",
                      "martingale_identity_defect"),
    "multiplier": ("capital_F", "check_product_estimate", "op_norm_lower_bound",
                   "theorem1_certificate", "linf_bound_check",
                   "conditional_multiplier_check"),
    "verify": ("run_verify_suites", "run_multiplier_suite"),
    "report": ("canonical_json", "content_hash"),
    "cli": ("load_config", "execute", "run", "main"),
}
# Construction, arithmetic and the indicator/constant/random builders of
# leaf functions share one span name.
LEAF_FUNCTION_BUILDERS = ("indicator", "constant", "random_functions")
LEAF_FUNCTION_METHODS = ("__init__", "_combine", "apply", "__neg__")


class Tracer:
    """Per-name totals, accumulated as spans close: self time (the span's
    time minus its children's) and calls, keyed by the kind of the root
    span they ran under."""

    def __init__(self):
        self.stack = []             # [name, start, time of children]
        self.root_kind = ROOTS[0]
        self.self_s = Counter()     # (root kind, span name) -> seconds
        self.calls = Counter()      # (root kind, span name) -> calls
        self.wall = Counter()       # root kind -> seconds
        self.counts = Counter()     # (root kind, counter name) -> count
        self.samples = {}           # sample name -> list of seconds

    def _open(self, name):
        frame = [name, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame):
        dur = time.perf_counter() - frame[1]
        self.stack.pop()
        key = (self.root_kind, frame[0])
        self.self_s[key] += dur - frame[2]
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.wall[self.root_kind] += dur
        return dur

    @contextmanager
    def root(self, kind):
        self.root_kind = kind
        frame = self._open(kind)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name, n=1):
        self.counts[(self.root_kind, name)] += n

    def wrap(self, fn, name, after=None):
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = closed(frame)
            if after is not None:
                after(dur, args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------------

    def install(self):
        import campanato_lab  # noqa: F401
        import campanato_lab.cli  # noqa: F401
        import campanato_lab.verify as verify
        from campanato_lab.filtration import FiltrationTree
        from campanato_lab.functions import LeafFunction

        mods = {name: sys.modules[f"campanato_lab.{name}"] for name in TARGETS}
        after = {"norms.oscillation_scan": self._after_scan}
        replace = {}
        for mod, fnames in TARGETS.items():
            for fname in fnames:
                fn = getattr(mods[mod], fname)
                replace[id(fn)] = self.wrap(fn, f"{mod}.{fname}",
                                            after.get(f"{mod}.{fname}"))
        for fname in LEAF_FUNCTION_BUILDERS:
            fn = getattr(mods["functions"], fname)
            replace[id(fn)] = self.wrap(fn, "functions.leaf_function")
        fn = mods["cli"].write_outputs
        replace[id(fn)] = self.wrap(fn, "report.write_outputs")
        fn = mods["multiplier"].default_test_family
        replace[id(fn)] = self._counting_generator(fn, "multiplier.family_members")
        quad = mods["phi"]._quad
        replace[id(quad)] = self._counting_quad(quad)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("campanato_lab"):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace:
                        setattr(mod, attr, replace[id(value)])
        for suite, fn in list(verify.SUITE_REGISTRY.items()):
            verify.SUITE_REGISTRY[suite] = self.wrap(fn, f"verify.{suite}")
        for meth in LEAF_FUNCTION_METHODS:
            setattr(LeafFunction, meth,
                    self.wrap(getattr(LeafFunction, meth), "functions.leaf_function"))
        raw = LeafFunction.__dict__["from_float_array"].__func__
        LeafFunction.from_float_array = classmethod(
            self.wrap(raw, "functions.leaf_function"))
        FiltrationTree.level_arrays = self.wrap(FiltrationTree.level_arrays,
                                                "filtration.level_arrays")

    def _after_scan(self, dur, args, result):
        tree = args[0].tree
        self.count("norms.scans")
        self.count("norms.leaf_visits", tree.leaf_count * (tree.depth + 1))
        path = "exact" if isinstance(result[0], Fraction) else "float"
        self.samples.setdefault(f"norms.{path}_scan_s", []).append(dur)

    def _counting_generator(self, fn, name):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(name)
                yield item
        return wrapper

    def _counting_quad(self, fn):
        def wrapper(*args, **kwargs):
            self.count("phi.quadrature_calls")
            if self.stack[-1][0] == "phi.phi_star":
                self.count("phi.phi_star.quadrature_calls")
            return fn(*args, **kwargs)
        return wrapper

    # -- output -----------------------------------------------------------------------

    def save(self, path, **extra):
        def rows(counter):
            return [[kind, name, value] for (kind, name), value in counter.items()]
        Path(path).write_text(json.dumps({
            "self_s": rows(self.self_s), "calls": rows(self.calls),
            "counts": rows(self.counts), "wall": dict(self.wall),
            "samples": self.samples, **extra}))


def summarize(paths, setup_div, op_div):
    """Per-layer totals over saved traces.  Every quantity under a
    `bench.setup` root is divided by `setup_div` and every one under a
    `bench.op` root by `op_div`, so the result is per set-up plus one
    operation (in-process workloads) or per pass (CLI).  Returns
    (self seconds by span name, calls by span name, counts, median
    samples, wall seconds of the root spans, the total of the traced
    processes' own `process_s` readings)."""
    div = {ROOTS[0]: setup_div, ROOTS[1]: op_div}
    self_s, calls, counts, samples = Counter(), Counter(), Counter(), {}
    wall = process_s = 0.0
    for path in paths:
        trace = json.loads(Path(path).read_text())
        for out, key in ((self_s, "self_s"), (calls, "calls"), (counts, "counts")):
            for kind, name, value in trace[key]:
                out[name] += value / div[kind]
        wall += sum(value / div[kind] for kind, value in trace["wall"].items())
        process_s += trace.get("process_s", 0.0)
        for name, values in trace["samples"].items():
            samples.setdefault(name, []).extend(values)
    medians = {k: statistics.median(v) for k, v in samples.items()}
    return self_s, calls, counts, medians, wall, process_s
