"""Span and counter tracing of twistcalc, installed from outside the package.

The tracer wraps the public functions listed in ``LAYERS`` and rebinds every
module attribute that holds one of them, so that names bound at import time
(``johnson.log_theta``, ``cli.twist_audit``, ``cli.default_expansion``, ...)
are traced too.  Spans (name, start, end, parent) are kept in memory while
the tracer is active; ``metrics`` folds them into per-layer numbers named
``<module>.<function>.<quantity>``.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

DEGREES = range(1, 6)

# Traced functions per twistcalc module; "Class.method" patches the class.
LAYERS = {
    "tensor": [
        "product",
        "Tensor.__init__",
        "exp_series",
        "log_series",
        "cyclicize",
        "bracket",
        "render",
        "dynkin_defect",
    ],
    "surface": ["barcode_letters"],
    "expansion": ["default_expansion", "theta", "log_theta"],
    "johnson": ["L_k", "twist_sum", "apply_derivation", "derivation_bracket"],
    "diagrams": ["eta"],
    "casson": ["twist_audit", "lambda_J3"],
    "psi_data": ["bracket_decomposition_value"],
    "cli": ["parse_twist_file", "cmd_verify_psi", "cmd_tau", "cmd_casson"],
}


def _degree_counts(prefix, tensor, counts):
    for word in tensor.terms:
        counts["%s.terms_out_deg%d" % (prefix, len(word))] += 1


def _count_product(counts, args, result):
    x, y = args
    counts["tensor.product.pairs_tried"] += len(x.terms) * len(y.terms)
    hx = Counter(len(w) for w in x.terms)
    hy = Counter(len(w) for w in y.terms)
    counts["tensor.product.pairs_kept"] += sum(
        nx * ny for lx, nx in hx.items() for ly, ny in hy.items() if lx + ly <= x.trunc
    )
    counts["tensor.product.terms_out"] += len(result.terms)


def _count_log_series(counts, args, result):
    _degree_counts("tensor.log_series", result, counts)


def _count_theta(counts, args, result):
    counts["expansion.theta.letters"] += len(args[1])
    _degree_counts("expansion.theta", result, counts)


def _count_L_k(counts, args, result):
    counts["johnson.L_k.calls_k%d" % args[2]] += 1


def _count_eta(counts, args, result):
    counts["diagrams.eta.nodes"] += len(args[0].items)


COUNTERS = {
    "tensor.product": _count_product,
    "tensor.log_series": _count_log_series,
    "expansion.theta": _count_theta,
    "johnson.L_k": _count_L_k,
    "diagrams.eta": _count_eta,
}


def _calls_and_self(name):
    return [name + ".calls", name + ".self_s"]


# Every per-layer metric, in report order; BENCHMARK.json lists the same names.
METRICS = (
    _calls_and_self("tensor.product")
    + [
        "tensor.product.pairs_tried",
        "tensor.product.pairs_kept_ratio",
        "tensor.product.terms_out",
    ]
    + _calls_and_self("tensor.Tensor.__init__")
    + [
        m
        for f in ("exp_series", "log_series", "cyclicize", "bracket", "render")
        for m in _calls_and_self("tensor." + f)
    ]
    + ["tensor.log_series.terms_out_deg%d" % d for d in DEGREES]
    + _calls_and_self("tensor.dynkin_defect")
    + _calls_and_self("surface.barcode_letters")
    + ["expansion.default_expansion.self_s"]
    + _calls_and_self("expansion.theta")
    + ["expansion.theta.letters"]
    + ["expansion.theta.terms_out_deg%d" % d for d in DEGREES]
    + ["expansion.log_theta.calls"]
    + ["johnson.L_k.calls_k4", "johnson.L_k.calls_k5", "johnson.L_k.self_s"]
    + [
        m
        for f in ("twist_sum", "apply_derivation", "derivation_bracket")
        for m in _calls_and_self("johnson." + f)
    ]
    + _calls_and_self("diagrams.eta")
    + ["diagrams.eta.nodes"]
    + _calls_and_self("casson.twist_audit")
    + _calls_and_self("casson.lambda_J3")
    + ["psi_data.bracket_decomposition_value.self_s"]
    + [
        m
        for f in ("parse_twist_file", "cmd_verify_psi", "cmd_tau", "cmd_casson")
        for m in _calls_and_self("cli." + f)
    ]
    + ["trace.overhead_ratio"]
)


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Records spans and counters of wrapped twistcalc calls while ``active``."""

    def __init__(self):
        self.active = False
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self, modules):
        """Wrap every function in LAYERS; ``modules`` maps short names to modules.

        Each module in ``modules`` whose namespace holds an original function
        gets the wrapper in its place.
        """
        namespaces = list(modules.values())
        for modname, funcs in LAYERS.items():
            mod = modules[modname]
            for qual in funcs:
                name = "%s.%s" % (modname, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                orig = getattr(mod, qual)
                wrapper = self._wrap(name, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapper)

    def self_times(self):
        """Per span name: total time less the time its child spans cover, and calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = Counter()
        calls = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
            calls[name] += 1
        return totals, calls

    def metrics(self):
        """Per-layer values recorded since the last reset, keyed like METRICS.

        ``trace.overhead_ratio`` is left at 0 for the caller to fill in.
        """
        totals, calls = self.self_times()
        out = {}
        for metric in METRICS:
            layer, _, quantity = metric.rpartition(".")
            if quantity == "calls":
                out[metric] = calls[layer]
            elif quantity == "self_s":
                out[metric] = totals[layer]
            else:
                out[metric] = self.counts[metric]
        tried = self.counts["tensor.product.pairs_tried"]
        kept = self.counts["tensor.product.pairs_kept"]
        out["tensor.product.pairs_kept_ratio"] = kept / tried if tried else 0.0
        return out
