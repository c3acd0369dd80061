"""Span tracing around the public entry points of each zwreath module.

The traced run installs these wrappers from the benchmark's own files, by
rebinding every module-level name (and class attribute) that refers to a
target function; nothing under ``src/`` changes.  Each call of a target
records a span ``[key, name, start_ns, end_ns, parent, instance]``; spans
stay in memory and are written out when the run ends.  A span's self time is
its duration minus the durations of its direct child spans, so the self
times of one instance sum exactly to its root span.

The recursive ``equations.evaluate`` and ``LaurentPoly.__mul__`` are not
wrapped; their time is self time of the entry point that called them.
``WreathElement.__mul__`` and ``gadgets.delta_blocks`` are only counted, and
their time falls to the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

from counters import fold_value, empty_counts

# (module, attribute, key).  A method is written "Class.method".  Each key
# yields the per-layer time metric "<key>_s".
SPAN_TARGETS = (
    ("laurent", "aug_valuation", "laurent.valuation"),
    ("laurent", "delta_membership", "laurent.valuation"),
    ("laurent", "delta_decompose", "laurent.decompose"),
    ("wreath", "module_action", "wreath.module_action"),
    ("equations", "parse_system", "equations.parse"),
    ("equations", "parse_assignment", "equations.parse"),
    ("equations", "serialize_system", "equations.serialize"),
    ("equations", "serialize_assignment", "equations.serialize"),
    ("equations", "check_system", "equations.check"),
    ("gadgets", "gadget_cyclic", "gadgets.build"),
    ("gadgets", "gadget_delta_power", "gadgets.build"),
    ("gadgets", "witness_cyclic", "gadgets.witness"),
    ("gadgets", "witness_delta_power", "gadgets.witness"),
    ("reduction", "compile", "reduction.compile"),
    ("reduction", "witness", "reduction.witness"),
    ("reduction", "extract_solution", "reduction.extract"),
    ("reduction", "oracle_ef", "reduction.oracle"),
    ("interp", "compile_iterated", "interp.compile"),
    ("interp", "lift_system", "interp.lift"),
    ("interp", "IteratedReduction.witness", "interp.witness"),
    ("interp", "IteratedReduction.extract_solution", "interp.extract"),
    ("cli", "main", "cli"),  # completed by the subcommand: cli.compile, ...
)

# (module, attribute, counter, amount): counted per call, no span.
COUNT_TARGETS = (
    ("wreath", "WreathElement.__mul__", "wreath.mul_calls", None),
    ("gadgets", "delta_blocks", "gadgets.blocks", len),
)

# Per-layer metrics of the traced run, in report order.  A "<key>_s" metric is
# the self time of that key's spans; times and sums are means per traced
# instance, and "max_*" are maxima over the run.
PER_LAYER = (
    ("laurent.valuation_s", "s"), ("laurent.valuation_calls", "count"),
    ("laurent.decompose_s", "s"), ("laurent.decompose_calls", "count"),
    ("laurent.input_terms", "count"), ("laurent.max_exponent_span", "count"),
    ("wreath.module_action_s", "s"), ("wreath.mul_calls", "count"),
    ("wreath.max_coeff_bits", "bits"),
    ("equations.parse_s", "s"), ("equations.serialize_s", "s"), ("equations.check_s", "s"),
    ("equations.equations_checked", "count"), ("equations.text_bytes", "bytes"),
    ("gadgets.build_s", "s"), ("gadgets.witness_s", "s"), ("gadgets.blocks", "count"),
    ("reduction.compile_s", "s"), ("reduction.witness_s", "s"),
    ("reduction.extract_s", "s"), ("reduction.oracle_s", "s"),
    ("interp.compile_s", "s"), ("interp.lift_s", "s"), ("interp.witness_s", "s"),
    ("interp.extract_s", "s"), ("interp.support_points", "count"),
    ("cli.compile_s", "s"), ("cli.witness_s", "s"), ("cli.verify_s", "s"),
    ("cli.extract_s", "s"),
    ("trace.overhead_s", "s"),
)

MAXIMA = ("laurent.max_exponent_span", "wreath.max_coeff_bits")


def _value_counts(values, **extra):
    acc = empty_counts(**extra)
    for value in values:
        fold_value(value, acc)
    return acc


# Size counts of a span, from its arguments and result; computed when the
# instance ends, outside every span.
_SIZES = {
    "laurent.decompose": lambda args, result: {
        "laurent.input_terms": len(args[0].terms),
        "laurent.max_exponent_span": max(
            (max(col) - min(col) for col in zip(*args[0].terms)), default=0)},
    "wreath.module_action": lambda args, result: {
        "wreath.max_coeff_bits": _value_counts([result])["coeff_bits"]},
    "equations.check": lambda args, result: {
        "equations.equations_checked": len(args[0].equations)},
    "equations.serialize": lambda args, result: {
        "equations.text_bytes": len(result.encode())},
    "equations.parse": lambda args, result: {
        "equations.text_bytes": len(args[0].encode())},
    "interp.witness": lambda args, result: {
        "interp.support_points": _value_counts(result.values(), support_points=0)["support_points"]},
}


class Tracer:
    """In-memory spans and counts for the instances run while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self.instances = 0
        self._stack = []
        self._kept = []
        self._instance = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, key, name, fn):
        spans, stack, kept, clock = self.spans, self._stack, self._kept, time.perf_counter_ns
        sized = key in _SIZES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = "cli." + str(args[0][0]) if key == "cli" else key
            rec = [k, name, 0, 0, stack[-1] if stack else -1, self._instance]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if sized:
                kept.append((k, args, result))
            return result

        return wrapper

    def _count_wrapper(self, counter, amount, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def instance(self, instance_id, fn, *args):
        """Run ``fn(*args)`` under a root span; returns its result and seconds."""
        clock = time.perf_counter_ns
        self._instance = instance_id
        rec = ["bench.instance", "instance", 0, 0, -1, instance_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = clock()
        try:
            result = fn(*args)
        finally:
            rec[3] = clock()
            self._stack.pop()
        self.instances += 1
        for key, a, value in self._kept:
            for name, size in _SIZES[key](a, value).items():
                if name in MAXIMA:
                    self.maxima[name] = max(self.maxima[name], size)
                else:
                    self.counts[name] += size
        self._kept.clear()
        return result, (rec[3] - rec[2]) / 1e9

    # -- installing --------------------------------------------------------

    def install(self, zw):
        """Wrap every target in the imported package ``zw``."""
        modules = [m for n, m in sys.modules.items()
                   if (n == zw.__name__ or n.startswith(zw.__name__ + ".")) and m is not None]
        for mod_name, attr, key in SPAN_TARGETS:
            self._patch(modules, getattr(zw, mod_name), attr,
                        lambda fn, key=key, name=f"{mod_name}.{attr}":
                        self._span_wrapper(key, name, fn))
        for mod_name, attr, counter, amount in COUNT_TARGETS:
            self._patch(modules, getattr(zw, mod_name), attr,
                        lambda fn, c=counter, a=amount: self._count_wrapper(c, a, fn))

    def _patch(self, modules, module, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        """Restore every name the wrappers replaced."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Self time in ns of every span, in span order."""
        own = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[4] >= 0:
                own[rec[4]] -= rec[3] - rec[2]
        return own

    def per_layer(self):
        """Per-layer metrics: per-instance means of times and sums, run maxima."""
        n = max(self.instances, 1)
        seconds = Counter()
        for rec, own in zip(self.spans, self.self_times()):
            seconds[rec[0]] += own / 1e9
        keys = [rec[0] for rec in self.spans]
        questions = sum(1 for rec in self.spans if rec[0] == "laurent.valuation"
                        and (rec[4] < 0 or keys[rec[4]] != "laurent.valuation"))
        calls = {"laurent.valuation_calls": questions,
                 "laurent.decompose_calls": keys.count("laurent.decompose")}
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if name in MAXIMA:
                out[name] = self.maxima[name]
            elif name.endswith("_s"):
                out[name] = seconds[name[:-2]] / n
            else:
                out[name] = calls.get(name, self.counts[name]) / n
        return out

    def breakdown(self, key):
        """Self time in ns by key of everything inside spans of ``key``."""
        own = self.self_times()
        inside = Counter()
        for i, rec in enumerate(self.spans):
            j = i
            while j >= 0 and self.spans[j][0] != key:
                j = self.spans[j][4]
            if j >= 0:
                inside[rec[0]] += own[i]
        return inside

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0
        return [[rec[0], rec[1], rec[2] - t0, rec[3] - t0, rec[4], rec[5]]
                for rec in self.spans]
