"""Spans and call counters around scheme_forge's public functions, installed
from outside the package by replacing names where they are looked up.

Spans are kept in memory as [name, start, end, parent, command] lists
(parent is the index of the enclosing span, command the id shared by the
spans of one CLI call) and are written out when the run ends. Hot
primitives get count-only wrappers, which add no span.
"""

import functools
import os
import sys
import time

# (module, attribute path, span name); a dotted path names a method that
# is patched on its class.
SPANS = [
    ("cli", "read_config", "cli.read_config"),
    ("cli", "write_report", "cli.write_report"),
    ("space", "space_from_config", "space.space_from_config"),
    ("space", "AbelianSpace.verify_nondegenerate", "space.verify_nondegenerate"),
    ("action", "build_action", "action.build_action"),
    ("action", "orbits", "action.orbits"),
    ("action", "check_condition_4", "action.check_condition_4"),
    ("action", "GeneratorSet.verify_additive", "action.verify_additive"),
    ("action", "adjoint_map", "action.adjoint_map"),
    ("action", "verify_adjoint", "action.verify_adjoint"),
    ("scheme", "TranslationScheme.intersection_numbers",
     "scheme.intersection_numbers"),
    ("scheme", "TranslationScheme.to_report", "scheme.to_report"),
    ("duality", "pairing_table", "duality.pairing_table"),
    ("duality", "character_profile", "duality.character_profile"),
    ("duality", "constancy_test", "duality.constancy_test"),
    ("duality", "verify_eigen_identities", "duality.verify_eigen_identities"),
    ("duality", "verify_idempotents", "duality.verify_idempotents"),
    ("duality", "sigma_permutation", "duality.sigma_permutation"),
    ("duality", "krein_parameters", "duality.krein_parameters"),
    ("duality", "krein_equals_intersection",
     "duality.krein_equals_intersection"),
    ("duality", "duality_report", "duality.duality_report_self"),
    ("oracles", "matrix_rank", "oracles.matrix_rank"),
]

# (module, attribute path, counter name)
COUNTERS = [
    ("space", "AbelianSpace.add", "space.add_calls"),
    ("space", "AbelianSpace.neg", "space.neg_calls"),
    ("gf", "FieldElement.__add__", "gf.field_ops"),
    ("gf", "FieldElement.__sub__", "gf.field_ops"),
    ("gf", "FieldElement.__mul__", "gf.field_ops"),
    ("gf", "FieldElement.__neg__", "gf.field_ops"),
    ("gf", "FieldElement.__pow__", "gf.field_ops"),
    ("cyclo", "CycloInt.__mul__", "cyclo.mul_calls"),
    ("cyclo", "CycloInt.__rmul__", "cyclo.mul_calls"),
    ("cyclo", "_reduce", "cyclo.reduce_calls"),
]

# Span names whose calls are also reported as a count.
CALL_COUNTS = {"action.orbits": "action.orbits_calls",
               "scheme.intersection_numbers":
                   "scheme.intersection_numbers_calls"}

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.command = None
        self._stack = []

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.command]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if measure is not None:
                key, amount = measure(args, result)
                self.counts[key] = self.counts.get(key, 0) + amount
            return result
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def command_span(self, command, fn):
        """Root span of one CLI call; every span inside shares its id."""
        self.command = command
        try:
            return self.span(ROOT, fn)()
        finally:
            self.command = None

    # -- installation ---------------------------------------------------

    def install(self):
        """Patch every target. A missing target raises, so a renamed stage
        fails the traced run instead of reading 0."""
        for module, path, name in SPANS:
            self._patch(module, path,
                        lambda fn, name=name: self.span(name, fn,
                                                        _MEASURES.get(name)))
        for module, path, name in COUNTERS:
            self._patch(module, path, lambda fn, name=name: self.counter(name, fn))
        space = sys.modules["scheme_forge.space"]
        classes = [c for c in _subclasses(space.AbelianSpace)
                   if "pairing_exponent" in vars(c)]
        if not classes:
            raise AttributeError("no AbelianSpace subclass defines "
                                 "pairing_exponent")
        for cls in classes:
            cls.pairing_exponent = self.counter(
                "space.pairing_exponent_calls", cls.pairing_exponent)

    def _patch(self, module, path, make):
        mod = sys.modules["scheme_forge." + module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, attr, make(vars(cls)[attr]))
            return
        original = getattr(mod, path)
        wrapped = make(original)
        # modules import names directly, so replace every reference
        for other_name, other in list(sys.modules.items()):
            if other_name.split(".")[0] != "scheme_forge":
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)

    def count_values(self):
        out = {}
        for key, value in self.counts.items():
            out[key] = value[0] if isinstance(value, list) else value
        return out


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _report_bytes(args, result):
    out_path = args[1] if len(args) > 1 else None
    return "cli.report_bytes", os.path.getsize(out_path) if out_path else 0


def _table_entries(args, result):
    return "duality.pairing_table_entries", sum(len(row) for row in result)


_MEASURES = {"cli.write_report": _report_bytes,
             "duality.pairing_table": _table_entries}


def self_times(spans, scale):
    """{span name: (total self seconds, calls)}; self time is the span's
    duration minus the durations of its direct children, times the
    scale of the span's command (see probe.py)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, _, command) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        own = (end - start - child_time[idx]) * scale[command]
        out[name] = (total + own, calls + 1)
    return out


def layer_metrics(spans, counts, scale):
    """Every per-layer metric by name, from the traced pass; scale maps a
    command id to the factor that puts its times at reference speed."""
    selfs = self_times(spans, scale)
    metrics = {}
    for _, _, name in SPANS:
        metrics[name + "_s"] = (selfs.get(name, (0.0, 0))[0], "s")
    for span_name, metric in CALL_COUNTS.items():
        metrics[metric] = (selfs.get(span_name, (0.0, 0))[1], "count")
    for _, _, name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    for name in ("space.pairing_exponent_calls", "cli.report_bytes",
                 "duality.pairing_table_entries"):
        metrics[name] = (counts.get(name, 0),
                         "bytes" if name == "cli.report_bytes" else "count")
    return metrics
