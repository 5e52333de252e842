"""Spans and per-layer attribution for the traced run.

Two sources, both from outside the library:

* ``Spans`` records one span (id, name, start, end, parent) per op and
  per public entry point an op calls, in memory.
* ``cProfile`` over the same round, aggregated by module file into the
  library's layers.  A layer's self time is the summed ``tottime`` of its
  module's functions plus the built-ins (``sorted``, ``dict.get``, ...)
  those functions call.  ``fractions`` and ``math.gcd`` form their own row.

A counter or timer is named by the public import path of the function it
reads.  If a later version of the library removes that function, the
metric is left out of the report rather than read as zero.
"""

from __future__ import annotations

import fractions
import importlib
import os
from time import perf_counter

LAYERS = ("cli", "cartan", "monomials", "qchar", "tableaux", "crystal",
          "scalars", "modrep", "linalg", "fusion", "hecke")


class Spans:
    """In-memory span recorder; ``call`` wraps one library call."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "start": perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def total(self, name):
        return sum((s["end"] - s["start"] for s in self.spans
                    if s["name"] == name), 0.0)


class NoSpans:
    """Tracing off: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# metric -> public functions whose cProfile call counts it sums
CALL_COUNTS = {
    "monomials.mul_calls": ["qtoroidal.monomials.YMonomial.__mul__",
                            "qtoroidal.monomials.YMonomial.mul_power",
                            "qtoroidal.monomials.YMonomial.inverse"],
    "monomials.hash_calls": ["qtoroidal.monomials.YMonomial.__hash__"],
    "scalars.fraction_new_calls": ["fractions.Fraction.__new__"],
    "scalars.qscalar_mul_calls": ["qtoroidal.scalars.QScalar.__mul__"],
    "scalars.cycscalar_mul_calls": ["qtoroidal.scalars.CycScalar.__mul__"],
    "scalars.root_power_calls": ["qtoroidal.scalars.CycScalar.root_power"],
    "scalars.qrat_op_calls": ["qtoroidal.scalars.QRat." + m for m in (
        "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__", "exact_div",
        "inverse")],
    "scalars.qrat_reduce_calls": ["qtoroidal.scalars.QRat._reduce"],
    "scalars.truncseries_mul_calls": [
        "qtoroidal.scalars.TruncSeries.__mul__"],
    "modrep.apply_calls": ["qtoroidal.modrep.ModuleRealization.apply"],
    "modrep.image_calls": ["qtoroidal.modrep.ModuleRealization.image"],
    "linalg.linop_mul_calls": ["qtoroidal.linalg.LinOp.__mul__",
                               "qtoroidal.linalg.LinOp.__rmul__"],
    "linalg.linop_tensor_calls": ["qtoroidal.linalg.LinOp.tensor"],
    "linalg.linop_add_calls": ["qtoroidal.linalg.LinOp.__add__"],
    "linalg.rref_calls": ["qtoroidal.linalg.rref"],
    "linalg.kernel_basis_calls": ["qtoroidal.linalg.kernel_basis"],
    "fusion.coproduct_generator_calls": [
        "qtoroidal.fusion.coproduct_generator"],
}

# metric -> function whose cProfile cumulative time it reads; these run
# mostly inside other entry points, where the benchmark has no span
CUMULATIVE = {
    "qchar.fm_expand_s": "qtoroidal.qchar.fm_expand",
    "qchar.char_product_s": "qtoroidal.qchar.char_product",
    "linalg.rref_s": "qtoroidal.linalg.rref",
    "linalg.span_grow_s": "qtoroidal.linalg.span_grow",
}

# metric -> span name; the summed duration of the spans around the
# entry points the ops call directly
SPAN_TOTALS = {
    "qchar.tsystem_s": "qchar.verify_tsystem",
    "qchar.octahedron_s": "qchar.octahedron_verify",
    "tableaux.compare_s": "tableaux.tableau_qchar_compare",
    "modrep.verify_s": "modrep.verify_relations",
    "fusion.relation_check_s": "fusion.coproduct_relation_check",
    "fusion.coassoc_s": "fusion.twisted_coassoc_check",
    "hecke.invariant_subspaces_s": "hecke.invariant_subspaces",
    "hecke.find_isomorphism_s": "hecke.find_isomorphism",
    "hecke.zelevinsky_s": "hecke.zelevinsky_product",
}


def _profile_key(path):
    """cProfile's (file, line, name) key of a function named by its
    import path, or None when the name no longer resolves."""
    module_name, _, rest = path.partition(".")
    obj = importlib.import_module(module_name)
    parts = rest.split(".")
    # descend through packages first, then attributes
    while parts and hasattr(obj, "__path__"):
        try:
            obj = importlib.import_module(obj.__name__ + "." + parts[0])
        except ImportError:
            break
        parts.pop(0)
    for part in parts:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(getattr(obj, "__func__", obj), "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


class LayerMap:
    """Maps a profiled function to the layer that owns its time."""

    def __init__(self, package_dir):
        self.package_dir = os.path.abspath(package_dir)
        self.fractions_file = os.path.abspath(fractions.__file__)

    def of_file(self, filename):
        path = os.path.abspath(filename)
        if path == self.fractions_file:
            return "fractions"
        if not path.startswith(self.package_dir + os.sep):
            return "other"
        rel = os.path.relpath(path, self.package_dir)
        if rel.split(os.sep)[0] == "_kernel":
            return "monomials"          # the kernel twin counts as monomials
        stem = os.path.splitext(rel)[0]
        return stem if stem in LAYERS else "other"


def layer_self_times(stats, layers):
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    out = {}
    for (filename, _, name), (_, _, tt, _, callers) in stats.items():
        if filename != "~":
            row = layers.of_file(filename)
            out[row] = out.get(row, 0.0) + tt
        elif "math.gcd" in name:
            out["fractions"] = out.get("fractions", 0.0) + tt
        else:
            # a built-in's time belongs to whoever called it
            for (cfile, _, _), edge in callers.items():
                row = "other" if cfile == "~" else layers.of_file(cfile)
                out[row] = out.get(row, 0.0) + edge[2]
    return out


def layer_metrics(stats, layers, spans):
    """Every per-layer metric the profile and the spans support."""
    self_s = layer_self_times(stats, layers)
    # no op calls into cli, so its (zero) time is left in "other"
    m = {"%s.self_s" % layer: self_s.get(layer, 0.0)
         for layer in LAYERS if layer != "cli"}
    m["scalars.fractions_self_s"] = self_s.get("fractions", 0.0)
    m["other.self_s"] = self_s.get("other", 0.0) + self_s.get("cli", 0.0)
    m["trace.profiled_s"] = sum(self_s.values())
    for metric, paths in CALL_COUNTS.items():
        keys = {k for k in map(_profile_key, paths) if k is not None}
        if keys:
            m[metric] = sum(stats[k][1] for k in keys if k in stats)
    for metric, path in CUMULATIVE.items():
        key = _profile_key(path)
        if key is not None:
            m[metric] = stats[key][3] if key in stats else 0.0
    for metric, name in SPAN_TOTALS.items():
        m[metric] = spans.total(name)
    return m
