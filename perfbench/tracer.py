"""Outside-in tracing of kamforge's layers.

Wrappers are installed from here, around the public functions of
``scalar``, ``series``, ``normalform``, ``diophantine``, ``lie`` and
``cli``; the package's own files are not touched.  A function is
replaced in every kamforge namespace that holds it (``poisson_bracket``
lives in ``series``, ``normalform``, ``cli`` and the package root), and
a method on its class.

Each call becomes a frame with a start, an end and a parent.  Layer
boundaries are kept as spans in memory and written once, at the end.
Hot leaf operations (QuadScalar arithmetic, lattice dot products) are
only counted and timed, so that the trace stays small.  A frame's self
time is its duration minus the time its traced children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

_QUAD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "conjugate",
    "exact_sign", "floor", "__lt__", "__le__", "__gt__", "__ge__",
)


def _bracket_count(counters, args, kwargs, result):
    f, g = args
    counters["series.bracket_pairs"] += len(f) * len(g)
    counters["series.bracket_terms_out"] += len(result)


def _product_count(counters, args, kwargs, result):
    f, g = args
    if type(g) is type(f):
        counters["series.product_pairs"] += len(f) * len(g)


def _measure_count(counters, args, kwargs, result):
    n, N, samples = kwargs["n"], kwargs["N"], kwargs["samples"]
    lattice = ((2 * N + 1) ** n - 1) // 2
    counters["diophantine.measure_samples"] += samples
    counters["diophantine.measure_flops_computed"] += 2 * n * samples * lattice


# (group, module, attribute path, keep a span per call, counter hook)
# The group's first component is the layer.
TARGETS = [
    *[("scalar.quad", "kamforge.scalar", f"QuadScalar.{op}", False, None) for op in _QUAD_OPS],
    ("scalar", "kamforge.scalar", "continued_fraction", True, None),
    ("scalar", "kamforge.scalar", "convergents", True, None),
    ("scalar", "kamforge.scalar", "certified_root", False, None),
    ("scalar", "kamforge.scalar", "CertifiedDecimal.from_exact", False, None),
    ("series", "kamforge.series", "poisson_bracket", True, _bracket_count),
    ("series", "kamforge.series", "PoissonSeries.__mul__", True, _product_count),
    ("series", "kamforge.series", "PoissonSeries.to_json", True, None),
    ("series", "kamforge.series", "flow_apply", True, None),
    ("series", "kamforge.series", "compose_flows", True, None),
    ("series", "kamforge.series", "average", True, None),
    ("normalform", "kamforge.normalform", "IntegrableHamiltonian.from_series", True, None),
    ("normalform", "kamforge.normalform", "IntegrableHamiltonian.pairing", False, None),
    ("normalform", "kamforge.normalform", "resonances", True, None),
    ("normalform", "kamforge.normalform", "homological_solve", True, None),
    ("normalform", "kamforge.normalform", "formal_normal_form", True, None),
    ("normalform", "kamforge.normalform", "kolmogorov_normal_form", True, None),
    ("normalform", "kamforge.normalform", "exact_det", True, None),
    ("normalform", "kamforge.normalform", "solve_linear", True, None),
    ("normalform", "kamforge.normalform", "normal_space_class", True, None),
    ("diophantine", "kamforge.diophantine", "FrequencyVector.dot", False, None),
    ("diophantine", "kamforge.diophantine", "kolmogorov_constant", True, None),
    ("diophantine", "kamforge.diophantine", "liouville_witness", True, None),
    ("diophantine", "kamforge.diophantine", "small_denominator_series", True, None),
    ("diophantine", "kamforge.diophantine", "hadamard_apply", True, None),
    ("diophantine", "kamforge.diophantine", "decay_fit", True, None),
    ("diophantine", "kamforge.diophantine", "measure_estimate", True, _measure_count),
    ("lie", "kamforge.lie", "commutant_basis", True, None),
    ("lie", "kamforge.lie", "transversal_from_commutant", True, None),
    ("lie", "kamforge.lie", "matrix_exp", True, None),
    ("lie", "kamforge.lie", "lie_iterate_homogeneous", True, None),
    ("lie", "kamforge.lie", "lie_iterate_parametric", True, None),
    ("lie", "kamforge.lie", "convergence_order", True, None),
    ("cli", "kamforge.cli", "main", True, None),
    ("cli", "kamforge.cli", "run_scenario", True, None),
    ("cli", "kamforge.cli", "validate_scenario", True, None),
    ("cli", "kamforge.cli", "selftest", True, None),
]


class Tracer:
    """Frames, spans and per-name / per-group aggregates of one process."""

    def __init__(self):
        self.stack = []  # open frames: [name, group, child_time, span_id]
        self.spans = []  # (span_id, name, start, end, parent_span_id)
        self.next_id = 0
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # per name, direct self-recursion counted once
        self.self_time = defaultdict(float)
        self.group_incl = defaultdict(float)  # per group, outermost calls of the group
        self.counters = defaultdict(int)
        self.patched = []  # "namespace.attribute" of every replaced binding

    def wrap(self, name, group, fn, keep_span, count):
        stack, spans, calls = self.stack, self.spans, self.calls
        incl, self_time, group_incl = self.incl, self.self_time, self.group_incl
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = self.next_id
                self.next_id += 1
            else:
                span_id = parent[3] if parent else None
            frame = [name, group, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_time[name] += dur - frame[2]
                if parent is None:
                    incl[name] += dur
                    group_incl[group] += dur
                else:
                    parent[2] += dur
                    if parent[0] != name:
                        incl[name] += dur
                    if parent[1] != group:
                        group_incl[group] += dur
                if keep_span:
                    spans.append((span_id, name, start, end, parent[3] if parent else None))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every kamforge namespace that binds it."""
        for modname in sorted({t[1] for t in TARGETS}):
            importlib.import_module(modname)  # all importers exist before patching
        for group, modname, path, keep_span, count in TARGETS:
            module = importlib.import_module(modname)
            name = f"{modname.split('.')[-1]}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, group, raw.__func__, keep_span, count)))
                else:
                    setattr(cls, attr, self.wrap(name, group, raw, keep_span, count))
                self.patched.append(f"{modname}.{path}")
                continue
            original = getattr(module, path)
            traced = self.wrap(name, group, original, keep_span, count)
            for modkey, mod in list(sys.modules.items()):
                if modkey != "kamforge" and not modkey.startswith("kamforge."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self.patched.append(f"{modkey}.{attr}")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_time),
            "group_incl_s": dict(self.group_incl),
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "patched": self.patched,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, fh)
