"""Span and counter tracing of symlab's layers, installed from outside.

`Tracer.install()` wraps the public functions and methods listed in SPANS
and COUNTERS; `Tracer.remove()` puts every original back.  Nothing under
src/ is edited.  The modules import names with `from .x import y`, so a free
function is replaced in every symlab module that holds it, and a method is
replaced on its class.

A span is recorded at each wrapped boundary as [name, start_ns, end_ns,
parent index, request id]; spans stay in memory until the run ends.  Field
and polynomial operations run into the millions, so they get plain counters
and no spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "parse", "families", "quotient", "linalg", "poly", "fields", "chi",
          "structure", "lines")

# (span name, module, qualified attribute).  A name shared by several
# targets aggregates them.
SPANS = [
    ("cli.run", "cli", "run"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.parse_args", "cli", "_ArgumentParser.parse_args"),
    ("cli.render", "cli", "emit_report"),
    ("parse", "parse", "parse_ratfunc"),
    ("parse", "parse", "parse_cycles"),
    ("families.perm_coeff_vector", "families", "perm_coeff_vector"),
    ("families.analyze_at", "families", "analyze_at"),
    ("families.surviving_subgroup", "families", "surviving_subgroup"),
    ("families.critical_values", "families", "RootFamily.critical_values"),
    ("families.survival_condition", "families", "survival_condition"),
    ("families.conjugate_through_iso", "families", "conjugate_through_iso"),
    ("quotient.vandermonde_pair", "quotient", "vandermonde_pair"),
    ("quotient.brute_force", "quotient", "brute_force_automorphisms"),
    ("quotient.is_automorphism", "quotient", "SubstitutionMap.is_automorphism"),
    ("quotient.order", "quotient", "SubstitutionMap.order"),
    ("quotient.idempotents", "quotient", "idempotents"),
    ("linalg.inverse", "linalg", "Matrix.inverse"),
    ("linalg.det", "linalg", "laplace_det"),
    ("poly.limit_at", "poly", "RationalFunction.limit_at"),
    ("poly.compose_mod", "poly", "UniPoly.compose_mod"),
    ("fields.parse_field_spec", "fields", "parse_field_spec"),
    ("fields.primitive_cube_root", "fields", "primitive_cube_root"),
    ("chi.order_class", "chi", "order_class"),
    ("chi.order", "chi", "Chi.order"),
    ("chi.no_s3_check", "chi", "no_s3_check"),
    ("structure.build_T", "structure", "build_T"),
    ("structure.brute_force", "structure", "brute_force_automorphisms"),
    ("structure.transport_aut", "structure", "transport_aut"),
    ("lines.generic_symmetry", "lines", "generic_symmetry"),
    ("lines.design_isometries", "lines", "design_isometries"),
    ("lines.sweep", "lines", "sweep"),
]

# (counter name, module, qualified attribute)
COUNTERS = [
    ("fields.mul.count.Q", "fields", "RationalField._mul"),
    ("fields.mul.count.Fp", "fields", "PrimeField._mul"),
    ("fields.mul.count.ext", "fields", "ExtensionField._mul"),
    ("fields.mul.count.Qt", "poly", "FunctionField._mul"),
    ("fields.add.count", "fields", "RationalField._add"),
    ("fields.add.count", "fields", "RationalField._sub"),
    ("fields.add.count", "fields", "PrimeField._add"),
    ("fields.add.count", "fields", "PrimeField._sub"),
    ("fields.add.count", "fields", "ExtensionField._add"),
    ("fields.add.count", "fields", "ExtensionField._sub"),
    ("fields.add.count", "poly", "FunctionField._add"),
    ("fields.add.count", "poly", "FunctionField._sub"),
    ("fields.inverse.count", "fields", "RationalField._inv"),
    ("fields.inverse.count", "fields", "PrimeField._inv"),
    ("fields.inverse.count", "fields", "ExtensionField._inv"),
    ("fields.inverse.count", "poly", "FunctionField._inv"),
    ("poly.ratfunc_new.count", "poly", "RationalFunction.__init__"),
    ("poly.unipoly_divmod.count", "poly", "UniPoly.__divmod__"),
    ("chi.compose.calls", "chi", "Chi.compose"),
    ("structure.is_algebra_morphism.calls", "structure", "LinearAlgebraMap.is_algebra_morphism"),
]

COUNTER_NAMES = {name for name, _, _ in COUNTERS}

# Per-layer metrics reported by a traced run, with their units.  Every
# entry here is also listed under "per_layer" in BENCHMARK.json.
NAMED = [
    ("families.perm_coeff_vector.calls", "count"), ("families.perm_coeff_vector.ms", "ms"),
    ("quotient.vandermonde_pair.calls", "count"), ("quotient.vandermonde_pair.ms", "ms"),
    ("linalg.inverse.calls", "count"), ("linalg.inverse.ms", "ms"),
    ("poly.ratfunc_new.count", "count"), ("fields.mul.count.Qt", "count"),
    ("families.analyze_at.calls", "count"), ("families.analyze_at.self_ms", "ms"),
    ("families.surviving_subgroup.ms", "ms"),
    ("poly.limit_at.calls", "count"), ("poly.limit_at.ms", "ms"),
    ("families.critical_values.ms", "ms"), ("fields.mul.count.Q", "count"),
    ("quotient.brute_force.ms", "ms"),
    ("quotient.is_automorphism.calls", "count"), ("quotient.is_automorphism.ms", "ms"),
    ("quotient.brute_force.hit_ratio", "ratio"), ("quotient.order.calls", "count"),
    ("poly.compose_mod.calls", "count"), ("poly.compose_mod.ms", "ms"),
    ("poly.unipoly_divmod.count", "count"), ("fields.mul.count.Fp", "count"),
    ("chi.compose.calls", "count"), ("chi.order.calls", "count"), ("chi.order.ms", "ms"),
    ("chi.no_s3_check.ms", "ms"), ("fields.mul.count.ext", "count"),
    ("structure.brute_force.ms", "ms"), ("structure.is_algebra_morphism.calls", "count"),
    ("structure.brute_force.hit_ratio", "ratio"),
    ("lines.generic_symmetry.ms", "ms"),
    ("lines.design_isometries.calls", "count"), ("lines.design_isometries.ms", "ms"),
    ("families.survival_condition.ms", "ms"),
    ("linalg.det.calls", "count"), ("linalg.det.ms", "ms"),
    ("parse.calls", "count"), ("parse.ms", "ms"),
    ("cli.parse_args.ms", "ms"), ("cli.build_parser.ms", "ms"), ("cli.command.ms", "ms"),
    ("cli.render.ms", "ms"),
    ("fields.add.count", "count"), ("fields.inverse.count", "count"),
    ("trace.overhead_ratio", "ratio"),
]
# Which end-to-end metric, on which workload, each group of per-layer
# metrics should move; written down before any change is measured.
PREDICTIONS = [
    {"per_layer": ["families.perm_coeff_vector.calls", "families.perm_coeff_vector.ms",
                   "quotient.vandermonde_pair.calls", "quotient.vandermonde_pair.ms",
                   "linalg.inverse.calls", "linalg.inverse.ms", "poly.ratfunc_new.count",
                   "fields.mul.count.Qt"],
     "moves": ["requests_per_s", "latency_p90_ms"], "workload": "family_limits",
     "no_change_on": ["finite_enum"]},
    {"per_layer": ["families.analyze_at.calls", "families.analyze_at.self_ms",
                   "families.surviving_subgroup.ms", "poly.limit_at.calls", "poly.limit_at.ms",
                   "families.critical_values.ms", "fields.mul.count.Q"],
     "moves": ["latency_p50_ms"], "workload": "family_limits"},
    {"per_layer": ["quotient.brute_force.ms", "quotient.is_automorphism.calls",
                   "quotient.is_automorphism.ms", "quotient.brute_force.hit_ratio",
                   "quotient.order.calls", "poly.compose_mod.calls", "poly.compose_mod.ms",
                   "poly.unipoly_divmod.count", "fields.mul.count.Fp"],
     "moves": ["requests_per_s"], "workload": "finite_enum"},
    {"per_layer": ["chi.compose.calls", "chi.order.calls", "chi.order.ms", "chi.no_s3_check.ms",
                   "fields.mul.count.ext", "structure.brute_force.ms",
                   "structure.is_algebra_morphism.calls", "structure.brute_force.hit_ratio"],
     "moves": ["latency_p90_ms"], "workload": "finite_enum"},
    {"per_layer": ["lines.generic_symmetry.ms", "lines.design_isometries.calls",
                   "lines.design_isometries.ms", "families.survival_condition.ms",
                   "linalg.det.calls", "linalg.det.ms", "parse.calls", "parse.ms",
                   "cli.parse_args.ms", "cli.build_parser.ms", "cli.command.ms", "cli.render.ms"],
     "moves": ["latency_p50_ms"], "workload": "cli_mix"},
    {"per_layer": ["cli.parse_args.ms", "cli.build_parser.ms"], "moves": ["setup_s"],
     "workload": "cli_mix"},
]

PER_LAYER = NAMED + [
    (f"layer.{layer}.{kind}", "count" if kind == "calls" else "ms")
    for layer in LAYERS
    for kind in ("calls", "busy_ms", "self_ms")
]


def _resolve(module: str, qualname: str):
    """(owner object, attribute name) for module.qualname."""
    owner = sys.modules[f"symlab.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request_id = None
        self._in_structure_bf = False
        self._patches: list[tuple] = []  # (owner, attr, original, had_own_attr)

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # recursion stays in the outer span
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.request_id])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _quotient_bf(self, fn):
        """Candidates are all q^n image polynomials; hits are the maps found."""

        @functools.wraps(fn)
        def wrapper(algebra):
            out = fn(algebra)
            self.counts["quotient.brute_force.candidates"] += algebra.field.size() ** algebra.dim
            self.counts["quotient.brute_force.found"] += len(out)
            return out

        return wrapper

    def _structure_bf(self, fn):
        """Candidates are the column combinations the search checks."""

        @functools.wraps(fn)
        def wrapper(algebra):
            self._in_structure_bf = True
            try:
                out = fn(algebra)
            finally:
                self._in_structure_bf = False
            self.counts["structure.brute_force.found"] += len(out)
            return out

        return wrapper

    def _morphism_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(phi):
            counts["structure.is_algebra_morphism.calls"] += 1
            if self._in_structure_bf:
                counts["structure.brute_force.candidates"] += 1
            return fn(phi)

        return wrapper

    # -- install / remove ------------------------------------------------------

    def _patch_attr(self, owner, attr, new):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def _patch_function(self, original, new):
        """Replace `original` in every symlab module namespace that binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "symlab" and not modname.startswith("symlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import symlab.cli as cli

        for name, module, qualname in COUNTERS:
            owner, attr = _resolve(module, qualname)
            original = vars(owner)[attr]
            if name == "structure.is_algebra_morphism.calls":
                self._patch_attr(owner, attr, self._morphism_counter(original))
            else:
                self._patch_attr(owner, attr, self._counter(name, original))
        for name, module, qualname in SPANS:
            owner, attr = _resolve(module, qualname)
            original = getattr(owner, attr)
            fn = original
            if name == "quotient.brute_force":
                fn = self._quotient_bf(fn)
            elif name == "structure.brute_force":
                fn = self._structure_bf(fn)
            wrapped = self._span(name, fn)
            if isinstance(owner, type):
                self._patch_attr(owner, attr, wrapped)
            else:
                self._patch_function(original, wrapped)
        for sub, fn in list(cli._COMMANDS.items()):
            self._patch_dict(cli._COMMANDS, sub, self._span("cli.command", fn))

    def _patch_dict(self, table, key, new):
        self._patches.append((table, key, table[key], True))
        table[key] = new

    def remove(self) -> bool:
        """Restore every original; True when all of them are back."""
        for owner, attr, original, had_own in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        ok = all(
            (owner[attr] if isinstance(owner, dict) else getattr(owner, attr)) is original
            for owner, attr, original, _ in self._patches
        )
        self._patches = []
        return ok

    # -- results ---------------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(json.dumps([name, start, end, parent, req]) + "\n")

    def metrics(self, overhead_ratio: float) -> dict:
        """The PER_LAYER metrics from the recorded spans and counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start

        def has_ancestor(i, pred):
            p = spans[i][3]
            while p >= 0:
                if pred(spans[p][0]):
                    return True
                p = spans[p][3]
            return False

        calls, busy, self_ns = Counter(), Counter(), Counter()
        lcalls, lbusy, lself = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            layer = name.split(".")[0]
            calls[name] += 1
            self_ns[name] += dur - child_ns[i]
            lcalls[layer] += 1
            lself[layer] += dur - child_ns[i]
            if not has_ancestor(i, lambda n: n == name):
                busy[name] += dur
            if not has_ancestor(i, lambda n: n.split(".")[0] == layer):
                lbusy[layer] += dur

        c = self.counts

        def ratio(found, tried):
            return c[found] / c[tried] if c[tried] else 0.0

        values = {
            "quotient.brute_force.hit_ratio": ratio("quotient.brute_force.found",
                                                    "quotient.brute_force.candidates"),
            "structure.brute_force.hit_ratio": ratio("structure.brute_force.found",
                                                     "structure.brute_force.candidates"),
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric, unit in NAMED:
            if metric in values:
                continue
            if metric in COUNTER_NAMES:
                values[metric] = c[metric]
                continue
            base, kind = metric.rsplit(".", 1)
            if kind == "calls":
                values[metric] = calls[base]
            elif kind == "ms":
                values[metric] = busy[base] / 1e6
            elif kind == "self_ms":
                values[metric] = self_ns[base] / 1e6
            else:
                raise ValueError(f"no rule for metric {metric}")
        for layer in LAYERS:
            values[f"layer.{layer}.calls"] = lcalls[layer]
            values[f"layer.{layer}.busy_ms"] = lbusy[layer] / 1e6
            values[f"layer.{layer}.self_ms"] = lself[layer] / 1e6
        return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
