"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the layers' public functions at their module
attribute, in every `toroidal` module namespace that imported them by
name, and (for methods) on their class.  Nothing inside the program
changes; `uninstall` puts the originals back.

A span is (name, start, end, parent span, document).  Spans live in flat
arrays in memory and are written out by `write`.  Calls into the leaf
layers `monomial`, `units` and `linalg` are many and short, so they are
aggregated per parent span (time per layer) and counted per function;
a leaf call made inside another leaf call is counted, and its time
stays with the outer call.  Self times and counts are derived from the
spans by `layer_metrics`.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

PACKAGE = "toroidal"
LEAF_LAYERS = ("monomial", "units", "linalg")

# (module, function or Class.method, span name).  Span names start with
# their layer; functions of a leaf layer are aggregated, not spanned.
WRAPPED = [
    ("principalize", "principalize_chart_family", "principalize.driver"),
    ("principalize", "nonprincipal_locus", "principalize.locus"),
    ("principalize", "MaxOrderLexPolicy.select", "principalize.select"),
    ("chart", "pullback_center_ideal", "chart.pullback"),
    ("chart", "derive_center_form", "chart.adapt"),
    ("chart", "classify_form", "chart.classify"),
    ("chart", "verify_toroidal_form", "chart.verify"),
    ("chart", "column_minima", "chart.minima"),
    ("chart", "structural_problems", "chart.structure"),
    ("chart", "extend_to_global_form", "chart.extend"),
    ("chart", "center_row_order", "chart.adapt_order"),
    ("blowup", "check_permissible_center", "blowup.permissible"),
    ("blowup", "enumerate_blowup_strata", "blowup.enumerate"),
    ("blowup", "blowup_transform", "blowup.transform"),
    ("blowup", "check_center_snc", "blowup.snc"),
    ("blowup", "center_coordinates", "blowup.coordinates"),
    ("lift", "lift_after_principalization", "lift.lift"),
    ("lift", "lift_case", "lift.case"),
    ("lift", "verify_commutes", "lift.commutes"),
    ("pipeline", "toroidalize", "pipeline.toroidalize"),
    ("pipeline", "replay", "pipeline.replay"),
    ("pipeline", "check_atlas", "pipeline.checks"),
    ("pipeline", "verify_resolution_script", "pipeline.checks"),
    ("pipeline", "verify_global_toroidal", "pipeline.global"),
    ("pipeline", "atlas_to_doc", "documents.encode"),
    ("documents", "canonical_dumps", "documents.dumps"),
    ("documents", "chart_from_doc", "documents.parse"),
    ("documents", "chart_to_doc", "documents.encode"),
    ("documents", "choice_to_doc", "documents.encode"),
    ("documents", "center_to_doc", "documents.encode"),
    ("documents", "descriptor_to_doc", "documents.encode"),
    ("documents", "lift_record_to_doc", "documents.encode"),
    ("monomial", "minimal_generators", "monomial.minimal_generators"),
    ("monomial", "contains_monomial", "monomial.contains"),
    ("monomial", "gcd_generators", "monomial.gcd"),
    ("monomial", "colon_by_monomial", "monomial.colon"),
    ("monomial", "multiply_by_monomial", "monomial.multiply"),
    ("monomial", "principal_part_factorization", "monomial.factor"),
    ("monomial", "intersect", "monomial.intersect"),
    ("monomial", "irreducible_decomposition", "monomial.decompose"),
    ("monomial", "radical", "monomial.radical"),
    ("monomial", "order_at_origin", "monomial.order"),
    ("monomial", "order_along", "monomial.order_along"),
    ("monomial", "max_order_components", "monomial.max_order"),
    ("units", "UnitValue.__mul__", "units.mul"),
    ("units", "UnitValue.__pow__", "units.pow"),
    ("units", "UnitValue.inv", "units.inv"),
    ("units", "UnitFactor.constant", "units.constant"),
    ("units", "UnitToken.constant", "units.constant"),
    ("units", "UnitToken.with_factor", "units.with_factor"),
    ("units", "UnitToken.remap_vars", "units.remap"),
    ("units", "Stratum.unit_value", "units.unit_value"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "greedy_pivot_rows", "linalg.pivots"),
    ("linalg", "greedy_pivot_cols", "linalg.pivots"),
    ("linalg", "solve_square", "linalg.solve"),
]

# Spans whose result length is recorded as the span's value.
COUNT_RESULT = {"blowup.enumerate"}


class _Span:
    """Context manager for a span opened by the benchmark itself."""

    __slots__ = ("tracer", "name", "doc", "idx")

    def __init__(self, tracer, name, doc):
        self.tracer, self.name, self.doc = tracer, name, doc

    def __enter__(self):
        self.idx = self.tracer._open(self.tracer._name_id(self.name), self.doc)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.doc = array("i")
        self.value = array("q")
        self.leaf_ns = {layer: array("q") for layer in LEAF_LAYERS}
        self.leaf_calls: dict[str, int] = {}
        self._stack = [-1]
        self._doc = [-1]
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, doc: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.doc.append(doc)
        self.value.append(0)
        self.end.append(0)
        for arr in self.leaf_ns.values():
            arr.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, doc: int | None = None):
        """A span around benchmark code; `doc` sets the document id for it
        and every span opened inside it."""
        if doc is not None:
            self._doc[0] = doc
        return _Span(self, name, self._doc[0])

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        count_result = name in COUNT_RESULT
        stack, cur_doc, value = self._stack, self._doc, self.value
        open_, end = self._open, self.end

        def traced(*args, **kwargs):
            idx = open_(nid, cur_doc[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if count_result:
                value[idx] = len(result)
            return result
        return traced

    def _leaf_wrapper(self, fn, name, busy):
        layer = name.split(".", 1)[0]
        layer_ns = self.leaf_ns[layer]
        calls = self.leaf_calls
        calls.setdefault(name, 0)
        stack = self._stack

        def traced(*args, **kwargs):
            calls[name] += 1
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                layer_ns[stack[-1]] += perf_counter_ns() - t0
                busy[0] = False
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        busy = [False]

        def wrap(original, name):
            if name.split(".", 1)[0] in LEAF_LAYERS:
                return self._leaf_wrapper(original, name, busy)
            return self._span_wrapper(original, name)

        for module_name, attr, name in WRAPPED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = inspect.getattr_static(cls, meth)
                setattr(cls, meth, wrap(original, name))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = wrap(original, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> list[int]:
        """Span duration minus child spans and leaf time under it (ns)."""
        n = len(self.name)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for layer_ns in self.leaf_ns.values():
            for i in range(n):
                out[i] -= layer_ns[i]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def phases(self, roots: set[str]) -> list[str | None]:
        """Name of the nearest enclosing span whose name is in `roots`."""
        out: list[str | None] = []
        for i in range(len(self.name)):
            name = self.names[self.name[i]]
            p = self.parent[i]
            out.append(name if name in roots else (out[p] if p >= 0 else None))
        return out

    def write(self, path: Path, doc_ids: list[str]) -> None:
        """Spans as JSON lines: a header, then one array per span
        [name, start_ns, end_ns, parent, doc, monomial_ns, units_ns,
        linalg_ns, value]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names, "docs": doc_ids,
                                  "columns": ["name", "start_ns", "end_ns",
                                              "parent", "doc",
                                              *(f"{x}_ns" for x in LEAF_LAYERS),
                                              "value"],
                                  "leaf_calls": self.leaf_calls}) + "\n")
            leaf = [self.leaf_ns[x] for x in LEAF_LAYERS]
            for i in range(len(self.name)):
                out.write(f"[{self.name[i]},{self.start[i]},{self.end[i]},"
                          f"{self.parent[i]},{self.doc[i]},{leaf[0][i]},"
                          f"{leaf[1][i]},{leaf[2][i]},{self.value[i]}]\n")
