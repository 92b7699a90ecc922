"""Spans around braidhopf's public functions, recorded from outside the program.

``Tracer.install`` replaces each listed function with a wrapper and rebinds
every name that refers to it in every braidhopf module, so a function
pulled in with ``from .linalg import pipeline`` is traced at all its call
sites.  ``uninstall`` restores the originals, so untraced passes run the
program exactly as shipped.

A span is (layer, function, start, end, parent, item).  Its self time is its
duration minus the time its child spans cover.  The wrappers' own counting
runs after ``end`` is taken and is charged to no span, not even the parent.
"""

from __future__ import annotations

import re
import sys
from time import perf_counter

# layer -> "module:function" or "module:Class.method".  Each must be called
# by some workload; the smoke test fails on any that is not.
LAYERS = {
    "linalg.elim": ["linalg:Matrix.rank", "linalg:Matrix.inverse", "linalg:kernel_basis",
                    "linalg:solve_affine", "linalg:solve_matrix", "linalg:equalizer"],
    "linalg.pipeline": ["linalg:pipeline"],
    "linalg.product": ["linalg:Matrix.__mul__", "linalg:kron", "linalg:compose",
                       "linalg:hstack"],
    "report.compare": ["linalg:Matrix.first_difference", "report:eq_check",
                       "report:chain_eq_check"],
    "textio.parse": ["textio:parse_algebra_file", "textio:parse_morphism_file"],
    "cli.dispatch": ["cli:dispatch"],
    "category.braiding": ["category:VecBackend.braiding_mat",
                          "category:SuperVecBackend.braiding_mat"],
    "category.morphism_report": ["category:Backend.morphism_report",
                                 "category:_GradedBackend.morphism_report"],
    "hopf": ["hopf:verify_algebra", "hopf:verify_coalgebra", "hopf:verify_bialgebra",
             "hopf:verify_antipode", "hopf:solve_total_integral", "hopf:build_cosep_section",
             "hopf:integral_from_section", "hopf:verify_cosep_section",
             "hopf:make_bialgebra", "hopf:is_cocommutative"],
    "weakproj": ["weakproj:projection_operators", "weakproj:verify_weak_projection",
                 "weakproj:run_bd_suite", "weakproj:compute_diagram",
                 "weakproj:derive_structure_maps", "weakproj:build_context",
                 "weakproj:structure_report", "weakproj:search_weak_projection",
                 "weakproj:r_coalgebra"],
    "products": ["products:delta_on_br", "products:make_factorization",
                 "products:build_cross_product", "products:cross_product_report",
                 "products:check_matched_pair", "products:build_double_cross",
                 "products:actions_from_psi", "products:derive_actions_general",
                 "products:bosonization_checks", "products:derive_actions_cocomm",
                 "products:build_smash", "products:r_bialgebra", "products:xi_is_trivial"],
    "filtration": ["filtration:subspace_contains", "filtration:quotient_projection",
                   "filtration:wedge", "filtration:is_subcoalgebra",
                   "filtration:b_adic_filtration", "filtration:coradical",
                   "filtration:check_magnum_preconditions", "filtration:full_subobject"],
    "builders": ["builders:cyclic_group", "builders:s3_group", "builders:symmetric_group",
                 "builders:group_algebra", "builders:sweedler_h4"],
}

_WITNESS_COL = re.compile(r"\((\d+),(\d+)\)")


class Span:
    __slots__ = ("layer", "func", "start", "end", "end_total", "parent", "item",
                 "outermost", "layer_child")

    def __init__(self, layer, func, parent, item, outermost):
        self.layer = layer
        self.func = func
        self.parent = parent
        self.item = item
        self.outermost = outermost      # no enclosing span of the same layer
        self.layer_child = False        # some span of the same layer inside it
        self.start = self.end = self.end_total = 0.0


def _count(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _elim_work(func, args, result):
    """(cells, pivots) of an elimination call that nests no other one.

    cells is the size of the system handed in; pivots the rank the result
    reveals (None where it reveals none: an inconsistent or matrix solve).
    """
    if func == "Matrix.rank":
        m = args[0]
        return m.rows * m.cols, result
    if func == "Matrix.inverse":
        n = args[0].rows
        return n * n, n
    if func == "kernel_basis":
        m = args[0]
        return m.rows * m.cols, m.cols - len(result)
    if func == "equalizer":
        f = args[0]
        return f.rows * f.cols, f.cols - result.cols
    if func == "solve_affine":
        a = args[0]
        return a.rows * (a.cols + 1), (None if result is None else a.cols - len(result[1]))
    if func == "solve_matrix":
        a, b = args[0], args[1]
        return a.rows * (a.cols + b.cols), None
    raise KeyError(func)


def _columns_nnz(mat, upto: int) -> int:
    return sum(len(mat.column(c)) for c in range(upto))


def _compare_work(func, args, result, first_difference):
    """(materialized columns, columns needed for the verdict, entries, failed).

    ``first_difference`` is the unwrapped method, so locating the broken
    pair of a chain records no span.
    """
    if func == "Matrix.first_difference":
        mats, broke, diff = list(args[:2]), 0, result
    elif func == "eq_check":
        mats, broke = [args[1], args[2]], 0
        diff = None if result.status == "pass" else _witness_cell(result.witness)
    else:  # chain_eq_check: the witness comes from the first pair that breaks
        mats, broke, diff = list(args[1]), 0, None
        if result.status != "pass":
            diff = _witness_cell(result.witness)
            broke = next(k for k in range(len(mats) - 1)
                         if first_difference(mats[k], mats[k + 1]) is not None)
    cols = mats[0].cols if mats else 0
    materialized = cols * len(mats)
    if diff is None:
        return materialized, materialized, sum(m.nnz for m in mats), 0
    j = diff[1]
    full = mats[:broke + 1]
    needed = cols * len(full) + j + 1
    entries = sum(m.nnz for m in full) + _columns_nnz(mats[broke + 1], j + 1)
    return materialized, needed, entries, 1


def _witness_cell(witness: str):
    match = _WITNESS_COL.search(witness or "")
    return (int(match.group(1)), int(match.group(2))) if match else (0, 0)


class Tracer:
    """Installs span wrappers; collects spans and layer counters per pass."""

    def __init__(self, mods):
        self.mods = mods
        self.item = None
        self.spans: list[Span] = []
        self.first_pass: list[Span] = []  # spans of the first traced pass, written out
        self.counts: dict = {}          # "layer.counter" -> number
        self.calls: dict = {}           # "module:function" -> calls
        self._stack: list[Span] = []
        self._patches = []              # (owner, attribute, original)
        self.missing: list[str] = []
        self._first_difference = vars(mods.linalg.Matrix)["first_difference"]
        self._plan = []
        for layer, names in LAYERS.items():
            for qual in names:
                owner, attr = self._resolve(qual)
                if owner is None:
                    self.missing.append(qual)
                    continue
                original = vars(owner)[attr]
                self._plan.append((layer, qual, owner, attr, original,
                                   self._wrap(layer, qual, original)))

    def _resolve(self, qual: str):
        module_name, _, path = qual.partition(":")
        owner = getattr(self.mods, module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = vars(owner).get(cls)
            if owner is None:
                return None, attr
        return (owner, attr) if attr in vars(owner) else (None, attr)

    @staticmethod
    def _modules():
        """Every loaded braidhopf module, including ones the benchmark never names."""
        return [m for name, m in list(sys.modules.items())
                if name == "braidhopf" or name.startswith("braidhopf.")]

    def install(self) -> None:
        for layer, qual, owner, attr, original, wrapper in self._plan:
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in self._modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unbound(self) -> list[str]:
        """Names in braidhopf modules or classes still bound to an unwrapped original."""
        originals = {id(p[4]): p[1] for p in self._plan}
        left = []
        for module in self._modules():
            scopes = [(module.__name__, vars(module))]
            scopes += [(f"{module.__name__}.{k}", vars(v)) for k, v in vars(module).items()
                       if isinstance(v, type) and v.__module__ == module.__name__]
            for where, scope in scopes:
                for name, value in scope.items():
                    if id(value) in originals:
                        left.append(f"{where}.{name} -> {originals[id(value)]}")
        return left

    def _wrap(self, layer: str, qual: str, fn):
        tracer = self
        func = qual.partition(":")[2]

        def traced(*args, **kwargs):
            stack = tracer._stack
            outermost = True
            for up in reversed(stack):
                if up.layer == layer:
                    up.layer_child = True
                    outermost = False
                    break
            span = Span(layer, func, stack[-1] if stack else None, tracer.item, outermost)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.end_total = span.end
            tracer._account(span, qual, args, result)
            span.end_total = perf_counter()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", func)
        traced.__qualname__ = getattr(fn, "__qualname__", func)
        traced.__doc__ = fn.__doc__
        return traced

    def _account(self, span: Span, qual: str, args, result) -> None:
        counts, layer, func = self.counts, span.layer, span.func
        self.calls[qual] = self.calls.get(qual, 0) + 1
        _count(counts, f"{layer}.calls", 1)
        if layer == "linalg.elim" and not span.layer_child:
            cells, pivots = _elim_work(func, args, result)
            _count(counts, "linalg.elim.cells", cells)
            if pivots is not None:
                _count(counts, "linalg.elim.pivots", pivots)
        elif layer == "linalg.pipeline":
            stages = args
            _count(counts, "linalg.pipeline.columns", result.cols)
            _count(counts, "linalg.pipeline.factor_stages",
                   sum(1 for st in stages if isinstance(st, tuple)))
            _count(counts, "linalg.pipeline.plain_stages",
                   sum(1 for st in stages if not isinstance(st, tuple)))
            _count(counts, "linalg.pipeline.out_nnz", result.nnz)
        elif layer == "linalg.product" and span.outermost:
            _count(counts, "linalg.product.out_nnz", result.nnz)
        elif layer == "report.compare" and span.outermost:
            materialized, needed, entries, failed = _compare_work(
                func, args, result, self._first_difference)
            _count(counts, "report.compare.materialized", materialized)
            _count(counts, "report.compare.needed", needed)
            _count(counts, "report.compare.entries", entries)
            _count(counts, "report.compare.fails", failed)
        elif layer == "textio.parse":
            _count(counts, "textio.parse.bytes", len(args[0]))

    def take(self) -> tuple[list[Span], dict]:
        """Spans and counters recorded since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def self_times(spans: list[Span]) -> dict:
    """layer -> summed self time of its spans."""
    covered = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + (span.end_total - span.start)
    out: dict = {}
    for span in spans:
        own = (span.end - span.start) - covered.get(id(span), 0.0)
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out
