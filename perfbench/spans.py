"""Span and count wrappers around kslab's public functions (traced runs).

The tracer replaces each wrapped function in every kslab module
namespace that holds it (``topology.snf_invariants`` and
``intlinalg.snf_invariants`` are the same object, so both are patched),
records one span per call (name, start, end, parent span, op id) in
memory, and counts hot leaf calls (exterior products and relabellings)
without spans.  ``restore`` puts every original back.  Nothing under
``src/`` is edited: all instrumentation lives in these wrappers.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from math import comb

MARK = "__perfbench_wrapper__"

# module -> {function name: span name}
SPANS = {
    "intlinalg": {"snf_invariants": "intlinalg.snf"},
    "topology": {
        "compare_with_S": "topology.compare",
        "y_complex": "topology.complex",
        "y_small_complex": "topology.complex",
        "staircase_product_complex": "topology.complex",
        "order_complex": "topology.complex",
        "integral_cohomology": "topology.cohomology",
        "coboundary_rows": "topology.coboundary",
        "tree_y_cohomology": "topology.tree",
    },
    "graphs": {
        "enumerate_tree_foldings": "graphs.tree_foldings",
        "hedgehog_analyze": "graphs.hedgehog",
    },
    "graph_rings": {
        "cycle_relations": "graph_rings.cycle_relations",
        "graded_structure": "graph_rings.graded_structure",
        "hedgehog_ring": "graph_rings.hedgehog_ring",
        "pinched_ring_structure": "graph_rings.pinched_ring_structure",
    },
    "springer": {
        "reduce": "springer.reduce",
        "reduce_in": "springer.reduce_in",
        "leading_check": "springer.leading_check",
        "rho_all": "springer.rho_all",
        "hilbert_ranks": "springer.hilbert_ranks",
    },
    "mvss": {
        "exactness_check": "mvss.exactness",
        "d1": "mvss.d1",
        "ts_normal_form": "mvss.normal_form",
        "triangular_failures": "mvss.triangular",
        "enumerate_bts": "mvss.enumerate_bts",
    },
    "combinatorics": {
        "conjecture_scan": "combinatorics.conjecture_scan",
        "star_dotted_set": "combinatorics.star_dotted_set",
        "classify_dotted": "combinatorics.classify_dotted",
        "enumerate_sparse": "combinatorics.enumerate_sparse",
        "enumerate_matchings": "combinatorics.enumerate_matchings",
        "gf_coefficients": "combinatorics.gf_coefficients",
        "sparse_closure": "combinatorics.sparse_closure",
        "mu_of": "combinatorics.mu_of",
        "lambda_of": "combinatorics.lambda_of",
    },
    "fqlin": {"rref": "fqlin.rref"},
    "flags": {
        "cover_scan": "flags.cover_scan",
        "chain_lemma_scan": "flags.chain_lemma_scan",
        "tree_from_flag": "flags.tree_from_flag",
        "unrolled_metric": "flags.unrolled_metric",
        "thin_invariants": "flags.thin_invariants",
        "submodules": "flags.submodules",
    },
    "cli": {"main": "cli.main"},
}

# hot leaves: (module, class or None, attribute) -> counter name
COUNTED = {
    ("exterior", "ExtElement", "__mul__"): "exterior.mul.calls",
    ("exterior", "ExtElement", "relabel_signed"): "exterior.relabel.calls",
}
# generators: counted per yielded item
YIELDS = {("flags", "enumerate_flags"): "flags.enumerated"}


def _bell(k: int) -> int:
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _nnz(rows) -> int:
    return sum(len(r) if isinstance(r, dict) else sum(1 for x in r if x)
               for r in rows)


def _measure_snf(counts, args, result):
    rows = args[0]
    nnz = _nnz(rows)
    counts["intlinalg.snf.rows_in"] += len(rows)
    counts["intlinalg.snf.nnz_in"] += nnz
    counts["intlinalg.snf.rank"] += len(result)
    counts["intlinalg.snf.max_nnz"] = max(counts["intlinalg.snf.max_nnz"], nnz)


def _measure_cohomology(counts, args, result):
    counts["topology.simplices"] += sum(len(level) for level in args[0])


def _measure_coboundary(counts, args, result):
    counts["topology.coboundary.nnz"] += sum(len(r) for r in result[0])


def _measure_foldings(counts, args, result):
    G = args[0]
    evens = sum(1 for v in G.vertices if G.parity[v] == 0)
    counts["graphs.tree_foldings.found"] += len(result)
    counts["graphs.tree_foldings.tried"] += \
        _bell(evens) * _bell(len(G.vertices) - evens)


def _measure_relations(counts, args, result):
    counts["graph_rings.relations"] += len(result.relations)


def _measure_rref(counts, args, result):
    counts["fqlin.rref.rows_in"] += len(args[0])
    counts["fqlin.rref.rank"] += len(result)


MEASURES = {
    "intlinalg.snf": _measure_snf,
    "topology.cohomology": _measure_cohomology,
    "topology.coboundary": _measure_coboundary,
    "graphs.tree_foldings": _measure_foldings,
    "graph_rings.cycle_relations": _measure_relations,
    "fqlin.rref": _measure_rref,
}


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        measure = MEASURES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    # -- install / restore --------------------------------------------------

    def _patch(self, owner, attr, wrapper, original):
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed function wherever a kslab module holds it."""
        modules = kslab_modules()
        wrappers = {}
        for mod_name, table in SPANS.items():
            mod = sys.modules[f"kslab.{mod_name}"]
            for attr, span_name in table.items():
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (fn, self._span(span_name, fn))
        for (mod_name, attr), counter in YIELDS.items():
            fn = getattr(sys.modules[f"kslab.{mod_name}"], attr)
            wrappers[id(fn)] = (fn, self._yield_counter(counter, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1], value)
        for (mod_name, cls_name, attr), counter in COUNTED.items():
            cls = getattr(sys.modules[f"kslab.{mod_name}"], cls_name)
            fn = cls.__dict__[attr]
            self._patch(cls, attr, self._counter(counter, fn), fn)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines, then one line with the counts."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def kslab_modules():
    return [m for n, m in list(sys.modules.items())
            if (n == "kslab" or n.startswith("kslab.")) and m is not None]


def leftover_wrappers() -> list[str]:
    """Names in kslab namespaces still bound to a tracer wrapper."""
    left = []
    for mod in kslab_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                left.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                left += [f"{mod.__name__}.{attr}.{a}"
                         for a, v in vars(value).items()
                         if getattr(v, MARK, False)]
    return left


def aggregate(spans) -> dict:
    """Per-name and per-layer time totals of a span list.

    ``busy`` is inclusive time counted once per outermost occurrence (a
    span nested in a span of the same name, or of the same layer for the
    layer total, adds nothing); ``self`` is a span's duration minus its
    direct children's durations.  ``calls`` counts every span.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += dur - child_time[i]
        outer_name = outer_layer = True
        p = parent
        while p >= 0 and (outer_name or outer_layer):
            pname = spans[p][0]
            if pname == name:
                outer_name = False
            if pname.split(".", 1)[0] == layer:
                outer_layer = False
            p = spans[p][3]
        if outer_name:
            out[f"{name}.busy_s"] += dur
        if outer_layer:
            out[f"{layer}.busy_s"] += dur
    return dict(out)
