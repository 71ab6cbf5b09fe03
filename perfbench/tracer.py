"""Spans around paradec's public functions, installed from outside the program.

Each wrapped function records a span ``[name, start, end, parent]`` in
memory.  A function is replaced in every paradec module that holds it under
a name, so ``paradec.cli.check_domain`` and ``paradec.doubling.check_domain``
record the same span.  The span names are the metric names without their
``_s``/``_calls`` suffix, so an in-program trace can emit the same names.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# span name -> (defining module, function name)
FUNCTIONS = {
    "cayley.enumerate_ball": ("paradec.cayley", "enumerate_ball"),
    "cayley.product_set": ("paradec.cayley", "product_set"),
    "matching.hopcroft_karp": ("paradec.matching", "hopcroft_karp"),
    "matching.alternating_reachable": ("paradec.matching", "alternating_reachable"),
    "doubling.check_domain": ("paradec.doubling", "check_domain"),
    "doubling.minimal_violating_radius": ("paradec.doubling", "minimal_violating_radius"),
    "doubling.verify_certificate": ("paradec.doubling", "verify_certificate"),
    "doubling.verdict_to_jsonable": ("paradec.doubling", "verdict_to_jsonable"),
    "doubling.verdict_from_jsonable": ("paradec.doubling", "verdict_from_jsonable"),
    "decomposition.pieces_from_certificate": (
        "paradec.decomposition",
        "pieces_from_certificate",
    ),
    "decomposition.verify_decomposition": ("paradec.decomposition", "verify_decomposition"),
    "decomposition.report_to_text": ("paradec.decomposition", "report_to_text"),
    "decomposition.decomposition_to_jsonable": (
        "paradec.decomposition",
        "decomposition_to_jsonable",
    ),
    "decomposition.free_up_to_length": ("paradec.decomposition", "free_up_to_length"),
    "forest.sample_forest": ("paradec.forest", "sample_forest_containing_a_edges"),
    "forest.sample_with_required": (
        "paradec.forest",
        "sample_spanning_tree_with_required_edges",
    ),
    "forest.audit": ("paradec.forest", "audit_counting_argument"),
}

# span name -> (module, class, method)
METHODS = {
    "groups.format_element": ("paradec.groups", "GroupSpec", "format_element"),
    "groups.parse_element": ("paradec.groups", "GroupSpec", "parse_element"),
    "forest.audit_to_jsonable": ("paradec.forest", "ForestAudit", "to_jsonable"),
}


def _count_vertices(counts, args, kwargs, result):
    counts["cayley.vertices_enumerated"] += len(result.vertices)


def _count_matching_input(counts, args, kwargs, result):
    adjacency = args[0] if args else kwargs["adjacency"]
    counts["matching.left_vertices"] += len(adjacency)
    counts["matching.adjacency_entries"] += sum(len(row) for row in adjacency)


def _count_reach(counts, args, kwargs, result):
    counts["matching.reach_left"] += sum(result[0])


# work counts read from a call's arguments or result
COUNTERS = {
    "cayley.enumerate_ball": _count_vertices,
    "matching.hopcroft_karp": _count_matching_input,
    "matching.alternating_reachable": _count_reach,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {
            "cayley.vertices_enumerated": 0,
            "matching.left_vertices": 0,
            "matching.adjacency_entries": 0,
            "matching.reach_left": 0,
        }

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds, plus the
        work counts and the product-set calls made inside check_domain."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        recounts = 0
        for i, (name, start, end, parent) in enumerate(spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
            if name == "cayley.product_set":
                while parent >= 0 and spans[parent][0] != "doubling.check_domain":
                    parent = spans[parent][3]
                recounts += parent >= 0
        counts = dict(self.counts, **{"doubling.union_recounts": recounts})
        return {"spans": totals, "counts": counts}


def _replace_everywhere(old, new) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "paradec" or module_name.startswith("paradec."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install_spans() -> Tracer:
    """Wrap every traced function and method, and the CLI's JSON calls."""
    tracer = Tracer()
    for name, (module, attr) in FUNCTIONS.items():
        fn = getattr(sys.modules[module], attr)
        _replace_everywhere(fn, tracer.wrap(name, fn, COUNTERS.get(name)))
    for name, (module, cls_name, attr) in METHODS.items():
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    # The CLI reaches json through its module global; give it a copy of the
    # module whose dumps/load are traced, leaving every other json user alone.
    cli = sys.modules["paradec.cli"]
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(cli.json))
    proxy.dumps = tracer.wrap("cli.json_encode", cli.json.dumps)
    proxy.load = tracer.wrap("cli.json_decode", cli.json.load)
    cli.json = proxy
    cli.main = tracer.wrap("cli.main", cli.main)
    return tracer


class CallCounter:
    """Counts group multiplications, and those made inside the freeness
    search, without timing anything."""

    def __init__(self):
        self.multiplies = 0
        self.freeness_multiplies = 0

    def summary(self) -> dict:
        return {
            "counts": {
                "groups.multiply_calls": self.multiplies,
                "decomposition.freeness_multiplies": self.freeness_multiplies,
            }
        }


def install_counter() -> CallCounter:
    counter = CallCounter()
    groups = sys.modules["paradec.groups"]
    multiply = groups.GroupSpec.multiply

    def counted_multiply(self, x, y):
        counter.multiplies += 1
        return multiply(self, x, y)

    groups.GroupSpec.multiply = counted_multiply

    decomposition = sys.modules["paradec.decomposition"]
    search = decomposition.free_up_to_length

    @functools.wraps(search)
    def counted_search(*args, **kwargs):
        before = counter.multiplies
        try:
            return search(*args, **kwargs)
        finally:
            counter.freeness_multiplies += counter.multiplies - before

    _replace_everywhere(search, counted_search)
    return counter
