"""Shared test utilities: random elements, small spec menageries, patches
with loops, parallel generators and involutions, a product counter, a
certificate's pairs, a call's outcome, a patch's a-edge forest, forest
degree sums and ledger lookup, and the Hall graphs of the
amenable-abelian2 bench."""

from __future__ import annotations

import random

from paradec import (
    GeneratingSet,
    TranslatingSets,
    a_edge_contraction,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    matrix_group,
    parse_group_spec,
    sample_forest_containing_a_edges,
    spec_to_string,
)
from paradec.cayley import ball_levels
from paradec.doubling import _HallGraph
from paradec.groups import GroupSpec


def all_model_specs():
    return [
        free_group(2),
        free_group(3),
        free_abelian_group(1),
        free_abelian_group(2),
        cyclic_group(5),
        cyclic_group(12),
        matrix_group(),
    ]


# Generating sets whose patches have loops (a generator is the identity),
# parallel generators (two symbols, one element, or one symbol's inverse
# under another name) and involutions (a = a^-1): (group, "sym=word,...").
EDGE_CASE_GENERATORS = [
    ("free:2", "a=1,b=b"),
    ("free:2", "a=a,b=a,c=b"),
    ("free:2", "a=a,b=a^-1,c=b"),
    ("free:2", "a=a,b=b,c=a b"),
    ("cyclic:2", None),
    ("cyclic:6", "a=a^3,b=a^2"),
    ("sl2z:-1,0,0,-1,1,1,0,1", None),
]


def edge_case_patches(radii=(0, 1, 3)) -> list:
    """(id, patch) for every model's standard generators and every
    generating set of ``EDGE_CASE_GENERATORS``, at each radius."""
    cases = [
        (f"{spec_to_string(spec)}[standard]", spec, GeneratingSet.standard(spec))
        for spec in all_model_specs()
    ]
    for group, text in EDGE_CASE_GENERATORS:
        spec = parse_group_spec(group)
        if text is None:
            gens = GeneratingSet.standard(spec)
        else:
            pairs = [chunk.split("=") for chunk in text.split(",")]
            gens = GeneratingSet.from_pairs(
                spec, [(sym, spec.parse_element(word)) for sym, word in pairs]
            )
        cases.append((f"{group}[{text or 'standard'}]", spec, gens))
    return [
        (f"{label}-r{radius}", enumerate_ball(spec, gens, radius))
        for label, spec, gens in cases
        for radius in radii
    ]


def random_element(spec, rng: random.Random, length: int = 6):
    """Random product of up to ``length`` symmetrized generators."""
    gens = [el for _, el in spec.standard_generators()]
    gens += [spec.invert(el) for el in gens]
    x = spec.identity()
    for _ in range(rng.randrange(length + 1)):
        x = spec.multiply(x, rng.choice(gens))
    return x


def standard_gens(spec) -> GeneratingSet:
    return GeneratingSet.standard(spec)


def a_edge_forest(patch, seed: int, a_symbol: str = "a"):
    """The patch's spanning tree containing every a-edge, drawn for one
    seed from a contraction built for this draw alone."""
    return sample_forest_containing_a_edges(a_edge_contraction(patch, a_symbol), seed)


def degree_sum(sample, patch, elements) -> int:
    """The sum of a forest sample's degrees at the given patch elements."""
    indices = {patch.index_of(g) for g in elements}
    return sum((u in indices) + (v in indices) for u, v in sample.edges)


def ledger_entry(audit, name: str):
    """The forest audit's ledger entry called ``name``."""
    (entry,) = [check for check in audit.ledger if check.name == name]
    return entry


def record_products(monkeypatch, before=None) -> list:
    """Patch ``GroupSpec.multiply``, ``GroupSpec.translates`` and
    ``GroupSpec.star`` so that every product g·s formed through any of
    them appends its right factor s to the returned list, one entry per
    product.  ``before(s)``, if given, runs ahead of each entry and may
    raise to forbid the product.  A column counts one product per element
    and a star one per step, all before it is formed, and the products
    that either forms through ``multiply`` are not counted again."""
    factors = []
    multiply = GroupSpec.multiply
    translates = GroupSpec.translates
    star = GroupSpec.star
    in_kernel = [False]

    def record(s, count):
        for _ in range(count):
            if before is not None:
                before(s)
            factors.append(s)

    def kernel(products):
        in_kernel[0] = True
        try:
            return products()
        finally:
            in_kernel[0] = False

    def counted_multiply(self, x, y):
        if not in_kernel[0]:
            record(y, 1)
        return multiply(self, x, y)

    def counted_translates(self, elements, s):
        elements = list(elements)
        record(s, len(elements))
        return kernel(lambda: translates(self, elements, s))

    def counted_star(self, steps):
        steps = tuple(steps)
        products = star(self, steps)

        def counted(x):
            for s in steps:
                record(s, 1)
            return kernel(lambda: products(x))

        return counted

    monkeypatch.setattr(GroupSpec, "multiply", counted_multiply)
    monkeypatch.setattr(GroupSpec, "translates", counted_translates)
    monkeypatch.setattr(GroupSpec, "star", counted_star)
    return factors


def certificate_pairs(spec, cert) -> tuple:
    """A certificate's claim, its ``(g, phi_i(g))`` pairs per family in
    domain order, each image formed by one product: the shape that
    ``verdict_from_jsonable`` reads and ``verify_certificate`` takes."""
    return tuple(
        tuple((g, spec.multiply(g, s)) for g, s in zip(cert.domain, used))
        for used in cert.translators
    )


def outcome(function, *args):
    """The return value, or the raised exception's type and message."""
    try:
        return "returned", function(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def amenable_bench_graphs():
    """The Hall graphs that the ``amenable-abelian2`` bench solves, as
    ``(spec, ts, graph, batches)``: the radius-16 ball of abelian:2 with
    S1 = {1, a}, S2 = {1, b, a b} in one batch, and the ball with
    S1 = {1, a, ..., a^8}, S2 = {1, b, ..., b^8} one level per batch up to
    radius 12, where ``violate`` finds its violator.  ``batches`` lists
    the numbers of left and of right vertices after each batch."""
    spec = free_abelian_group(2)
    gens = standard_gens(spec)
    graphs = []
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
    graph = _HallGraph(spec, ts)
    graph.extend(enumerate_ball(spec, gens, 16).vertices)
    graphs.append((spec, ts, graph, [(len(graph.adjacency), len(graph.right_index))]))
    powers = TranslatingSets.from_words(
        spec,
        ",".join(["1", "a"] + [f"a^{k}" for k in range(2, 9)]),
        ",".join(["1", "b"] + [f"b^{k}" for k in range(2, 9)]),
    )
    graph = _HallGraph(spec, powers)
    batches = []
    for sphere in ball_levels(spec, gens, 12):
        graph.extend(sphere)
        batches.append((len(graph.adjacency), len(graph.right_index)))
    graphs.append((spec, powers, graph, batches))
    return graphs
