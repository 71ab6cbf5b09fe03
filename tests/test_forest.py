import dataclasses
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    GeneratingSet,
    matrix_group,
    parse_group_spec,
    TranslatingSets,
    audit_counting_argument,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    patch_a_edges,
    sample_forest_containing_a_edges,
    sample_spanning_tree_with_required_edges,
)
from paradec.errors import (
    DisconnectedGraphError,
    PatchEscapeError,
    RequiredEdgesCycleError,
)
from paradec import cli
from paradec import forest as forest_module
from paradec.cayley import ShortlexTree, tree_letters
from paradec.cli import main
from paradec.forest import (
    ForestSample,
    InequalityCheck,
    a_edge_contraction,
)

from helpers import (
    a_edge_forest,
    degree_sum,
    edge_case_patches,
    ledger_entry,
    outcome,
    record_products,
    standard_gens,
)
from oracles import (
    audit_counting_argument_oracle,
    ball_edges_oracle,
    contraction_oracle,
    kirchhoff_count,
    patch_a_edges_oracle,
    sample_with_required_edges_oracle,
    simple_edges_oracle,
    wilson_oracle,
)


def ball(spec, radius):
    return enumerate_ball(spec, standard_gens(spec), radius)


def uniform_tree(patch, seed):
    """A uniform spanning tree of the patch's simple graph."""
    return sample_spanning_tree_with_required_edges(
        len(patch.vertices), patch.simple_edges, (), seed
    )


def is_spanning_tree(sample):
    """A sample is acyclic by construction, so it spans when it has one
    edge fewer than vertices."""
    return len(sample.edges) == sample.num_vertices - 1


class TestForestSample:
    def test_cycle_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ForestSample(num_vertices=3, edges=((0, 1), (1, 2), (0, 2)))

    @pytest.mark.parametrize(
        "edges", [((-1, 0),), ((0, 1), (1, 3))], ids=["negative", "past_the_vertices"]
    )
    def test_vertex_outside_the_range_rejected(self, edges):
        # once accepted (-1 wrapped to the last vertex) or a bare IndexError
        with pytest.raises(ValueError) as got:
            ForestSample(num_vertices=3, edges=edges)
        assert type(got.value) is ValueError
        u, v = edges[-1]
        assert str(got.value) == f"edge ({u}, {v}) has a vertex outside range(3)"

    def test_samples_of_a_tree_contraction_are_equal(self):
        contraction = a_edge_contraction(ball(free_group(3), 3), "a")
        samples = [sample_forest_containing_a_edges(contraction, s) for s in range(5)]
        assert all(sample == samples[0] for sample in samples)


class TestUniformSpanningTree:
    def test_single_vertex_patch(self):
        patch = ball(free_group(2), 0)
        sample = uniform_tree(patch, 1)
        assert sample.edges == ()
        assert is_spanning_tree(sample)

    def test_tree_patch_returns_itself(self):
        patch = ball(free_group(2), 2)
        for seed in range(5):
            sample = uniform_tree(patch, seed)
            assert sample.edges == patch.simple_edges

    def test_triangle_frequencies(self):
        # cyclic(3) radius-1 ball is the triangle; 3 spanning trees
        patch = ball(cyclic_group(3), 1)
        assert kirchhoff_count(3, patch.simple_edges) == 3
        counts = Counter()
        for seed in range(9000):
            counts[uniform_tree(patch, seed).edges] += 1
        assert len(counts) == 3
        for freq in counts.values():
            assert abs(freq - 3000) <= 150  # 3 sigma ~ 134

    def test_disconnected_graph_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            sample_spanning_tree_with_required_edges(4, [(0, 1), (2, 3)], (), 0)

    def test_spanning_and_acyclic_always(self):
        patch = ball(free_abelian_group(2), 2)
        for seed in range(50):
            assert is_spanning_tree(uniform_tree(patch, seed))


class TestConditionedSampling:
    def test_grid_ball_contains_all_a_edges(self):
        patch = ball(free_abelian_group(2), 2)
        required = patch_a_edges(patch, "a")
        assert len(required) == 8
        contraction = a_edge_contraction(patch, "a")
        for seed in range(1000):
            sample = sample_forest_containing_a_edges(contraction, seed)
            assert set(required) <= set(sample.edges)
            assert is_spanning_tree(sample)

    def test_free_ball_trivially_contains(self):
        patch = ball(free_group(3), 2)
        assert a_edge_forest(patch, 0).edges == patch.simple_edges

    def test_four_cycle_with_one_required_edge(self):
        # C4 with one pinned edge contracts to a triangle: 3 admissible trees
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        required = [(0, 1)]
        contracted = [(0, 1), (1, 2), (0, 2)]
        assert kirchhoff_count(3, contracted) == 3
        counts = Counter()
        for seed in range(3000):
            sample = sample_spanning_tree_with_required_edges(4, edges, required, seed)
            assert (0, 1) in sample.edges
            assert is_spanning_tree(sample)
            counts[sample.edges] += 1
        assert len(counts) == 3
        sigma = math.sqrt(3000 * (1 / 3) * (2 / 3))
        for freq in counts.values():
            assert abs(freq - 1000) <= 4 * sigma

    def test_conditioned_distribution_matches_enumeration(self):
        # exhaustive oracle: all spanning trees containing the required
        # edges, found by trying every (n-1)-subset of edges
        from itertools import combinations

        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        required = [(1, 2), (3, 4)]
        admissible = []
        for subset in combinations(edges, 4):
            if not set(required) <= set(subset):
                continue
            parent = list(range(5))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for u, v in subset:
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if acyclic:
                admissible.append(tuple(sorted(subset)))
        # contracting {1,2} and {3,4} leaves 0-A twice and A-B three times
        contracted_multigraph = [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)]
        assert kirchhoff_count(3, contracted_multigraph) == len(admissible) == 6
        counts = Counter()
        draws = 4000
        for seed in range(draws):
            sample = sample_spanning_tree_with_required_edges(5, edges, required, seed)
            counts[sample.edges] += 1
        assert set(counts) == set(admissible)
        expected = draws / len(admissible)
        sigma = math.sqrt(draws * (1 / len(admissible)) * (1 - 1 / len(admissible)))
        for freq in counts.values():
            assert abs(freq - expected) <= 4 * sigma

    def test_torsion_generator_rejected(self):
        # every edge of the cyclic(4) ball is an a-edge and they close a cycle
        patch = ball(cyclic_group(4), 2)
        with pytest.raises(RequiredEdgesCycleError):
            a_edge_contraction(patch, "a")

    def test_unknown_symbol_rejected(self):
        patch = ball(free_group(2), 1)
        with pytest.raises(KeyError):
            a_edge_contraction(patch, "z")


def named_ball(spec, pairs, radius):
    gens = GeneratingSet.from_pairs(
        spec, [(sym, spec.parse_element(text)) for sym, text in pairs]
    )
    return enumerate_ball(spec, gens, radius)


# (id, patch, a-symbol): every model, contractions that are trees and ones
# with cycles
MODEL_PATCHES = [
    ("free2", ball(free_group(2), 3), "a"),
    ("free3", ball(free_group(3), 3), "a"),
    ("abelian2", ball(free_abelian_group(2), 3), "a"),
    ("abelian3", ball(free_abelian_group(3), 2), "b"),
    ("cyclic7", named_ball(cyclic_group(7), [("a", "a"), ("b", "a^3")], 1), "a"),
    ("sl2z", ball(matrix_group(), 3), "A"),
    ("sl2z_torsion", ball(parse_group_spec("sl2z:0,-1,1,0,1,1,0,1"), 3), "B"),
    (
        "free2_triangles",
        named_ball(free_group(2), [("a", "a"), ("b", "b"), ("c", "a b")], 3),
        "a",
    ),
]


def random_graph(rng, num_vertices):
    """A connected simple graph (a random tree plus extra edges) and a
    random acyclic subset of its edges."""
    edges = {(rng.randrange(v), v) for v in range(1, num_vertices)}
    for _ in range(rng.randrange(2 * num_vertices) if num_vertices > 1 else 0):
        u, v = rng.sample(range(num_vertices), 2)
        edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    required, parent = [], list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in rng.sample(edges, rng.randrange(len(edges) + 1)):
        if find(u) != find(v):
            parent[find(u)] = find(v)
            required.append((v, u) if rng.random() < 0.5 else (u, v))
    return edges, required


class TestContraction:
    @pytest.mark.parametrize(
        "patch,a_symbol", [c[1:] for c in MODEL_PATCHES], ids=[c[0] for c in MODEL_PATCHES]
    )
    def test_cached_sampler_matches_per_call_oracle(self, patch, a_symbol):
        required = patch_a_edges(patch, a_symbol)
        contraction = a_edge_contraction(patch, a_symbol)
        for seed in range(25):
            sample = sample_forest_containing_a_edges(contraction, seed)
            expected = sample_with_required_edges_oracle(
                len(patch.vertices), patch.simple_edges, required, seed
            )
            assert sample == expected

    def test_models_cover_trees_and_cycles(self):
        shapes = {a_edge_contraction(p, a).is_tree for _, p, a in MODEL_PATCHES}
        assert shapes == {True, False}

    def test_random_graphs_match_oracle(self):
        rng = random.Random("contraction")
        trees = 0
        for _ in range(200):
            n = rng.randrange(1, 12)
            edges, required = random_graph(rng, n)
            seed = rng.randrange(1000)
            sample = sample_spanning_tree_with_required_edges(n, edges, required, seed)
            assert sample == sample_with_required_edges_oracle(n, edges, required, seed)
            trees += forest_module.contract_required_edges(n, edges, required).is_tree
        assert 0 < trees < 200

    @pytest.mark.parametrize(
        "patch", [c[1] for c in MODEL_PATCHES], ids=[c[0] for c in MODEL_PATCHES]
    )
    def test_uniform_samplers_match_oracle_with_nothing_required(self, patch):
        n, edges = len(patch.vertices), patch.simple_edges
        for seed in range(10):
            expected = sample_with_required_edges_oracle(n, edges, (), seed)
            sample = sample_spanning_tree_with_required_edges(n, edges, (), seed)
            assert sample == expected

    def test_random_graphs_match_oracle_with_nothing_required(self):
        rng = random.Random("uniform")
        trees = 0
        for _ in range(200):
            n = rng.randrange(1, 12)
            edges, _ = random_graph(rng, n)
            seed = rng.randrange(1000)
            sample = sample_spanning_tree_with_required_edges(n, edges, (), seed)
            assert sample == sample_with_required_edges_oracle(n, edges, (), seed)
            trees += len(edges) == n - 1
        assert 0 < trees < 200

    @pytest.mark.parametrize("group,walks", [("free:3", 0), ("abelian:3", 1)])
    def test_uniform_sampler_walks_only_on_cycles(self, monkeypatch, group, walks):
        calls = []
        walk = forest_module.Contraction.walk

        def counted(contraction, rng):
            calls.append(contraction.num_blocks)
            return walk(contraction, rng)

        monkeypatch.setattr(forest_module.Contraction, "walk", counted)
        patch = ball(parse_group_spec(group), 3)
        for seed in range(5):
            assert is_spanning_tree(uniform_tree(patch, seed))
        assert len(calls) == 5 * walks

    @pytest.mark.parametrize(
        "num_vertices,edges,required",
        [
            (4, [(0, 1), (1, 2), (0, 2), (2, 3)], [(0, 1), (2, 1), (0, 2)]),
            (4, [(0, 1), (2, 3)], []),
            (5, [(0, 1), (1, 2), (3, 4)], [(1, 0)]),
        ],
        ids=["required_cycle", "disconnected", "disconnected_after_contraction"],
    )
    def test_errors_match_oracle(self, num_vertices, edges, required):
        with pytest.raises(ValueError) as expected:
            sample_with_required_edges_oracle(num_vertices, edges, required, 0)
        with pytest.raises(ValueError) as got:
            sample_spanning_tree_with_required_edges(num_vertices, edges, required, 0)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert type(got.value) in (RequiredEdgesCycleError, DisconnectedGraphError)

    def test_torsion_patch_error_matches_oracle(self):
        patch = ball(cyclic_group(7), 3)
        with pytest.raises(RequiredEdgesCycleError) as expected:
            sample_with_required_edges_oracle(
                len(patch.vertices), patch.simple_edges, patch_a_edges(patch, "a"), 0
            )
        with pytest.raises(RequiredEdgesCycleError) as got:
            a_edge_contraction(patch, "a")
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "num_vertices,edges,required,named",
        [
            # once lifted to the "spanning tree" ((0, 1), (0, 2))
            (3, [(0, 1), (1, 2)], [(0, 2)], "(0, 2)"),
            (4, [(0, 1), (1, 2), (2, 3)], [(1, 2), (3, 1)], "(1, 3)"),
            # once a bare IndexError
            (2, [(0, 1)], [(0, 5)], "(0, 5)"),
            (2, [(0, 1)], [(-1, 0)], "(-1, 0)"),
        ],
        ids=["non_edge", "non_edge_after_an_edge", "past_the_vertices", "negative"],
    )
    def test_required_pair_outside_the_graph_rejected(
        self, num_vertices, edges, required, named
    ):
        with pytest.raises(ValueError) as got:
            sample_spanning_tree_with_required_edges(num_vertices, edges, required, 1)
        assert type(got.value) is ValueError
        assert str(got.value) == f"required edge {named} is not an edge of the graph"

    @pytest.mark.parametrize(
        "edges,named",
        [
            # once the "spanning tree" ((-1, 0),) on a vertex that does not exist
            ([(-1, 0)], "(-1, 0)"),
            # once a bare IndexError
            ([(0, 1), (1, 2)], "(1, 2)"),
        ],
        ids=["negative", "past_the_vertices"],
    )
    def test_graph_edge_outside_the_vertices_rejected(self, edges, named):
        with pytest.raises(ValueError) as got:
            sample_spanning_tree_with_required_edges(2, edges, [], 1)
        assert type(got.value) is ValueError
        assert str(got.value) == f"graph edge {named} has a vertex outside range(2)"

    @pytest.mark.parametrize(
        "group,radius,walks", [("free:3", 4, 0), ("abelian:3", 3, 6)]
    )
    def test_walks_only_where_the_contraction_has_cycles(
        self, monkeypatch, capsys, group, radius, walks
    ):
        calls = []
        walk = forest_module.Contraction.walk

        def counted(contraction, rng):
            calls.append(contraction.num_blocks)
            return walk(contraction, rng)

        monkeypatch.setattr(forest_module.Contraction, "walk", counted)
        argv = ["forest-audit", "--group", group, "--radius", str(radius),
                "--samples", "6", "--seed", "4"]
        assert main(argv) in (0, 1)
        assert len(calls) == walks

    def test_forest_audit_contracts_once_per_run(self, monkeypatch, capsys):
        calls = []
        contract = forest_module.contract_required_edges

        def counted(*args):
            calls.append(args[0])
            return contract(*args)

        monkeypatch.setattr(forest_module, "contract_required_edges", counted)
        argv = ["forest-audit", "--group", "abelian:3", "--radius", "3",
                "--samples", "40"]
        for run in (1, 2):
            assert main(argv) in (0, 1)
            assert len(calls) == run


EDGE_CASES = edge_case_patches()


@pytest.mark.parametrize(
    "patch", [c[1] for c in EDGE_CASES], ids=[c[0] for c in EDGE_CASES]
)
def test_a_edges_and_contraction_equal_the_edge_list_oracles(patch):
    """Per generator symbol: the a-edges, and the contraction field for
    field or its cycle error, as derived from the labeled edge list."""
    edges = ball_edges_oracle(patch)
    for a_symbol in patch.gens.symbols():
        required = patch_a_edges_oracle(edges, a_symbol)
        assert patch_a_edges(patch, a_symbol) == required
        try:
            expected = contraction_oracle(
                len(patch.vertices), simple_edges_oracle(edges), required
            )
        except RequiredEdgesCycleError as exc:
            with pytest.raises(RequiredEdgesCycleError, match=f"^{re.escape(str(exc))}$"):
                a_edge_contraction(patch, a_symbol)
            continue
        got = a_edge_contraction(patch, a_symbol)
        assert got.num_vertices == len(patch.vertices)
        assert (got.required, got.num_blocks, got.edges, got.originals) == expected


def counted_forest_calls(monkeypatch) -> Counter:
    """Count the ForestSample builds ("samples"), the union-finds built
    and the calls of ``contract_required_edges`` and ``patch_a_edges`` in
    the forest module."""
    counts = Counter()
    validate = ForestSample.__post_init__

    def counted_sample(sample):
        counts["samples"] += 1
        validate(sample)

    class CountedUnionFind(forest_module._UnionFind):
        def __init__(self, size):
            counts["union_finds"] += 1
            super().__init__(size)

    def counted(name):
        function = getattr(forest_module, name)

        def call(*args):
            counts[name] += 1
            return function(*args)

        return call

    monkeypatch.setattr(ForestSample, "__post_init__", counted_sample)
    monkeypatch.setattr(forest_module, "_UnionFind", CountedUnionFind)
    for name in ("contract_required_edges", "patch_a_edges"):
        monkeypatch.setattr(forest_module, name, counted(name))
    return counts


@st.composite
def single_letter_balls(draw):
    """A ball of the free tree on free:1 to free:4, over the standard
    basis or over single letters that permute, invert and repeat the
    basis letters under the names a, b, c, d; its radius at most 5 and
    small enough that it has at most 1,500 vertices."""
    rank = draw(st.integers(1, 4), label="rank")
    spec = free_group(rank)
    letter = st.sampled_from(
        [f"{x}{e}" for x in "abcd"[:rank] for e in ("", "^-1")]
    )
    words = draw(st.none() | st.lists(letter, min_size=1, max_size=4), label="gens")
    text = None if words is None else ",".join(f"{y}={w}" for y, w in zip("abcd", words))
    gens = cli._parse_generator_overrides(spec, text)
    numbering = ShortlexTree(tree_letters(spec, gens))
    fits = [r for r in range(6) if numbering.offset(r + 1) <= 1500]
    radius = draw(st.sampled_from(fits), label="radius")
    patch = enumerate_ball(spec, gens, radius)
    assert patch.tree is not None
    return patch


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(patch=single_letter_balls())
def test_tree_contraction_equals_the_general_path(patch):
    """Per symbol, the one-pass contraction of a tree ball equals that of a
    copy without the numbering, which reads the neighbour table and runs
    the union-find; the parent pairs equal the copy's simple edges.  The
    tree path builds no union-find."""
    copy = dataclasses.replace(patch)
    assert copy.tree is None
    assert patch.simple_edges == copy.simple_edges
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = counted_forest_calls(monkeypatch)
        for a_symbol in patch.gens.symbols():
            assert a_edge_contraction(patch, a_symbol) == a_edge_contraction(copy, a_symbol)
    symbols = len(patch.gens.pairs)
    assert counts == {
        "union_finds": symbols, "contract_required_edges": symbols, "patch_a_edges": symbols
    }


TREE_EDGE_CASES = [(label, patch) for label, patch in EDGE_CASES if patch.tree is not None]


class TestTreeContraction:
    """A ball of the free tree is contracted in one pass over its parent
    pairs: no union-find, no a-edge list and no general contraction."""

    @pytest.mark.parametrize(
        "patch", [c[1] for c in TREE_EDGE_CASES], ids=[c[0] for c in TREE_EDGE_CASES]
    )
    def test_tree_ball_builds_no_union_find(self, monkeypatch, patch):
        counts = counted_forest_calls(monkeypatch)
        copy = dataclasses.replace(patch)
        for a_symbol in patch.gens.symbols():
            got = a_edge_contraction(patch, a_symbol)
            assert counts == {}
            assert got == a_edge_contraction(copy, a_symbol)
            assert counts == {
                "union_finds": 1, "contract_required_edges": 1, "patch_a_edges": 1
            }
            counts.clear()

    def test_edge_cases_cover_tree_balls_with_overridden_a_columns(self):
        assert {label.rsplit("-", 1)[0] for label, _ in TREE_EDGE_CASES} == {
            "free:2[standard]", "free:3[standard]", "free:2[a=a,b=a,c=b]",
            "free:2[a=a,b=a^-1,c=b]",
        }

    def test_forest_audit_contracts_a_tree_ball_in_one_pass(self, monkeypatch, capsys):
        """On the tree the audit calls neither general helper, and its one
        kept sample is validated once."""
        counts = counted_forest_calls(monkeypatch)
        argv = ["forest-audit", "--group", "free:3", "--gens", "a=b,b=c^-1,c=a",
                "--radius", "4", "--samples", "6", "--seed", "3"]
        assert main(argv) == 0
        # one union-find validates the sample, one checks each audit's Λ
        assert counts == {"samples": 1, "union_finds": 1 + 6}


def audit_outcomes(patch):
    """The audit's and the element-level oracle's outcomes, in pairs, for
    each generator as a, on seeded forests (a-edge forests where the a-edges
    are acyclic, and a uniform spanning tree, which may miss an a-edge) and
    A1, A2 drawn from the interior and from the whole patch, now and then
    with an element one step outside it.  A patch without a generating
    triple is tried once."""
    spec, gens = patch.spec, patch.gens
    identity = spec.identity()
    rng = random.Random(f"{gens.pairs}:{patch.radius}")
    outside = [
        x for v in patch.vertices[-3:] for _, _, s in gens.symmetrized(spec)
        if (x := spec.multiply(v, s)) not in patch
    ]

    def draw():
        pool = patch.interior if patch.interior and rng.random() < 0.8 else patch.vertices
        drawn = rng.sample(pool, min(rng.randint(0, 4), len(pool)))
        if outside and rng.random() < 0.05:
            drawn.append(rng.choice(outside))
        return drawn

    triples = gens.pairs if len(gens.pairs) == 3 else gens.pairs[:1]
    pairs = []
    for sym, a in triples:
        try:
            ts = TranslatingSets(
                (identity, a), (identity,) + tuple(el for s, el in gens.pairs if s != sym)
            )
        except ValueError:  # a generator is the identity or repeats one
            continue
        forests = [uniform_tree(patch, 7)]
        try:
            contraction = a_edge_contraction(patch, sym)
            forests += [contraction.sample(seed) for seed in range(3)]
        except RequiredEdgesCycleError:
            pass
        for forest in forests:
            for _ in range(6 if len(triples) == 3 else 1):
                args = (patch, forest, draw(), draw(), ts)
                pairs.append(
                    (outcome(audit_counting_argument, *args),
                     outcome(audit_counting_argument_oracle, *args))
                )
    return pairs


@pytest.mark.parametrize(
    "patch", [c[1] for c in EDGE_CASES], ids=[c[0] for c in EDGE_CASES]
)
def test_audit_equals_the_element_level_oracle(patch):
    """Field for field, or the same error type and message."""
    for ours, oracle in audit_outcomes(patch):
        assert ours == oracle


AUDIT_ERRORS = {
    "not a vertex": "is not a patch vertex",
    "not interior": "is not interior",
    "a-translate": "a-translate of ",
    "missing a-edge": "forest is missing the a-edge",
    "both empty": "A1 and A2 must not both be empty",
    "no triple": "the audit needs a generating triple",
    "degenerate triple": "generating triple must be three distinct",
}


def test_audit_oracle_cases_cover_passes_fails_and_every_error():
    kinds = Counter()
    for _, patch in EDGE_CASES:
        for (kind, value), _ in audit_outcomes(patch):
            if kind == "returned":
                kinds["pass" if value.all_passed else "fail"] += 1
            else:
                (name,) = [n for n, text in AUDIT_ERRORS.items() if text in value]
                kinds[name] += 1
    assert set(kinds) == {"pass", "fail", *AUDIT_ERRORS}


def test_edge_case_contractions_cover_trees_cycles_and_torsion():
    shapes = Counter()
    for _, patch in EDGE_CASES:
        for a_symbol in patch.gens.symbols():
            try:
                shapes[a_edge_contraction(patch, a_symbol).is_tree] += 1
            except RequiredEdgesCycleError:
                shapes["torsion"] += 1
    assert set(shapes) == {True, False, "torsion"}


def random_multigraph(rng, num_vertices):
    """A connected multigraph: a random spanning tree plus random extra
    edges, parallel ones included, in random order."""
    edges = [(rng.randrange(v), v) for v in range(1, num_vertices)]
    for _ in range(rng.randrange(3 * num_vertices) if num_vertices > 1 else 0):
        u, v = rng.sample(range(num_vertices), 2)
        edges.extend([(u, v)] * rng.choice((1, 1, 2, 3)))
    rng.shuffle(edges)
    return edges


class TestWalk:
    """``Contraction.walk`` draws each step with ``getrandbits`` as
    ``randrange`` does, so every seed gives the tree of
    :func:`oracles.wilson_oracle`, edge id for edge id."""

    @pytest.mark.parametrize(
        "patch,a_symbol", [c[1:] for c in MODEL_PATCHES], ids=[c[0] for c in MODEL_PATCHES]
    )
    def test_model_contractions_match_oracle(self, patch, a_symbol):
        contraction = a_edge_contraction(patch, a_symbol)
        for seed in range(25):
            expected = wilson_oracle(
                contraction.num_blocks, contraction.edges, random.Random(seed)
            )
            assert contraction.walk(random.Random(seed)) == expected

    def test_random_multigraphs_match_oracle(self):
        rng = random.Random("walk")
        parallel = 0
        for _ in range(200):
            n = rng.randrange(1, 15)
            edges = random_multigraph(rng, n)
            contraction = forest_module.Contraction(n, (), n, tuple(edges), tuple(edges))
            seed = rng.randrange(1000)
            expected = wilson_oracle(n, edges, random.Random(seed))
            assert contraction.walk(random.Random(seed)) == expected
            parallel += len(set(edges)) < len(edges)
        assert parallel > 50

    def test_draw_equals_randrange(self):
        """Every leaf of a star hangs on the root by n parallel edges, so
        the walk from leaf v takes one step, on edge (v - 1)·n + draw.  A
        Python whose ``randrange`` draws otherwise fails here, before
        ``forest-audit`` output could change unseen."""
        leaves, walks = 200, 10
        for n in range(1, 71):
            edges = tuple((0, v) for v in range(1, leaves + 1) for _ in range(n))
            star = forest_module.Contraction(leaves + 1, (), leaves + 1, edges, edges)
            for seed in range(10):
                rng = random.Random(seed)
                draws = [
                    eid - v * n
                    for _ in range(walks)
                    for v, eid in enumerate(star.walk(rng))
                ]
                reference = random.Random(seed)
                assert draws == [reference.randrange(n) for _ in range(leaves * walks)]

    def test_incidence_is_built_once_per_contraction(self):
        patch = MODEL_PATCHES[-1][1]
        contraction = a_edge_contraction(patch, "a")
        contraction.walk(random.Random(1))
        exits = contraction._exits
        for seed in range(2, 6):
            contraction.walk(random.Random(seed))
            assert contraction._exits is exits


class TestSharedTree:
    def test_tree_contraction_builds_one_sample(self, monkeypatch):
        patch = ball(free_group(3), 3)
        contraction = a_edge_contraction(patch, "a")
        assert contraction.is_tree
        counts = counted_forest_calls(monkeypatch)
        samples = [sample_forest_containing_a_edges(contraction, s) for s in range(40)]
        assert counts == {"samples": 1, "union_finds": 1}
        assert all(sample is samples[0] for sample in samples)
        assert samples[0] is contraction._tree
        expected = sample_with_required_edges_oracle(
            len(patch.vertices), patch.simple_edges, patch_a_edges(patch, "a"), 0
        )
        assert samples[0] == expected

    def test_tree_is_kept_per_a_symbol(self):
        """Each contraction keeps its own tree: the a- and b-contractions
        of one patch return theirs, and the patch keeps neither."""
        patch = ball(free_group(3), 3)
        a, b = a_edge_contraction(patch, "a"), a_edge_contraction(patch, "b")
        a_tree = sample_forest_containing_a_edges(a, 0)
        b_tree = sample_forest_containing_a_edges(b, 0)
        assert a_tree is not b_tree
        assert sample_forest_containing_a_edges(b, 5) is b_tree is b._tree
        assert sample_forest_containing_a_edges(a, 5) is a_tree is a._tree
        assert [f.name for f in dataclasses.fields(patch)] == [
            "spec", "gens", "radius", "vertices", "level_sizes"
        ]

    def test_shared_tree_builds_its_edge_set_once(self, monkeypatch):
        """Every audit of the shared tree reads one edge set, and an audit
        builds no other set of its own in the forest module."""
        spec = free_group(3)
        patch = ball(spec, 3)
        built = []

        def counted(items=()):
            built.append(items)
            return frozenset(items)

        monkeypatch.setattr(forest_module, "frozenset", counted, raising=False)
        e, ts = spec.identity(), rank3_translators(spec)
        contraction = a_edge_contraction(patch, "a")
        for seed in range(10):
            forest = sample_forest_containing_a_edges(contraction, seed)
            assert audit_counting_argument(patch, forest, [e], [e], ts).all_passed
        assert built == [forest.edges]
        assert forest.edge_set == frozenset(forest.edges)

    def test_each_sample_with_cycles_is_validated_once(self, monkeypatch):
        contraction = a_edge_contraction(ball(free_abelian_group(3), 3), "a")
        assert not contraction.is_tree
        counts = counted_forest_calls(monkeypatch)
        samples = [sample_forest_containing_a_edges(contraction, s) for s in range(40)]
        assert counts == {"samples": 40, "union_finds": 40}
        assert "_tree" not in vars(contraction)
        assert len(set(samples)) > 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--group", "free:3", "--radius", "3"],
            ["--group", "abelian:3", "--radius", "4"],
            ["--group", "free:2", "--gens", "a=a,b=b,c=a b", "--radius", "4"],
        ],
        ids=["free3_r3", "abelian3_r4", "free2_triangles_r4"],
    )
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_audit_stdout_equals_oracle_sampler(self, monkeypatch, capsys, argv, seed):
        import paradec.cli as cli

        argv = ["forest-audit", *argv, "--samples", "6", "--seed", str(seed),
                "--format", "json"]
        code = main(argv)
        out = capsys.readouterr().out

        def oracle(contraction, seed):
            patch, a_symbol = contraction
            return sample_with_required_edges_oracle(
                len(patch.vertices), patch.simple_edges,
                patch_a_edges(patch, a_symbol), seed,
            )

        # the command's contraction becomes (patch, a-symbol), and the
        # oracle rebuilds the contraction from it on every draw
        monkeypatch.setattr(cli, "a_edge_contraction", lambda patch, a: (patch, a))
        monkeypatch.setattr(cli, "sample_forest_containing_a_edges", oracle)
        assert main(argv) == code
        assert capsys.readouterr().out == out


class TestKirchhoffOracle:
    def test_known_counts(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        square = [(0, 1), (1, 2), (2, 3), (0, 3)]
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert kirchhoff_count(3, triangle) == 3
        assert kirchhoff_count(4, square) == 4
        assert kirchhoff_count(4, k4) == 16

    def test_multigraph_counts(self):
        # two vertices, two parallel edges: two spanning trees
        assert kirchhoff_count(2, [(0, 1), (0, 1)]) == 2


def rank3_translators(spec):
    return TranslatingSets.from_words(spec, "1,a", "1,b,c")


class TestAudit:
    def test_hand_computed_single_point(self):
        spec = free_group(3)
        patch = ball(spec, 3)
        forest = a_edge_forest(patch, 0)
        e = spec.identity()
        audit = audit_counting_argument(
            patch, forest, [e], [e], rank3_translators(spec)
        )
        assert len(audit.e) == 6
        assert len(audit.e1) == 3
        assert len(audit.e2) == 2
        assert len(audit.e3) == 1
        assert len(audit.lambda_vertices) == 4
        assert len(audit.lambda_edges) == 3
        assert audit.all_passed
        assert ledger_entry(audit, "vertices_exceed_edges").passed
        assert ledger_entry(audit, "doubling_conclusion").lhs == 4

    def test_empty_a1_still_passes(self):
        spec = free_group(3)
        patch = ball(spec, 3)
        forest = a_edge_forest(patch, 1)
        audit = audit_counting_argument(
            patch, forest, [], [spec.identity()], rank3_translators(spec)
        )
        assert audit.e3 == ()
        assert audit.all_passed
        assert len(audit.lambda_vertices) >= 1

    def test_both_empty_rejected(self):
        spec = free_group(3)
        patch = ball(spec, 2)
        forest = a_edge_forest(patch, 0)
        with pytest.raises(ValueError):
            audit_counting_argument(patch, forest, [], [], rank3_translators(spec))

    def test_boundary_a2_escapes(self):
        spec = free_group(3)
        patch = ball(spec, 2)
        forest = a_edge_forest(patch, 0)
        boundary = [w for w in patch.vertices if len(w) == 2][0]
        with pytest.raises(PatchEscapeError):
            audit_counting_argument(
                patch, forest, [], [boundary], rank3_translators(spec)
            )

    def test_wrong_shape_rejected(self):
        spec = free_group(3)
        patch = ball(spec, 2)
        forest = a_edge_forest(patch, 0)
        short = TranslatingSets.from_words(spec, "1,a", "1,b")
        with pytest.raises(ValueError):
            audit_counting_argument(patch, forest, [()], [()], short)
        not_gens = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
        with pytest.raises(ValueError):
            audit_counting_argument(patch, forest, [()], [()], not_gens)

    def test_overlapping_a1_a2_still_sound(self):
        # shared elements put the a-edge in both E1 and E3; the chain only
        # needs E2 and E3 disjoint, which keeps holding
        spec = free_group(3)
        patch = ball(spec, 3)
        forest = a_edge_forest(patch, 2)
        interior = [w for w in patch.vertices if len(w) <= 2]
        a1 = interior[:4]
        a2 = interior[:6]
        audit = audit_counting_argument(patch, forest, a1, a2, rank3_translators(spec))
        assert audit.all_passed
        assert ledger_entry(audit, "e2_e3_disjoint").passed

    def test_grid_audit_records_failed_degree_hypothesis(self):
        # with this seed the sampled tree leaves the identity with degree
        # below 5 in the Z^3 ball: the degree entry fails honestly while
        # the structural entries still hold
        spec = free_abelian_group(3)
        gens = standard_gens(spec)
        patch = enumerate_ball(spec, gens, 2)
        forest = a_edge_forest(patch, 0)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        e = spec.identity()
        audit = audit_counting_argument(patch, forest, [e], [e], ts)
        assert not ledger_entry(audit, "degree_sum").passed
        assert ledger_entry(audit, "e1_lower").passed
        assert ledger_entry(audit, "lambda_forest").passed
        assert ledger_entry(audit, "vertices_exceed_edges").passed
        assert not audit.all_passed
        ledger = audit.to_jsonable(spec.format_element)["ledger"]
        assert next(c for c in ledger if c["name"] == "degree_sum")["passed"] is False

    def test_audits_form_no_product(self, monkeypatch, capsys):
        """The bench's forest-audit call forms no group product: the
        patch's neighbour table is read off the shortlex numbering of the
        free tree, and every fact of its 40 audits is a table entry."""
        import paradec.cli as cli

        factors = record_products(monkeypatch)
        audit, during = cli.audit_counting_argument, []

        def counted(*args):
            before = len(factors)
            result = audit(*args)
            during.append(len(factors) - before)
            return result

        monkeypatch.setattr(cli, "audit_counting_argument", counted)
        argv = ["forest-audit", "--group", "free:3", "--radius", "5",
                "--samples", "40", "--seed", "1", "--format", "json"]
        assert main(argv) == 0
        assert len(during) == 40 and sum(during) == 0
        assert factors == []

    def test_unknown_ledger_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown ledger relation '<='"):
            InequalityCheck("degree_sum", 1, 5, "<=")


class TestInteriorDegreeThreshold:
    """Forest degree sums over interior sets A2, counted from the sampled
    edges, against the audit's threshold 5|A2|, and the audit's refusal of
    an A2 outside the interior."""

    def test_free3_interior_degree_is_exactly_six(self):
        spec = free_group(3)
        patch = ball(spec, 3)
        interior = [w for w in patch.vertices if len(w) <= 2]
        rng = random.Random(3)
        a2 = rng.sample(interior, 5)
        contraction = a_edge_contraction(patch, "a")
        for seed in range(10):
            sample = sample_forest_containing_a_edges(contraction, seed)
            assert degree_sum(sample, patch, a2) == 6 * len(a2)

    def test_grid_interior_degree_below_threshold(self):
        spec = free_abelian_group(2)
        patch = ball(spec, 3)
        interior = [v for v in patch.vertices if abs(v[0]) + abs(v[1]) <= 2]
        rng = random.Random(4)
        a2 = rng.sample(interior, 4)
        contraction = a_edge_contraction(patch, "a")
        for seed in range(1, 21):
            sample = sample_forest_containing_a_edges(contraction, seed)
            assert degree_sum(sample, patch, a2) <= 4 * len(a2) < 5 * len(a2)

    @pytest.mark.parametrize(
        "g,message",
        [
            ((1, 2, 3), "element a b c is not a patch vertex"),
            (
                (1, 2),
                "a b is not interior: its star leaves the patch; "
                "shrink A2 or grow the patch",
            ),
        ],
        ids=["not_a_vertex", "boundary"],
    )
    def test_escape_messages_match_the_audit(self, g, message):
        spec = free_group(3)
        patch = ball(spec, 2)
        forest = a_edge_forest(patch, 0)
        with pytest.raises(PatchEscapeError) as audit:
            audit_counting_argument(patch, forest, [], [g], rank3_translators(spec))
        assert str(audit.value) == message
