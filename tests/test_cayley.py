from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    GeneratingSet,
    cayley,
    cli,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    matrix_group,
    parse_group_spec,
    product_set,
    spec_to_string,
)
from paradec.cayley import _free_tree_levels, _searched_levels, ball_levels
from paradec.errors import VertexBudgetError
from paradec.groups import GroupSpec

from helpers import (
    EDGE_CASE_GENERATORS,
    all_model_specs,
    edge_case_patches,
    record_products,
    standard_gens,
)
from oracles import (
    ball_edges_oracle,
    ball_oracle,
    interior_oracle,
    simple_edges_oracle,
    sphere_oracle,
)

EDGE_CASES = edge_case_patches()


class _Unread:
    """Stands in for a radius-3 word that must not be read."""

    def __getitem__(self, index):
        raise AssertionError("read a word of radius 3")

    __add__ = __getitem__


class TestEnumerateBall:
    def test_radius_zero_single_vertex(self):
        spec = free_group(3)
        patch = enumerate_ball(spec, standard_gens(spec), 0)
        assert len(patch.vertices) == 1
        assert patch.vertices[0] == spec.identity()
        assert patch.distances == (0,)

    def test_free2_radius1_has_5_vertices(self):
        spec = free_group(2)
        patch = enumerate_ball(spec, standard_gens(spec), 1)
        assert len(patch.vertices) == 5

    def test_abelian1_radius3(self):
        spec = free_abelian_group(1)
        patch = enumerate_ball(spec, standard_gens(spec), 3)
        assert set(patch.vertices) == {(k,) for k in range(-3, 4)}

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_matches_bfs_oracle(self, spec):
        gens = standard_gens(spec)
        elements = [el for _, el in gens.pairs]
        for radius in range(4):
            patch = enumerate_ball(spec, gens, radius)
            assert set(patch.vertices) == ball_oracle(spec, elements, radius)

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_ball_monotone_in_radius(self, spec):
        gens = standard_gens(spec)
        previous = set()
        for radius in range(4):
            current = set(enumerate_ball(spec, gens, radius).vertices)
            assert previous <= current
            previous = current

    def test_abelian1_ball_size_formula(self):
        spec = free_abelian_group(1)
        gens = standard_gens(spec)
        for radius in range(7):
            assert len(enumerate_ball(spec, gens, radius).vertices) == 2 * radius + 1

    def test_budget_error(self):
        spec = free_group(2)
        with pytest.raises(VertexBudgetError):
            enumerate_ball(spec, standard_gens(spec), 4, vertex_budget=10)

    def test_budget_error_comes_one_star_past_the_budget(self, monkeypatch):
        """On a generating set that is searched, the budget is checked after
        every vertex's star, not after the whole level: free:2 with
        c = a b has spheres 1, 6, 24, 96, ..., and a radius-5 vertex counts
        5 * 2 letters.  With a budget of 128 such vertices, one above the
        radius-3 ball (127 elements), the first radius-3 vertex expanded
        overflows it, so the error comes after the radius-2 ball's 31 stars
        plus one, where finishing the level would take 127."""
        spec = free_group(2)
        gens = cli._parse_generator_overrides(spec, "a=a,b=b,c=a b")
        assert [len(level) for level in ball_levels(spec, gens, 3)] == [1, 6, 24, 96]
        calls = record_products(monkeypatch)
        with pytest.raises(VertexBudgetError) as exc:
            enumerate_ball(spec, gens, 5, vertex_budget=128 * 10)
        assert str(exc.value) == (
            "ball of radius 4 exceeds the vertex budget 1280 at 10 letters per vertex"
        )
        assert len(calls) == (31 + 1) * 6

    @pytest.mark.parametrize("vertices,fits", [(188, False), (188 + 750, True)])
    def test_tree_path_refuses_the_overflowing_level_before_forming_it(
        self, monkeypatch, vertices, fits
    ):
        """Over the standard basis of free:3 the radius-4 level (750 words)
        is built from the radius-3 words, which the test replaces once they
        are yielded.  A radius-5 vertex counts 5 letters.  A budget of 188
        such vertices, one above the radius-3 ball (187 elements), refuses
        the level with the search path's message before any of its words is
        formed, so the replaced words are never read; a budget of 938
        admits the level and reads them.  No product is formed at all."""
        spec = free_group(3)
        calls = record_products(monkeypatch)
        budget = vertices * 5
        levels = ball_levels(spec, standard_gens(spec), 5, vertex_budget=budget)
        for _ in range(4):
            level = next(levels)
        level[:] = [_Unread()] * len(level)
        if fits:
            with pytest.raises(AssertionError, match="read a word of radius 3"):
                next(levels)
        else:
            with pytest.raises(VertexBudgetError) as exc:
                next(levels)
            assert str(exc.value) == (
                "ball of radius 4 exceeds the vertex budget 940 at 5 letters per vertex"
            )
        assert calls == []

    def test_budget_error_on_a_large_level_is_prompt(self, monkeypatch):
        # radius 8 of free:3 holds 586k elements of up to 8 letters; the
        # radius-7 ball (117,187) fits a budget of 120,000 such vertices, and
        # the eighth level is refused before it is built: O(budget * |S|)
        # multiplies at most, none on this tree path
        spec = free_group(3)
        calls = record_products(monkeypatch)
        with pytest.raises(
            VertexBudgetError,
            match="radius 8 exceeds the vertex budget 960000 at 8 letters per vertex",
        ):
            enumerate_ball(spec, standard_gens(spec), 8, vertex_budget=120_000 * 8)
        assert len(calls) <= (23_437 + 600) * 6

    def test_levels_are_sorted_spheres(self):
        for spec in all_model_specs():
            gens = standard_gens(spec)
            levels = list(ball_levels(spec, gens, 3))
            assert [len(level) for level in levels] == [
                n for n in sphere_oracle(spec, [el for _, el in gens.pairs], 3) if n
            ]
            for level in levels:
                assert level == sorted(level, key=spec.element_sort_key)

    def test_deterministic_indexing(self):
        spec = free_group(2)
        gens = standard_gens(spec)
        first = enumerate_ball(spec, gens, 3)
        second = enumerate_ball(spec, gens, 3)
        assert first.vertices == second.vertices
        assert first.edges == second.edges

    @pytest.mark.parametrize(
        "spec,radius",
        [
            (free_group(3), 3),
            (free_abelian_group(3), 2),
            (cyclic_group(7), 2),
            (matrix_group(), 2),
        ],
        ids=["free3-r3", "ab3-r2", "cyc7-r2", "sl2z-r2"],
    )
    def test_interior_matches_multiply_definition(self, spec, radius):
        gens = standard_gens(spec)
        patch = enumerate_ball(spec, gens, radius)
        view = gens.symmetrized(spec)
        expected = tuple(
            v for v in patch.vertices
            if all(spec.multiply(v, t) in patch for _, _, t in view)
        )
        assert expected and expected != patch.vertices
        assert patch.interior == expected
        assert patch.interior is patch.interior

    def test_identity_is_vertex_zero_and_no_duplicates(self):
        for spec in all_model_specs():
            patch = enumerate_ball(spec, standard_gens(spec), 2)
            assert patch.vertices[0] == spec.identity()
            assert len(set(patch.vertices)) == len(patch.vertices)


class TestEdges:
    def test_lazy_edges_match_eager_oracle(self):
        for spec in all_model_specs():
            for radius in (0, 1, 3):
                patch = enumerate_ball(spec, standard_gens(spec), radius)
                assert "edges" not in vars(patch)
                assert patch.edges == ball_edges_oracle(patch)
                assert patch.edges is patch.edges

    def test_edges_of_custom_generators_match_eager_oracle(self):
        spec = free_abelian_group(2)
        gens = GeneratingSet.from_pairs(
            spec, [("a", (1, 0)), ("d", (1, 1)), ("e", (-1, -1))]
        )
        patch = enumerate_ball(spec, gens, 3)
        assert patch.edges == ball_edges_oracle(patch)

    def test_edges_are_products(self):
        for spec in all_model_specs():
            gens = standard_gens(spec)
            patch = enumerate_ball(spec, gens, 2)
            by_label = {
                (sym, sign): el for sym, sign, el in gens.symmetrized(spec)
            }
            for u, sym, sign, v in patch.edges:
                assert patch.vertices[v] == spec.multiply(
                    patch.vertices[u], by_label[(sym, sign)]
                )

    def test_distances_satisfy_triangle_property(self):
        for spec in all_model_specs():
            patch = enumerate_ball(spec, standard_gens(spec), 3)
            for u, _, _, v in patch.edges:
                assert abs(patch.distances[u] - patch.distances[v]) <= 1

    def test_edge_symmetry(self):
        for spec in all_model_specs():
            gens = standard_gens(spec)
            patch = enumerate_ball(spec, gens, 2)
            by_label = {
                (sym, sign): el for sym, sign, el in gens.symmetrized(spec)
            }
            reversed_pairs = {(v, u) for u, _, _, v in patch.edges}
            for u, sym, sign, v in patch.edges:
                assert (v, u) in reversed_pairs
                inverse = spec.invert(by_label[(sym, sign)])
                assert any(
                    by_label[(s2, g2)] == inverse
                    for a, s2, g2, b in patch.edges
                    if (a, b) == (v, u)
                )

    def test_free_patches_are_forests(self):
        # the Cayley graph of a free group on free generators is a tree
        for rank in (2, 3):
            spec = free_group(rank)
            patch = enumerate_ball(spec, standard_gens(spec), 3)
            edges = patch.simple_edges
            assert len(edges) == len(patch.vertices) - 1
            parent = list(range(len(patch.vertices)))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                ru, rv = find(u), find(v)
                assert ru != rv
                parent[ru] = rv


class TestSphereSizes:
    def test_free3_radius2(self):
        spec = free_group(3)
        assert enumerate_ball(spec, standard_gens(spec), 2).level_sizes == (1, 6, 30)

    def test_abelian2_radius2(self):
        spec = free_abelian_group(2)
        assert enumerate_ball(spec, standard_gens(spec), 2).level_sizes == (1, 4, 8)

    def test_radius_zero(self):
        for spec in all_model_specs():
            assert enumerate_ball(spec, standard_gens(spec), 0).level_sizes == (1,)

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_matches_oracle(self, spec):
        gens = standard_gens(spec)
        elements = [el for _, el in gens.pairs]
        sizes = list(enumerate_ball(spec, gens, 3).level_sizes)
        assert sizes == sphere_oracle(spec, elements, 3)

    def test_whole_finite_group_keeps_a_larger_radius(self):
        spec = cyclic_group(7)
        patch = enumerate_ball(spec, standard_gens(spec), 5)
        assert patch.radius == 5
        assert patch.level_sizes == (1, 2, 2, 2)


_LAZY_FACTS = ("_index", "distances", "neighbours", "edges", "simple_edges", "interior")


class TestLazyFacts:
    """A patch stores its vertices and level sizes; every other fact is a
    ``cached_property``, built on the first read and kept."""

    @pytest.mark.parametrize("name", _LAZY_FACTS)
    def test_built_on_first_read_and_kept(self, name):
        spec = free_group(2)
        patch = enumerate_ball(spec, standard_gens(spec), 2)
        assert not set(_LAZY_FACTS) & set(vars(patch))
        first = getattr(patch, name)
        assert name in vars(patch)
        assert getattr(patch, name) is first

    @pytest.mark.parametrize("command", ["check", "decompose"])
    @pytest.mark.parametrize(
        "group,s1,s2,code",
        [("free:3", "1,a", "1,b,c", 0), ("abelian:2", "1,a", "1,b", 1)],
        ids=["certificate", "violator"],
    )
    def test_check_and_decompose_build_none(
        self, monkeypatch, capsys, command, group, s1, s2, code
    ):
        patches = []

        def recording(*args):
            patches.append(enumerate_ball(*args))
            return patches[-1]

        monkeypatch.setattr(cli, "enumerate_ball", recording)
        argv = [command, "--group", group, "--s1", s1, "--s2", s2, "--radius", "3"]
        assert cli.main(argv) == code
        capsys.readouterr()
        (patch,) = patches
        assert [name for name in _LAZY_FACTS if name in vars(patch)] == []

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_distances_and_sphere_sizes_count_the_levels(self, spec):
        """The per-vertex level of :func:`ball_levels`, and its count per
        level, as the patch once stored and counted them."""
        gens = standard_gens(spec)
        elements = [el for _, el in gens.pairs]
        balls = [ball_oracle(spec, elements, r) for r in range(5)]
        for radius in range(5):
            patch = enumerate_ball(spec, gens, radius)
            distances = [
                level
                for level, sphere in enumerate(ball_levels(spec, gens, radius))
                for _ in sphere
            ]
            assert patch.distances == tuple(distances)
            counts = [0] * (max(distances) + 1)
            for d in distances:
                counts[d] += 1
            assert list(patch.level_sizes) == counts
            assert counts == sphere_oracle(spec, elements, radius)
            for v, d in zip(patch.vertices, patch.distances):
                assert v in balls[d] and (d == 0 or v not in balls[d - 1])


class TestProductSet:
    def test_identity_times_identity(self):
        spec = free_group(2)
        e = spec.identity()
        assert product_set(spec, [e], [e]) == frozenset([e])

    def test_abelian_interval(self):
        spec = free_abelian_group(1)
        result = product_set(spec, [(0,), (1,)], [(0,), (1,)])
        assert result == frozenset([(0,), (1,), (2,)])

    def test_free_size_four(self):
        spec = free_group(2)
        result = product_set(spec, [(), (1,)], [(), (2,)])
        assert result == frozenset([(), (2,), (1,), (1, 2)])
        assert len(result) == 4

    def test_results_may_leave_any_ball(self):
        spec = free_abelian_group(1)
        result = product_set(spec, [(3,)], [(3,)])
        assert result == frozenset([(6,)])


@pytest.mark.parametrize(
    "patch", [c[1] for c in EDGE_CASES], ids=[c[0] for c in EDGE_CASES]
)
class TestNeighbourTable:
    """The table and its views against the edge-list derivations they
    replaced, on every model and on loops, parallel generators and
    involutions."""

    def test_rows_are_the_star_products(self, patch):
        spec, view = patch.spec, patch.gens.symmetrized(patch.spec)
        index = {v: i for i, v in enumerate(patch.vertices)}
        assert patch.neighbours == tuple(
            tuple(index.get(spec.multiply(u, s)) for _, _, s in view)
            for u in patch.vertices
        )

    def test_views_equal_the_edge_list_oracles(self, patch):
        edges = ball_edges_oracle(patch)
        assert patch.edges == edges
        assert patch.simple_edges == simple_edges_oracle(edges)
        assert patch.interior == interior_oracle(patch, edges)


# Generating sets of single free letters, closed under inversion once
# symmetrized, so their balls take the tree path: the standard basis,
# permuted, a subset, duplicated, an inverse under another name and a
# letter given as its inverse, on free:1 to free:4 where the names exist,
# and the two free edge cases of single letters.  (rank, "sym=word,...")
TREE_CASES = [
    (rank, text)
    for rank in range(1, 5)
    for text in [None, "a=b,b=a", "a=a,b=b", "a=a,b=a", "a=a,b=a^-1", "a=a^-1"]
    if "b" not in (text or "") or rank >= 2
] + [(2, "a=a,b=a,c=b"), (2, "a=a,b=a^-1,c=b")]
_TREE_IDS = [f"free{rank}[{text or 'standard'}]" for rank, text in TREE_CASES]


def _tree_case(rank, text):
    spec = free_group(rank)
    gens = cli._parse_generator_overrides(spec, text)
    return spec, [s for _, _, s in gens.symmetrized(spec)]


def _letters(steps):
    """The ascending letters of single-letter steps, as ``tree_letters``
    gives them to the tree path."""
    return tuple(sorted(s[0] for s in steps))


def _levels_then_outcome(levels):
    """The levels yielded before a budget error, and its message (None
    when every level fits)."""
    got = []
    try:
        for level in levels:
            got.append(level)
    except VertexBudgetError as exc:
        return got, str(exc)
    return got, None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_free_ball_vertices_fit_letters_per_vertex(data):
    """A vertex of a free ball stores at most ``letters_per_vertex``
    letters, over the standard basis, single-letter ``--gens`` and
    generators of several letters; over single letters a vertex of the
    last level reaches the bound, since no product of r letters cancels."""
    rank = data.draw(st.integers(min_value=1, max_value=3), label="rank")
    spec = free_group(rank)
    letter = st.sampled_from([f"{x}{e}" for x in "abc"[:rank] for e in ("", "^-1")])
    longest = data.draw(st.sampled_from([1, 3]), label="longest letters")
    word = st.lists(letter, min_size=1, max_size=longest).map(" ".join)
    words = data.draw(st.none() | st.lists(word, min_size=1, max_size=3), label="gens")
    text = None if words is None else ",".join(f"x{i}={w}" for i, w in enumerate(words))
    gens = cli._parse_generator_overrides(spec, text)
    radius = data.draw(st.integers(min_value=0, max_value=6), label="radius")
    width = cayley.letters_per_vertex(spec, gens, radius)
    stored = max(map(len, enumerate_ball(spec, gens, radius).vertices))
    assert stored <= width
    if all(len(x) == 1 for _, x in gens.pairs):
        assert stored == radius


class TestTreeLevels:
    """Over single free letters the levels are generated, not searched
    for; both paths give the same lists and the same budget errors."""

    @pytest.mark.parametrize("rank,text", TREE_CASES, ids=_TREE_IDS)
    def test_tree_levels_equal_the_searched_levels(self, rank, text):
        spec, steps = _tree_case(rank, text)
        assert all(len(s) == 1 for s in steps)
        for radius in range(7):
            searched = list(_searched_levels(spec, steps, radius, 10**9, 1))
            assert list(_free_tree_levels(spec, _letters(steps), radius, 10**9, 1)) == searched

    @pytest.mark.parametrize("rank,text", TREE_CASES, ids=_TREE_IDS)
    def test_budget_errors_match_at_every_level_boundary(self, rank, text):
        spec, steps = _tree_case(rank, text)
        sizes = [len(level) for level in _searched_levels(spec, steps, 6, 10**9, 1)]
        cumulative = list(accumulate(sizes))
        for width in (1, 200_000):
            for total in cumulative:
                for budget in (total * width, total * width - 1):
                    expected = _levels_then_outcome(
                        _searched_levels(spec, steps, 6, budget, width)
                    )
                    got = _levels_then_outcome(
                        _free_tree_levels(spec, _letters(steps), 6, budget, width)
                    )
                    assert got == expected, (width, budget)

    @pytest.mark.parametrize(
        "group,text", EDGE_CASE_GENERATORS, ids=[f"{g}[{t}]" for g, t in EDGE_CASE_GENERATORS]
    )
    def test_edge_case_generators_take_the_expected_path(self, monkeypatch, group, text):
        """An identity generator, a two-letter one and the other models are
        searched for; the two free edge cases whose generators are single
        letters (a duplicate and an inverse under another name) take the
        tree path, which the tests above compare with the search."""
        taken = []

        def recorded(name):
            path = getattr(cayley, name)

            def levels(*args):
                taken.append(name)
                return path(*args)

            return levels

        for name in ("_searched_levels", "_free_tree_levels"):
            monkeypatch.setattr(cayley, name, recorded(name))
        spec = parse_group_spec(group)
        enumerate_ball(spec, cli._parse_generator_overrides(spec, text), 2)
        letters = group == "free:2" and (2, text) in TREE_CASES
        assert taken == ["_free_tree_levels" if letters else "_searched_levels"]

    def test_standard_free3_ball_forms_no_product(self, monkeypatch):
        """The tarski-free3 chain's radius-6 ball neither searches nor
        multiplies: a refactor that falls back to the search fails here."""

        def forbidden(*args):
            raise AssertionError("the tree path formed a product")

        monkeypatch.setattr(GroupSpec, "star", forbidden)
        monkeypatch.setattr(GroupSpec, "multiply", forbidden)
        spec = free_group(3)
        patch = enumerate_ball(spec, standard_gens(spec), 6)
        assert patch.level_sizes == (1, 6, 30, 150, 750, 3750, 18750)


def test_edge_cases_have_loops_parallel_generators_and_involutions():
    patches = [patch for _, patch in EDGE_CASES]
    assert any(u == v for p in patches for u, _, _, v in p.edges)
    assert any(
        x == y or x == p.spec.invert(y)
        for p in patches
        for (_, x), (_, y) in combinations(p.gens.pairs, 2)
    )
    assert any(
        p.spec.invert(x) == x != p.spec.identity() for p in patches for _, x in p.gens.pairs
    )


class TestExports:
    def test_edge_list_text_shape(self):
        spec = cyclic_group(3)
        patch = enumerate_ball(spec, standard_gens(spec), 1)
        text = patch.to_edge_list_text()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# patch group=cyclic:3")
        vertex_lines = [l for l in lines if l.startswith("# vertex")]
        assert len(vertex_lines) == 3
        edge_lines = [l for l in lines if not l.startswith("#")]
        assert len(edge_lines) == len(patch.edges)
        for line in edge_lines:
            u, label, v = line.split("\t")
            assert u.isdigit() and v.isdigit()

    def test_symmetrized_collapses_duplicates(self):
        spec = cyclic_group(2)
        gens = GeneratingSet.standard(spec)
        view = gens.symmetrized(spec)
        # the generator is an involution: a == a^-1, so one entry survives
        assert len(view) == 1

    def test_duplicate_symbols_rejected(self):
        spec = free_group(2)
        with pytest.raises(ValueError):
            GeneratingSet.from_pairs(spec, [("a", (1,)), ("a", (2,))])


def test_trivial_cyclic_group_degenerates_gracefully():
    # order 1: the generator is the identity, so every edge is a loop
    spec = cyclic_group(1)
    patch = enumerate_ball(spec, standard_gens(spec), 2)
    assert len(patch.vertices) == 1
    assert patch.simple_edges == ()


def test_matrix_ball_growth_matches_free_pair():
    # the default matrix pair generates a rank-2 free subgroup, so small
    # balls have the same sizes as free(2) balls
    free_sizes = [
        len(enumerate_ball(free_group(2), standard_gens(free_group(2)), r).vertices)
        for r in range(4)
    ]
    spec = matrix_group()
    matrix_sizes = [
        len(enumerate_ball(spec, standard_gens(spec), r).vertices) for r in range(4)
    ]
    assert matrix_sizes == free_sizes
