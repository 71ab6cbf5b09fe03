"""The Hall graph of a ball of the free tree, numbered by shortlex arithmetic.

On a ball whose generators and inverses are single letters of the free
model, with every translator 1 or one of those letters, the right vertices
of ``check``, ``decompose`` and ``violate`` are numbered by their words'
places in the shortlex order of the whole tree instead of being formed and
interned; a word just outside the ball takes a dense slot after it, one
per vertex of the last level and letter translator.  These tests check
that numbering against the row-by-row oracle, by naming each index with
a product formed in the group, and check that the matching, the
alternating reach, the certificate and the violator equal those of the
interning path; a second group pins which path each input takes.
"""

import dataclasses
from itertools import accumulate

import pytest
from hypothesis import event, given, settings, strategies as st

from paradec import (
    Certificate,
    GeneratingSet,
    TranslatingSets,
    Violator,
    check_domain,
    enumerate_ball,
    free_group,
    minimal_violating_radius,
    parse_group_spec,
    verify_certificate,
)
import paradec.cli as cli
import paradec.doubling as doubling
from paradec.cayley import ShortlexTree, ball_levels, tree_letters
from paradec.matching import UNMATCHED, alternating_reachable

from helpers import certificate_pairs, record_products
from oracles import hall_graph_oracle, minimal_violating_radius_oracle

# A drawn radius is lowered until the ball one radius larger has at most
# this many vertices, which keeps each example small.
_NAMING_BALL_LIMIT = 5000


def _ball_size(m: int, radius: int) -> int:
    return 1 + sum(m * (m - 1) ** (level - 1) for level in range(1, radius + 1))


@st.composite
def tree_cases(draw):
    """(spec, gens, ts, radius): free:1-free:4 or free:30; the standard
    letters, all of them permuted with random signs, or a few of them,
    possibly repeated or inverted under another name; each S_i up to four
    of 1 and the tree's letters; radius 0-6."""
    rank = draw(st.sampled_from([1, 2, 3, 4, 30]), label="rank")
    spec = free_group(rank)
    kind = draw(st.sampled_from(["standard", "permuted", "partial"]), label="gens")
    if kind == "standard":
        gens = GeneratingSet.standard(spec)
    else:
        indices = list(range(1, rank + 1))
        if kind == "permuted":
            chosen = draw(st.permutations(indices), label="order")
        else:
            chosen = draw(
                st.lists(st.sampled_from(indices), min_size=1, max_size=4), label="subset"
            )
        signs = draw(
            st.lists(st.sampled_from([1, -1]), min_size=len(chosen), max_size=len(chosen)),
            label="signs",
        )
        gens = GeneratingSet(
            tuple(
                (f"x{i}", (sign * letter,))
                for i, (letter, sign) in enumerate(zip(chosen, signs))
            )
        )
    letters = tree_letters(spec, gens)
    pool = [spec.identity()] + [(t,) for t in letters]
    translators = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    sides = [tuple(draw(translators, label=side)) for side in ("s1", "s2")]
    radius = draw(st.integers(min_value=0, max_value=6), label="radius")
    while radius and _ball_size(len(letters), radius + 1) > _NAMING_BALL_LIMIT:
        radius -= 1
    return spec, gens, TranslatingSets(*sides), radius


def _batchings(spec, gens, radius):
    """The ball in one batch, as ``check`` builds it, and level by level,
    as ``violate`` does."""
    levels = list(ball_levels(spec, gens, radius))
    return [[g for level in levels for g in level]], levels


def _namer(spec, ts, levels, n):
    """Names the right indices of a tree graph whose ball is the first n
    vertices of ``levels``: an index below n is that vertex, and n + j·L +
    i is the product, formed in the group, of the j-th vertex of the last
    level and the i-th of the L distinct letter translators, ascending."""
    sizes = list(accumulate(map(len, levels)))
    ball = [g for level in levels[: sizes.index(n) + 1] for g in level]
    last = levels[sizes.index(n)]
    outside = sorted(s[0] for s in set(ts.s1 + ts.s2) if s)

    def name(j):
        if j < n:
            return ball[j]
        q, i = divmod(j - n, len(outside))
        return spec.multiply(last[q], (outside[i],))

    name.num_right = n + len(last) * len(outside)
    return name


def _matched_elements(lefts, name, pair_left):
    return [(left, None if j == UNMATCHED else name(j)) for left, j in zip(lefts, pair_left)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=tree_cases())
def test_tree_rows_equal_the_row_by_row_oracle(case):
    """Every index names the product that the oracle forms, inside the
    ball or in its slot just outside; the right side is the ball and those
    slots, and the graph forms no product and interns nothing."""
    spec, gens, ts, radius = case
    letters = tree_letters(spec, gens)
    levels = list(ball_levels(spec, gens, radius))
    for batches in _batchings(spec, gens, radius):
        graph = doubling._HallGraph(spec, ts, ShortlexTree(letters))
        for built in range(1, len(batches) + 1):
            graph.extend(batches[built - 1])
            lefts, rows = hall_graph_oracle(spec, ts, batches[:built])
            name = _namer(spec, ts, levels, len(graph.vertices))
            assert graph.lefts == lefts
            assert [[name(j) for j in row] for row in graph.adjacency] == rows
            assert max(j for row in graph.adjacency for j in row) < graph.num_right
            assert graph.num_right == name.num_right
            assert graph.right_index == {}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=tree_cases())
def test_tree_graph_matches_like_the_interning_graph(case):
    """Warm-started after each batch, both numberings pair the same
    elements and leave the same alternating reach, and end in the same
    certificate, record included, or the same violator."""
    spec, gens, ts, radius = case
    letters = tree_letters(spec, gens)
    levels = list(ball_levels(spec, gens, radius))
    for batches in _batchings(spec, gens, radius):
        tree = doubling._HallGraph(spec, ts, ShortlexTree(letters))
        interned = doubling._HallGraph(spec, ts)
        for batch in batches:
            tree.extend(batch)
            interned.extend(batch)
            ours = tree.match()
            theirs = interned.match()
            name = _namer(spec, ts, levels, len(tree.vertices))
            right = list(interned.right_index)
            assert _matched_elements(tree.lefts, name, ours[0]) == (
                _matched_elements(interned.lefts, right.__getitem__, theirs[0])
            )
            assert (
                alternating_reachable(tree.adjacency, *ours)[0]
                == alternating_reachable(interned.adjacency, *theirs)[0]
            )
        if UNMATCHED in ours[0]:
            assert tree.violator(*ours) == interned.violator(*theirs)
        elif len(batches) == 1:
            # a certificate is read off a graph extended once, whose rows
            # are copy 1's and then copy 2's, as check_domain builds it
            cert, expected = tree.certificate(ours[0]), interned.certificate(theirs[0])
            assert (cert.domain, cert.translators) == (
                expected.domain,
                expected.translators,
            )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=tree_cases())
def test_check_domain_on_the_tree_equals_the_hand_given_domain(case):
    """``check_domain`` on the patch takes the tree path; on its vertices,
    a hand-given domain, the interning path.  Both give the same verdict,
    a certificate the same domain and labels, and a certificate is the one
    that verifying its pairs finds."""
    spec, gens, ts, radius = case
    patch = enumerate_ball(spec, gens, radius)
    verdict = check_domain(spec, ts, patch)
    event(f"{type(verdict).__name__} at radius {radius}")
    expected = check_domain(spec, ts, patch.vertices)
    # a certificate is equal exactly when its domain and labels are
    assert verdict == expected
    if isinstance(verdict, Certificate):
        assert verify_certificate(spec, ts, *certificate_pairs(spec, verdict)) == verdict


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=tree_cases())
def test_minimal_violating_radius_on_the_tree_equals_the_oracle(case):
    spec, gens, ts, radius = case
    assert minimal_violating_radius(spec, gens, ts, radius) == (
        minimal_violating_radius_oracle(spec, gens, ts, radius)
    )


# (group, gens, S1, S2, radius, expected): a certificate, violators on the
# whole ball and at the first radius that has one, and permuted letters.
_KNOWN = [
    ("free:3", None, "1,a", "1,b,c", 4, "certificate"),
    ("free:2", None, "1,a", "1,a^-1", 4, "violator"),
    ("free:2", None, "a", "b,b^-1", 4, "violator"),
    ("free:2", "a=b,b=a", "1,a", "1,b,b^-1", 3, "certificate"),
    ("free:1", None, "1,a", "1,a^-1", 5, "violator"),
    ("free:4", "a=d^-1,b=a", "1,a", "1,b,b^-1", 3, "certificate"),
    ("free:30", None, "1,g1", "1,g2,g12", 2, "certificate"),
    ("free:4", None, "1,a,d^-1", "b,c^-1", 3, "certificate"),
]


@pytest.mark.parametrize(
    "group,text,s1,s2,radius,kind", _KNOWN, ids=[f"{c[0]}[{c[2]}|{c[3]}]" for c in _KNOWN]
)
def test_known_verdicts_on_the_tree(group, text, s1, s2, radius, kind):
    spec = parse_group_spec(group)
    gens = cli._parse_generator_overrides(spec, text)
    ts = TranslatingSets.from_words(spec, s1, s2, symbols=gens.mapping())
    patch = enumerate_ball(spec, gens, radius)
    verdict = check_domain(spec, ts, patch)
    assert type(verdict) is {"certificate": Certificate, "violator": Violator}[kind]
    assert verdict == check_domain(spec, ts, patch.vertices)
    assert minimal_violating_radius(spec, gens, ts, radius) == (
        minimal_violating_radius_oracle(spec, gens, ts, radius)
    )


# (group, gens, S1, S2, path) for check_domain on a patch and for violate;
# the translators are written in the group's own letters.
_PATHS = [
    ("free:3", None, "1,a", "1,b,c", "tree"),
    ("free:2", "a=b,b=a", "1,a", "1,b,b^-1", "tree"),
    ("free:3", "a=a,b=a^-1", "1,a", "a^-1", "tree"),
    ("free:3", None, "1,a^2", "1,b", "interned"),
    ("free:3", None, "1,a b", "1,c", "interned"),
    ("free:3", "a=a,b=b", "1,a", "1,c", "interned"),
    ("free:2", "a=a,b=b,c=a b", "1,a", "1,b", "interned"),
    ("free:2", "a=1,b=b", "1,b", "1,b^-1", "interned"),
    ("abelian:2", None, "1,a", "1,b,a b", "interned"),
    ("cyclic:12", None, "1,a^6", "1,a^4,a^8", "interned"),
    ("sl2z", None, "1,A", "1,B", "interned"),
]


def _record_paths(monkeypatch) -> list:
    """The names of the column builders that the Hall graph calls, in
    order."""
    taken = []
    for name in ("_tree_columns", "_interned_columns"):
        build = getattr(doubling._HallGraph, name)

        def spy(self, *args, build=build, name=name):
            taken.append(name)
            return build(self, *args)

        monkeypatch.setattr(doubling._HallGraph, name, spy)
    return taken


@pytest.mark.parametrize("group,text,s1,s2,path", _PATHS,
                         ids=[f"{c[0]}[{c[1] or 'standard'}|{c[2]}|{c[3]}]" for c in _PATHS])
def test_each_input_takes_its_path(monkeypatch, group, text, s1, s2, path):
    """The tree path needs a ball of the free tree and translators that
    are 1 or its letters: a translator of two letters, a letter outside
    the tree's, a searched ball and the other models take the interning
    path.  A hand-given domain always does."""
    taken = _record_paths(monkeypatch)
    spec = parse_group_spec(group)
    gens = cli._parse_generator_overrides(spec, text)
    ts = TranslatingSets.from_words(spec, s1, s2)
    patch = enumerate_ball(spec, gens, 2)
    expected = "_tree_columns" if path == "tree" else "_interned_columns"
    check_domain(spec, ts, patch)
    assert taken == [expected]
    taken.clear()
    minimal_violating_radius(spec, gens, ts, 2)
    assert taken and set(taken) == {expected}
    taken.clear()
    check_domain(spec, ts, patch.vertices)
    assert taken == ["_interned_columns"]


def test_check_domain_refuses_a_patch_of_another_group():
    patch = enumerate_ball(free_group(2), GeneratingSet.standard(free_group(2)), 1)
    spec = free_group(3)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b")
    with pytest.raises(ValueError, match="another group"):
        check_domain(spec, ts, patch)


def test_a_tree_batch_must_end_on_a_whole_level():
    spec = free_group(2)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b")
    graph = doubling._HallGraph(
        spec, ts, ShortlexTree(tree_letters(spec, GeneratingSet.standard(spec)))
    )
    with pytest.raises(ValueError, match="whole level"):
        graph.extend(enumerate_ball(spec, GeneratingSet.standard(spec), 2).vertices[:3])


def test_an_empty_batch_keeps_the_tree_graph():
    """Extending by no vertices leaves the words just outside the ball in
    their slots, so the next level still joins as the oracle says."""
    spec = free_group(2)
    gens = GeneratingSet.standard(spec)
    ts = TranslatingSets.from_words(spec, "1,a", "1,a^-1")
    levels = list(ball_levels(spec, gens, 2))
    graph = doubling._HallGraph(spec, ts, ShortlexTree(tree_letters(spec, gens)))
    for level in levels:
        graph.extend(level)
        graph.match()
        graph.extend([])
    name = _namer(spec, ts, levels, len(graph.vertices))
    assert [[name(j) for j in row] for row in graph.adjacency] == (
        hall_graph_oracle(spec, ts, levels)[1]
    )
    pair_left, pair_right = graph.match()
    assert graph.violator(pair_left, pair_right) == check_domain(
        spec, ts, enumerate_ball(spec, gens, 2).vertices
    )


def test_tree_graph_forms_no_product(monkeypatch):
    """On the radius-6 ball of free:3 the tarski-free3 graph is numbered
    without forming a product, whole or level by level."""
    spec = free_group(3)
    gens = GeneratingSet.standard(spec)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    calls = record_products(monkeypatch)
    for batches in _batchings(spec, gens, 6):
        graph = doubling._HallGraph(spec, ts, ShortlexTree(tree_letters(spec, gens)))
        for batch in batches:
            graph.extend(batch)
        assert len(graph.adjacency) == 2 * 23_437
    assert calls == []


def _reorder(patch, change):
    vertices = list(patch.vertices)
    sizes = list(patch.level_sizes)
    change(vertices, sizes)
    return dataclasses.replace(patch, vertices=tuple(vertices), level_sizes=tuple(sizes))


def _swap(i, j):
    def change(vertices, sizes):
        vertices[i], vertices[j] = vertices[j], vertices[i]

    return change


def _repeat(i, j):
    def change(vertices, sizes):
        vertices[j] = vertices[i]

    return change


def _lengthen(i, letter):
    def change(vertices, sizes):
        vertices[i] += (letter,)

    return change


def _merge_last_levels(vertices, sizes):
    sizes[-2:] = [sizes[-2] + sizes[-1]]


# free:2's radius-3 ball: levels of 1, 4, 12 and 36 words from index 0, 1,
# 5 and 17 on; level 1 is b^-1, a^-1, a, b
_REORDERED = {
    "level-1-swapped": _swap(1, 4),
    "longer-word": _lengthen(3, 2),
    "across-levels": _swap(16, 17),
    "repeated-word": _repeat(17, 18),
    # b^-1 a^2 and b^2 a, each the middle of its three siblings
    "middle-words-swapped": _swap(24, 51),
    "sizes-merged": _merge_last_levels,
}


@pytest.mark.parametrize("change", _REORDERED.values(), ids=_REORDERED.keys())
def test_a_patch_out_of_shortlex_order_takes_the_interning_path(monkeypatch, change):
    """The tree numbering reads a patch's vertices as its levels in
    shortlex order; a patch built otherwise is taken in element order on
    the interning path, as a hand-given domain is."""
    spec = free_group(2)
    gens = GeneratingSet.standard(spec)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,b^-1")
    patch = enumerate_ball(spec, gens, 3)
    assert patch.tree is not None
    reordered = _reorder(patch, change)
    assert reordered.tree is None
    taken = _record_paths(monkeypatch)
    assert check_domain(spec, ts, reordered) == check_domain(spec, ts, reordered.vertices)
    assert taken == ["_interned_columns", "_interned_columns"]


@pytest.mark.parametrize("rank", [300, 10_000])
def test_right_side_of_a_high_rank_ball_stays_within_its_translators(rank):
    """On a ball of rank m the words just outside number |last level|·(m-1),
    but the right side holds only those that a translator reaches: the
    ball and one slot per vertex of its last level and letter translator,
    within |D|·|S| + |D|."""
    spec = free_group(rank)
    gens = GeneratingSet.standard(spec)
    ts = TranslatingSets.from_words(spec, "1,g1", "1,g2")
    patch = enumerate_ball(spec, gens, 1)
    size = len(patch.vertices)
    graph = doubling._HallGraph(spec, ts, ShortlexTree(tree_letters(spec, gens)))
    graph.extend(patch.vertices)
    assert graph.num_right == size + patch.level_sizes[-1] * 2
    assert graph.num_right <= size * 3 + size
    verdict = check_domain(spec, ts, patch)
    assert verdict == check_domain(spec, ts, patch.vertices)


def test_warm_start_on_a_high_rank_ball_equals_the_oracle():
    """Level by level on free:30 the slots just outside the ball become the
    next level's vertices, and the warm-started search still answers as
    the per-radius oracle."""
    spec = free_group(30)
    gens = GeneratingSet.standard(spec)
    for s1, s2 in (("1,g1", "1,g1^-1"), ("g1", "g2,g2^-1"), ("1,g1", "1,g2,g3")):
        ts = TranslatingSets.from_words(spec, s1, s2)
        assert minimal_violating_radius(spec, gens, ts, 2) == (
            minimal_violating_radius_oracle(spec, gens, ts, 2)
        )
