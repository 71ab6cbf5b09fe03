"""The neighbours and the texts of a ball of the free tree, read off its
shortlex numbering.

On a ball whose generators and inverses are single letters of the free
model, generated level by level in shortlex order, ``CayleyPatch`` reads
each neighbour as a parent or a child by place and steps each vertex's
text from its parent's.  These tests check both against the star-and-
lookup oracle and ``format_element``, over standard, renamed and reordered
generators and a sub-basis; pin which path each input takes; and check
that the writers read the ball's texts only for a domain in its vertex
order.
"""

import dataclasses
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    Certificate,
    GeneratingSet,
    TranslatingSets,
    check_domain,
    enumerate_ball,
    free_group,
    parse_group_spec,
    patch_a_edges,
    verdict_to_jsonable,
)
import paradec.cli as cli
from paradec.cayley import CayleyPatch, ball_levels, tree_letters
from paradec.decomposition import decomposition_to_jsonable
from paradec.groups import GroupSpec

from oracles import (
    ball_edges_oracle,
    interior_oracle,
    neighbours_oracle,
    patch_a_edges_oracle,
    simple_edges_oracle,
)
from test_tree_numbering import _REORDERED, _record_paths, _reorder

# A drawn radius is lowered until the ball has at most this many vertices.
_BALL_LIMIT = 3000


@st.composite
def tree_balls(draw):
    """A ball of free:1-free:4 of radius 0-5 over the standard basis, the
    basis renamed and reordered with random signs (``x=b,y=a^-1``), or a
    sub-basis of it (``free:3`` on a, b)."""
    rank = draw(st.integers(min_value=1, max_value=4), label="rank")
    spec = free_group(rank)
    kind = draw(st.sampled_from(["standard", "reordered", "sub-basis"]), label="gens")
    if kind == "standard":
        gens = GeneratingSet.standard(spec)
    else:
        letters = draw(st.permutations(range(1, rank + 1)), label="order")
        if kind == "sub-basis":
            letters = letters[: draw(st.integers(1, rank), label="size")]
        signs = draw(
            st.lists(st.sampled_from([1, -1]), min_size=len(letters), max_size=len(letters)),
            label="signs",
        )
        symbols = draw(st.sampled_from(["xyzw", "abcd"]), label="symbols")
        gens = GeneratingSet(
            tuple(
                (symbols[i], (sign * letter,))
                for i, (letter, sign) in enumerate(zip(letters, signs))
            )
        )
    radius = draw(st.integers(min_value=0, max_value=5), label="radius")
    patch = enumerate_ball(spec, gens, radius)
    while len(patch.vertices) > _BALL_LIMIT:
        radius -= 1
        patch = enumerate_ball(spec, gens, radius)
    return patch


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(patch=tree_balls())
def test_numbered_neighbours_equal_the_star_oracle(patch):
    """The table and every view of it equal the oracle's."""
    assert patch.tree is not None
    assert patch.neighbours == neighbours_oracle(patch)
    edges = ball_edges_oracle(patch)
    assert patch.simple_edges == simple_edges_oracle(edges)
    assert patch.interior == interior_oracle(patch, edges)
    for symbol in patch.gens.symbols():
        assert patch_a_edges(patch, symbol) == patch_a_edges_oracle(edges, symbol)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(patch=tree_balls())
def test_stepped_texts_equal_format_element(patch):
    assert patch.texts() == [patch.spec.format_element(v) for v in patch.vertices]


def test_stepped_texts_of_long_runs_and_a_high_rank():
    """Runs up to a^±8 on free:1, and free:30's g10 ... g30 names."""
    for group, radius in (("free:1", 8), ("free:30", 2)):
        spec = parse_group_spec(group)
        patch = enumerate_ball(spec, GeneratingSet.standard(spec), radius)
        assert patch.texts() == [spec.format_element(v) for v in patch.vertices]


def test_the_numbered_ball_forms_no_product(monkeypatch):
    """The r5 ball of free:3, the forest-free3 patch: its table, edges,
    interior and texts are read without a product or a text formatted."""

    def forbidden(*args):
        raise AssertionError("a product or a text was formed")

    for name in ("multiply", "translates", "format_element"):
        monkeypatch.setattr(GroupSpec, name, forbidden)
    spec = free_group(3)
    patch = enumerate_ball(spec, GeneratingSet.standard(spec), 5)
    patch.neighbours, patch.simple_edges, patch.interior, patch.texts()
    assert len(patch.interior) == 937


# (group, gens) of patches that are not numbered balls of the free tree
_SEARCHED = [
    ("free:2", "a=a,b=b,c=a b"),
    ("free:2", "a=1,b=b"),
    ("abelian:2", None),
    ("cyclic:12", None),
    ("sl2z", None),
]


def _record_rows(monkeypatch) -> list:
    """The names of the neighbour-table builders that a patch calls."""
    taken = []
    for name in ("_numbered_rows", "_star_rows"):
        build = getattr(CayleyPatch, name)

        def spy(self, build=build, name=name):
            taken.append(name)
            return build(self)

        monkeypatch.setattr(CayleyPatch, name, spy)
    return taken


def _assert_star_path(monkeypatch, patch):
    taken = _record_rows(monkeypatch)
    assert patch.tree is None
    assert patch.neighbours == neighbours_oracle(patch)
    assert taken == ["_star_rows"]
    assert patch.texts() == [patch.spec.format_element(v) for v in patch.vertices]


@pytest.mark.parametrize("group,text", _SEARCHED, ids=[f"{g}[{t}]" for g, t in _SEARCHED])
def test_a_searched_ball_takes_the_star_path(monkeypatch, group, text):
    spec = parse_group_spec(group)
    patch = enumerate_ball(spec, cli._parse_generator_overrides(spec, text), 3)
    _assert_star_path(monkeypatch, patch)


@pytest.mark.parametrize("change", _REORDERED.values(), ids=_REORDERED.keys())
def test_a_reordered_patch_takes_the_star_path(monkeypatch, change):
    spec = free_group(2)
    patch = _reorder(enumerate_ball(spec, GeneratingSet.standard(spec), 3), change)
    _assert_star_path(monkeypatch, patch)


# (group, gens, radius, word, other): the ball with ``word`` replaced by
# ``other``, which keeps each level ascending but is not a reduced word of
# its level's length over the ball's letters
_FOREIGN = {
    "longer-word": ("free:2", "a=a,b=b", 2, (-2, -1), (-2, -1, -1)),
    "foreign-letter": ("free:3", "a=a,b=b", 1, (2,), (3,)),
    "foreign-last-letter": ("free:3", "a=a,b=b", 2, (1, 2), (1, 3)),
    "unreduced-word": ("free:2", "a=a,b=b", 2, (-2, 1), (-2, 2)),
    "zero-letter-prefix": ("free:2", "a=a,b=b", 3, (-2, 1, -2), (-2, 0, -2)),
    "unreduced-prefix": ("free:2", "a=a,b=b", 3, (-2, 1, 2), (-2, 2, 2)),
}


@pytest.mark.parametrize("case", _FOREIGN.values(), ids=_FOREIGN.keys())
def test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path(monkeypatch, case):
    """A word of another length, over a letter outside the ball's, or not
    reduced, is not on the numbering even where the levels keep their
    sizes and order: the table, the texts and the Hall graph take the
    general path."""
    group, text, radius, word, other = case
    spec = parse_group_spec(group)
    patch = enumerate_ball(spec, cli._parse_generator_overrides(spec, text), radius)
    vertices = list(patch.vertices)
    vertices[vertices.index(word)] = other
    ends = list(accumulate(patch.level_sizes))
    levels = [vertices[end - size : end] for end, size in zip(ends, patch.level_sizes)]
    assert all(level == sorted(set(level)) for level in levels)
    patch = dataclasses.replace(patch, vertices=tuple(vertices))
    _assert_star_path(monkeypatch, patch)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b")
    assert check_domain(spec, ts, patch) == check_domain(spec, ts, patch.vertices)


def _copies(patch):
    """``patch`` copied by ``dataclasses.replace`` unchanged, and with each
    field in turn replaced by an equal value."""
    yield dataclasses.replace(patch)
    for field in dataclasses.fields(patch):
        yield dataclasses.replace(patch, **{field.name: getattr(patch, field.name)})


def test_a_hand_built_ball_in_shortlex_order_is_not_numbered(monkeypatch):
    """A copy of a generated ball, equal to it field for field, keeps no
    numbering: only :func:`enumerate_ball` hands one over.  Its table, its
    Hall graph and its texts take the general path, and read the same
    facts as the ball's numbering."""
    spec = free_group(3)
    patch = enumerate_ball(spec, GeneratingSet.standard(spec), 3)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    verdict = check_domain(spec, ts, patch)
    neighbours, texts = patch.neighbours, patch.texts()
    formatted = []
    format_element = GroupSpec.format_element

    def counted(self, x):
        formatted.append(x)
        return format_element(self, x)

    monkeypatch.setattr(GroupSpec, "format_element", counted)
    rows, paths = _record_rows(monkeypatch), _record_paths(monkeypatch)
    for copy in _copies(patch):
        assert copy == patch and copy.tree is None
        del rows[:], paths[:], formatted[:]
        assert check_domain(spec, ts, copy) == verdict
        assert copy.neighbours == neighbours
        assert copy.texts() == texts
        assert rows == ["_star_rows"]
        assert paths == ["_interned_columns"]
        assert formatted == list(patch.vertices)


# (group, gens) of generated balls, and whether each keeps its numbering
_KEPT = [
    ("free:3", None, True),
    ("free:2", "x=b,y=a^-1", True),
    ("free:3", "a=a,b=b", True),
    ("free:2", "a=a,b=b,c=a b", False),
    ("abelian:2", None, False),
    ("cyclic:12", None, False),
    ("sl2z", None, False),
]


@pytest.mark.parametrize("group,text,kept", _KEPT, ids=[f"{g}[{t}]" for g, t, _ in _KEPT])
def test_a_generated_ball_keeps_its_numbering_on_the_free_tree_alone(group, text, kept):
    """The standard basis, a renamed and signed basis and a sub-basis are
    generated by their numbering and keep it; a generator of two letters
    and the other models are searched for and have none."""
    spec = parse_group_spec(group)
    gens = cli._parse_generator_overrides(spec, text)
    tree, _ = ball_levels(spec, gens, 2)
    patch = enumerate_ball(spec, gens, 2)
    assert (patch.tree is not None) == kept == (tree is not None)
    if kept:
        assert patch.tree.letters == tree.letters == tree_letters(spec, gens)


def test_writers_read_the_ball_only_for_its_own_domain(monkeypatch):
    """A certificate of the r3 ball, written with the r4 ball, is written
    as without a ball; with its own ball it reads the ball's texts and
    writes the same documents."""
    spec = free_group(3)
    gens = GeneratingSet.standard(spec)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    own, larger = enumerate_ball(spec, gens, 3), enumerate_ball(spec, gens, 4)
    cert = check_domain(spec, ts, own)
    assert isinstance(cert, Certificate)
    expected = verdict_to_jsonable(spec, cert, ts), decomposition_to_jsonable(spec, cert, ts)
    for ball, texts in ((larger, []), (own, [own])):
        read = []
        ball_texts = CayleyPatch.texts

        def spy(self, ball_texts=ball_texts, read=read):
            read.append(self)
            return ball_texts(self)

        monkeypatch.setattr(CayleyPatch, "texts", spy)
        written = (
            verdict_to_jsonable(spec, cert, ts, ball),
            decomposition_to_jsonable(spec, cert, ts, ball),
        )
        assert written == expected
        assert read == texts * 2
