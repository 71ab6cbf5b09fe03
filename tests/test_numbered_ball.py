"""The neighbours and the texts of a ball of the free tree, read off its
shortlex numbering.

On a ball whose generators and inverses are single letters of the free
model, generated level by level in shortlex order, ``CayleyPatch`` reads
each neighbour as a parent or a child by place and steps each vertex's
text from its parent's.  These tests check both against the star-and-
lookup oracle and ``format_element``, over standard, renamed and reordered
generators and a sub-basis; pin which path each input takes; and check
that the writers read the ball's texts only for a domain in its vertex
order.  A vertex's row, a word's index and the interior are read off the
numbering too, without the whole table or the vertex index, which
``forest-audit`` therefore never builds on such a ball.
"""

import dataclasses
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    Certificate,
    GeneratingSet,
    TranslatingSets,
    audit_counting_argument,
    check_domain,
    enumerate_ball,
    free_group,
    parse_group_spec,
    patch_a_edges,
    verdict_to_jsonable,
)
import paradec.cli as cli
from paradec.cayley import CayleyPatch, ShortlexTree, ball_levels, tree_letters
from paradec.decomposition import decomposition_to_jsonable
from paradec.forest import a_edge_contraction
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


def _unbuilt(patch) -> bool:
    """Neither the neighbour table nor the vertex index is built."""
    return "neighbours" not in patch.__dict__ and "_index" not in patch.__dict__


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(patch=tree_balls())
def test_rows_and_interior_read_off_the_numbering_equal_the_oracles(patch):
    """Each vertex's row equals the oracle's, and the interior is the
    oracle's, the ball one radius down; neither reads the table.  The rows
    equal the table once it is built."""
    rows = [patch.row(i) for i in range(len(patch.vertices))]
    interior = patch.interior
    assert _unbuilt(patch)
    assert tuple(rows) == neighbours_oracle(patch)
    assert interior == interior_oracle(patch, ball_edges_oracle(patch))
    assert interior == patch.vertices[: len(patch.vertices) - patch.level_sizes[-1]]
    assert patch.row(-1) == rows[-1]
    with pytest.raises(IndexError):
        patch.row(len(patch.vertices))
    assert patch.neighbours == tuple(rows)


def _probes(patch) -> list:
    """Inputs for ``index_of`` and ``in``: every vertex; every vertex with
    each letter of the ball and a foreign letter appended, so words one
    letter longer than the radius, unreduced words and words off the
    ball's letters; each vertex's first letter replaced by a foreign one;
    and elements of the other models."""
    letters = patch.tree.letters
    foreign = max(letters) + 1
    probes = list(patch.vertices)
    for v in patch.vertices:
        probes.extend(v + (t,) for t in (*letters, foreign, 0))
        if v:
            probes.append((foreign,) + v[1:])
    probes += [0, 3, (0, 0), (1, 0, 0, 1), (1, 1), "a"]
    return probes


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(patch=tree_balls())
def test_index_of_and_in_read_off_the_numbering_agree_with_a_dict(patch):
    """``index_of`` and ``in`` agree with a dict index of the vertices on
    every probe, and reject every probe that is not a vertex, without
    building the vertex index."""
    index = {v: i for i, v in enumerate(patch.vertices)}
    rejected = 0
    for probe in _probes(patch):
        expected = index.get(probe)
        assert (probe in patch) == (expected is not None), probe
        if expected is None:
            rejected += 1
            with pytest.raises(KeyError):
                patch.index_of(probe)
        else:
            assert patch.index_of(probe) == expected
    assert rejected > len(patch.vertices)
    assert _unbuilt(patch)


# (rank, radius, probe, the place read off the probe's letters or None)
_NEXT_TO_THE_BALL = {
    # unreduced words placed on another vertex of their level ...
    "unreduced-on-a-vertex": (2, 2, (1, -1), 12),
    "unreduced-on-a-vertex-before": (2, 2, (-2, 2), 8),
    # ... and past the ball's last vertex
    "unreduced-past-the-end": (1, 3, (1, -1, 1), 7),
    "one-letter-too-long": (2, 2, (1, 2, 1), None),
    "foreign-letter": (2, 2, (3,), None),
    "foreign-last-letter": (2, 2, (1, 3), None),
    "cyclic-element": (2, 2, 0, None),
    "abelian-element": (2, 2, (0, 0), None),
    "sl2z-element": (2, 2, (1, 0, 0, 1), None),
}


@pytest.mark.parametrize(
    "rank,radius,probe,place", _NEXT_TO_THE_BALL.values(), ids=_NEXT_TO_THE_BALL.keys()
)
def test_index_of_rejects_words_next_to_the_ball(rank, radius, probe, place):
    """The place read off a probe's letters, where it has one, is not the
    probe's: the ball's word there differs, or there is none."""
    spec = free_group(rank)
    patch = enumerate_ball(spec, GeneratingSet.standard(spec), radius)
    if place is not None:
        assert patch.tree.place(probe) == place
        assert place >= len(patch.vertices) or patch.vertices[place] != probe
    assert probe not in patch
    with pytest.raises(KeyError):
        patch.index_of(probe)
    assert _unbuilt(patch)


def test_offsets_are_the_sums_of_the_level_sizes():
    for letters in ((-1, 1), (-2, -1, 1, 2), (-3, -2, -1, 1, 2, 3)):
        tree = ShortlexTree(letters)
        for level in (7, 3, 0, -1, 12):
            assert tree.offset(level) == sum(map(tree.level_size, range(level)))


# forest-audit runs that read a numbered ball, and one on a searched ball
_AUDITED = {
    "free:3-r5": (["--group", "free:3", "--radius", "5", "--samples", "40"], True),
    "permuted": (["--group", "free:3", "--gens", "a=b,b=c^-1,c=a", "--radius", "4",
                  "--samples", "6", "--seed", "3"], True),
    "inverted": (["--group", "free:2", "--gens", "a=a,b=a^-1,c=b", "--radius", "4",
                  "--samples", "6", "--seed", "2"], True),
    "c=ab": (["--group", "free:2", "--gens", "a=a,b=b,c=a b", "--radius", "4",
              "--samples", "6"], False),
}


@pytest.mark.parametrize("argv,numbered", _AUDITED.values(), ids=_AUDITED.keys())
def test_forest_audit_builds_no_table_or_index_on_a_numbered_ball(
    monkeypatch, capsys, argv, numbered
):
    """``forest-audit`` reads a numbered ball's rows, places and interior
    off its numbering; a searched ball builds the table and the index."""
    made = []
    enumerate_ball = cli.enumerate_ball

    def spy(*args, **kwargs):
        made.append(enumerate_ball(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "enumerate_ball", spy)
    cli.main(["forest-audit", *argv, "--format", "json"])
    capsys.readouterr()
    [patch] = made
    assert (patch.tree is not None) == numbered
    assert _unbuilt(patch) == numbered
    assert ("neighbours" in patch.__dict__) == ("_index" in patch.__dict__) != numbered


def test_a_hand_built_copy_audits_through_the_table_and_the_index():
    """A copy without the numbering builds both and gives the same audit."""
    spec = free_group(3)
    patch = enumerate_ball(spec, GeneratingSet.standard(spec), 3)
    copy = dataclasses.replace(patch)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    forest = a_edge_contraction(patch, "a").sample(1)
    a1, a2 = patch.interior[3:9], patch.interior[20:25]
    audit = audit_counting_argument(patch, forest, a1, a2, ts)
    assert _unbuilt(patch)
    assert audit_counting_argument(copy, forest, a1, a2, ts) == audit
    assert "neighbours" in copy.__dict__ and "_index" in copy.__dict__
    assert copy.interior == patch.interior


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
