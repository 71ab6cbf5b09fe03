"""Column-wise products against their row-by-row references.

The group kernel ``GroupSpec.translates`` (one translator over many
elements) forms most column products in one comprehension.  It must return
what one ``multiply`` per product returns, and raise the same exception
type with the same message (the first overflowing matrix product), over
every model of ``all_model_specs()``, with unreduced free words and
translators of 0, 1 and more letters.  The violator shrink,
``product_set`` and the coverage check of ``verify_decomposition`` form
their products one translator column at a time through ``translates``.
Each must return what its row-by-row oracle in ``tests/oracles.py``
returns on valid and on tampered inputs, and the shrink also on the sets
of the amenable-abelian2 bench.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    Certificate,
    PartialDecomposition,
    TranslatingSets,
    check_domain,
    enumerate_ball,
    free_group,
    matrix_group,
    pieces_from_certificate,
    product_set,
    verify_decomposition,
)
from paradec.doubling import _shrink_violator
from paradec.errors import MatrixOverflowError
from paradec.matching import alternating_reachable

from helpers import (
    all_model_specs,
    amenable_bench_graphs,
    hall_lefts,
    outcome,
    standard_gens,
)
from oracles import (
    product_set_rows_oracle,
    shrink_violator_rows_oracle,
    translates_oracle,
    verify_decomposition_oracle,
)


@st.composite
def instances(draw):
    """A model, translating sets of up to three words of up to three
    generator steps each, and the ball of radius up to 2."""
    spec = draw(st.sampled_from(all_model_specs()), label="spec")
    identity = spec.identity()
    steps = [el for _, _, el in standard_gens(spec).symmetrized(spec)]
    word = st.lists(st.sampled_from(steps), max_size=3).map(
        lambda letters: functools.reduce(spec.multiply, letters, identity)
    )
    sides = [
        tuple(dict.fromkeys(draw(st.lists(word, min_size=1, max_size=3), label=side)))
        for side in ("s1", "s2")
    ]
    radius = draw(st.integers(min_value=0, max_value=2), label="radius")
    ball = enumerate_ball(spec, standard_gens(spec), radius).vertices
    return spec, TranslatingSets(*sides), list(ball)


def subset(draw, elements, label):
    keep = draw(st.lists(st.booleans(), min_size=len(elements), max_size=len(elements)), label=label)
    return [x for x, kept in zip(elements, keep) if kept]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shrink_equals_the_row_oracle(data):
    """A violator's own sets, possibly with one element dropped, or any two
    subsets of the ball."""
    spec, ts, ball = data.draw(instances())
    verdict = check_domain(spec, ts, ball)
    if not isinstance(verdict, Certificate) and data.draw(st.booleans(), label="violator"):
        a1, a2 = list(verdict.a1), list(verdict.a2)
        if data.draw(st.booleans(), label="drop"):
            side = data.draw(st.sampled_from([a for a in (a1, a2) if a]), label="side")
            del side[data.draw(st.integers(0, len(side) - 1), label="i")]
    else:
        a1, a2 = subset(data.draw, ball, "a1"), subset(data.draw, ball, "a2")
    assert outcome(_shrink_violator, spec, ts, a1, a2) == outcome(
        shrink_violator_rows_oracle, spec, ts, a1, a2
    )


def test_shrink_equals_the_row_oracle_on_the_bench_sets():
    """The Dulmage-Mendelsohn sets that the amenable-abelian2 bench
    shrinks: 526 + 510 candidates at radius 16 and 181 + 181 in the
    powers graph at radius 12, far past the radius-2 balls above."""
    sizes = []
    for spec, ts, graph, _ in amenable_bench_graphs():
        reach_left, _ = alternating_reachable(graph.adjacency, *graph.match())
        lefts = hall_lefts(graph)
        a1 = [g for (copy, g), r in zip(lefts, reach_left) if r and copy == 1]
        a2 = [g for (copy, g), r in zip(lefts, reach_left) if r and copy == 2]
        sizes.append((len(a1), len(a2)))
        assert outcome(_shrink_violator, spec, ts, a1, a2) == outcome(
            shrink_violator_rows_oracle, spec, ts, a1, a2
        )
    assert sizes == [(526, 510), (181, 181)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_set_equals_the_row_oracle(data):
    spec, ts, ball = data.draw(instances())
    elements = subset(data.draw, ball, "elements")
    for translators in (ts.s1, ts.s2, ts.s1 + ts.s2):
        expected = product_set_rows_oracle(spec, elements, translators)
        assert product_set(spec, elements, translators) == expected
        assert product_set(spec, iter(elements), iter(translators)) == expected


# -- the group kernels ---------------------------------------------------------


@st.composite
def operands(draw, spec, letters):
    """A left or right factor of a product with ``letters`` generator
    steps.  In the free model any tuple of that many letters, so words
    that do not reduce and words whose letters cancel are drawn; in the
    cyclic model also residues outside [0, n); in the matrix model also
    the step product times a power of A or B whose entries come near the
    64-bit bound, so that its products may overflow."""
    if spec.model == "free":
        signed = [sign * i for i in range(1, spec.rank + 1) for sign in (1, -1)]
        return tuple(draw(st.lists(st.sampled_from(signed), min_size=letters, max_size=letters)))
    steps = [el for _, _, el in standard_gens(spec).symmetrized(spec)]
    chosen = draw(st.lists(st.sampled_from(steps), min_size=letters, max_size=letters))
    x = functools.reduce(spec.multiply, chosen, spec.identity())
    if spec.model == "cyclic" and draw(st.booleans()):
        x += spec.order * draw(st.integers(-1, 2))
    if spec.model == "sl2z" and draw(st.booleans()):
        k = 2 * draw(st.integers(2**59, 2**61))
        a, b, c, d = x
        if draw(st.booleans()):
            x = (a, a * k + b, c, c * k + d)  # x·[[1, k], [0, 1]], unchecked
        else:
            x = (a + b * k, b, c + d * k, d)  # x·[[1, 0], [k, 1]], unchecked
    return x


def factors(spec):
    return st.integers(0, 4).flatmap(lambda n: operands(spec, n))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_translates_equals_the_per_element_oracle(data):
    spec = data.draw(st.sampled_from(all_model_specs()), label="spec")
    letters = data.draw(st.sampled_from([0, 1, 2, 3]), label="translator letters")
    s = data.draw(operands(spec, letters), label="s")
    elements = data.draw(st.lists(factors(spec), max_size=6), label="elements")
    expected = outcome(translates_oracle, spec, elements, s)
    assert outcome(spec.translates, elements, s) == expected
    assert outcome(spec.translates, iter(elements), s) == expected


def test_first_overflowing_matrix_product_raises():
    """Two products overflow with different entries; the column raises the
    message of the one that the per-product oracle forms first."""
    spec = matrix_group()
    a, k = (1, 2, 0, 1), 2**62
    first, second = (1, k, 0, 1), (1, k + 2, 0, 1)
    got = outcome(spec.translates, [a, first, second], first)
    expected = outcome(translates_oracle, spec, [a, first, second], first)
    assert got == expected == (MatrixOverflowError, f"matrix entry {2 * k} exceeds "
                               "the signed 64-bit range")


# -- the coverage check of verify_decomposition ---------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_decomposition_equals_the_element_oracle(data):
    """Pieces drawn from the translates of ball elements, so that they may
    overlap, miss elements or hold outsiders, on a subset of the ball."""
    spec, ts, ball = data.draw(instances())
    domain = subset(data.draw, ball, "domain")

    def family(translators, label):
        return tuple(
            (s, frozenset(subset(data.draw, spec.translates(ball, s), f"{label} {i}")))
            for i, s in enumerate(translators)
        )

    pd = PartialDecomposition(family(ts.s1, "piece1"), family(ts.s2, "piece2"), tuple(domain))
    assert verify_decomposition(spec, pd) == verify_decomposition_oracle(spec, pd)


def _tampered(spec, pd, how, sphere):
    """``pd`` with one element moved to the next piece of its family, its
    first nonempty piece dropped, or its domain cut to the outer
    ``sphere`` (also with a piece dropped, so that some elements are
    undecided)."""
    pieces1 = list(pd.pieces1)
    i = next(i for i, (_, piece) in enumerate(pieces1) if piece)
    s, piece = pieces1[i]
    if how == "moved":
        x = min(piece, key=spec.element_sort_key)
        t, other = pieces1[(i + 1) % len(pieces1)]
        pieces1[i] = (s, piece - {x})
        pieces1[(i + 1) % len(pieces1)] = (t, other | {x})
    if how in ("dropped", "boundary, dropped"):
        pieces1[i] = (s, frozenset())
    pd = dataclasses.replace(pd, pieces1=tuple(pieces1))
    if how.startswith("boundary"):
        pd = dataclasses.replace(pd, domain=tuple(sphere))
    return pd


@pytest.mark.parametrize("how", ["moved", "dropped", "boundary", "boundary, dropped"])
@pytest.mark.parametrize(
    "spec,s1,s2,radius",
    [(free_group(3), "1,a", "1,b,c", 3), (free_group(2), "1,a", "1,b", 3),
     (matrix_group(), "1,A", "1,B", 2)],
    ids=["free3", "free2", "sl2z"],
)
def test_verify_decomposition_equals_the_oracle_on_tampered_pieces(spec, s1, s2, radius, how):
    """The report's element lists equal the per-element oracle's in content
    and order; each tamper but the plain boundary cut leaves a failure or
    an undecided element."""
    ts = TranslatingSets.from_words(spec, s1, s2)
    patch = enumerate_ball(spec, standard_gens(spec), radius)
    pd, _ = pieces_from_certificate(spec, check_domain(spec, ts, patch.vertices), ts)
    sphere = patch.vertices[len(patch.vertices) - patch.level_sizes[-1] :]
    tampered = _tampered(spec, pd, how, sphere)
    report = verify_decomposition(spec, tampered)
    assert report == verify_decomposition_oracle(spec, tampered)
    if how != "boundary":
        assert not report.passed or report.indeterminate1


def _tried(spec, pd):
    """Per family, the products that the per-element oracle forms: each
    element's translates up to the first that its translator's piece
    holds, and the elements that none covers."""
    counts = []
    for pieces in (pd.pieces1, pd.pieces2):
        formed, left = 0, []
        for g in pd.domain:
            for s, piece in pieces:
                formed += 1
                if spec.multiply(g, s) in piece:
                    break
            else:
                left.append(g)
        counts.append((formed, len(left)))
    return counts


@pytest.mark.parametrize("how", ["none", "boundary, dropped"])
def test_verify_decomposition_forms_escapes_for_the_uncovered_alone(monkeypatch, how):
    """The coverage check forms the products that the oracle forms; only
    an element that no translator covers has its translates formed again,
    to ask whether one leaves the domain."""
    spec = free_group(3)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    patch = enumerate_ball(spec, standard_gens(spec), 3)
    pd, _ = pieces_from_certificate(spec, check_domain(spec, ts, patch.vertices), ts)
    if how != "none":
        sphere = patch.vertices[len(patch.vertices) - patch.level_sizes[-1] :]
        pd = _tampered(spec, pd, how, sphere)
    formed = []
    translates = type(spec).translates

    def counted(self, elements, s):
        formed.append(len(elements))
        return translates(self, elements, s)

    monkeypatch.setattr(type(spec), "translates", counted)
    report = verify_decomposition(spec, pd)
    families = list(zip(_tried(spec, pd), (pd.pieces1, pd.pieces2)))
    # one column per translator, and one more for each when some are left
    assert len(formed) == sum(len(pieces) * (1 + (left > 0)) for (_, left), pieces in families)
    assert sum(formed) == sum(tried + left * len(pieces) for (tried, left), pieces in families)
    assert bool(report.indeterminate1) == (how != "none")
