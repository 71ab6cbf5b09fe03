"""Column-wise products against their row-by-row references.

The violator shrink and ``product_set`` form their products one translator
column at a time through ``GroupSpec.translates``.  Each must return what
its row-by-row oracle in ``tests/oracles.py`` returns, and raise the same
exception type with the same message, on valid and on tampered inputs,
over every model of ``all_model_specs()``, and the shrink also on the
sets of the amenable-abelian2 bench.
"""

import functools

from hypothesis import given, settings, strategies as st

from paradec import (
    Certificate,
    TranslatingSets,
    check_domain,
    enumerate_ball,
    product_set,
)
from paradec.doubling import _shrink_violator
from paradec.matching import alternating_reachable

from helpers import all_model_specs, amenable_bench_graphs, standard_gens
from oracles import product_set_rows_oracle, shrink_violator_rows_oracle


def outcome(function, *args):
    """The return value, or the raised exception's type and message."""
    try:
        return "returned", function(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


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
        a1 = [g for (copy, g), r in zip(graph.lefts, reach_left) if r and copy == 1]
        a2 = [g for (copy, g), r in zip(graph.lefts, reach_left) if r and copy == 2]
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
