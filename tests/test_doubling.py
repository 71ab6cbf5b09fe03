import functools
import json
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    Certificate,
    GeneratingSet,
    TranslatingSets,
    Violator,
    check_domain,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    matrix_group,
    minimal_violating_radius,
    product_set,
    verdict_from_jsonable,
    verdict_to_jsonable,
    verify_certificate,
    verify_violator,
)
import paradec.doubling as doubling
from paradec.cayley import ball_levels
from paradec.errors import ParseError, VertexBudgetError, ViolatorError
from paradec.matching import UNMATCHED, alternating_reachable, hopcroft_karp

from helpers import (
    all_model_specs,
    certificate_pairs,
    random_element,
    record_products,
    standard_gens,
)
from oracles import (
    DomainSizeError,
    brute_force_check,
    doubling_holds_naive,
    hall_graph_oracle,
    minimal_violating_radius_oracle,
    shrink_violator_oracle,
    union_product_count,
)


def ball_vertices(spec, radius):
    return enumerate_ball(spec, standard_gens(spec), radius).vertices


class TestTranslatingSets:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TranslatingSets(s1=((0,), (0,)), s2=((1,),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TranslatingSets(s1=(), s2=((0,),))

    def test_from_words(self):
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        assert ts.s1 == ((), (1,))
        assert ts.s2 == ((), (2,))

    def test_from_words_keeps_bracketed_literals(self):
        spec = free_abelian_group(2)
        ts = TranslatingSets.from_words(spec, "1,[1,0]", "[0,0], [0,1] ,a b")
        assert ts.s1 == ((0, 0), (1, 0))
        assert ts.s2 == ((0, 0), (0, 1), (1, 1))
        ts = TranslatingSets.from_words(matrix_group(), "[[1,2],[0,1]],1", "B")
        assert ts.s1 == ((1, 2, 0, 1), (1, 0, 0, 1))

    @pytest.mark.parametrize("text", ["1,[1,0", "1,0]", "[[1,0]", "]["])
    def test_from_words_rejects_unbalanced_brackets(self, text):
        with pytest.raises(ParseError, match="translator list"):
            TranslatingSets.from_words(free_abelian_group(2), text, "1")


class TestCheckDomain:
    def test_identity_translators_forced_violator(self):
        for spec in (free_group(2), free_abelian_group(1), cyclic_group(6)):
            e = spec.identity()
            ts = TranslatingSets(s1=(e,), s2=(e,))
            verdict = check_domain(spec, ts, [e])
            assert isinstance(verdict, Violator)
            assert verdict.a1 == (e,) and verdict.a2 == (e,)
            assert verdict.union_size == 1

    def test_abelian_line_violator(self):
        spec = free_abelian_group(1)
        ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
        verdict = check_domain(spec, ts, ball_vertices(spec, 2))
        assert isinstance(verdict, Violator)
        verify_violator(spec, ts, verdict)
        # greedy shrink reaches a two-by-two pair with union 3 < 4
        assert (len(verdict.a1), len(verdict.a2)) == (2, 2)
        assert verdict.union_size == 3

    def test_free2_certificate_small_radii(self):
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        for radius in range(1, 5):
            verdict = check_domain(spec, ts, ball_vertices(spec, radius))
            assert isinstance(verdict, Certificate)
            assert verify_certificate(spec, ts, *certificate_pairs(spec, verdict)) == verdict

    def test_certificate_images_disjoint_and_in_translates(self):
        spec = free_group(3)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        domain = ball_vertices(spec, 3)
        verdict = check_domain(spec, ts, domain)
        assert isinstance(verdict, Certificate)
        assert verdict.domain == tuple(sorted(domain, key=spec.element_sort_key))
        pairs1, pairs2 = certificate_pairs(spec, verdict)
        image1 = {w for _, w in pairs1}
        image2 = {w for _, w in pairs2}
        assert len(image1) == len(pairs1) == len(domain)
        assert len(image2) == len(pairs2) == len(domain)
        assert not image1 & image2
        for g, w in pairs1:
            assert w in product_set(spec, [g], ts.s1)
        for g, w in pairs2:
            assert w in product_set(spec, [g], ts.s2)

    def test_empty_domain_rejected(self):
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        with pytest.raises(ValueError):
            check_domain(spec, ts, [])

    def test_deterministic(self):
        spec = free_abelian_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
        domain = ball_vertices(spec, 3)
        assert check_domain(spec, ts, domain) == check_domain(spec, ts, domain)


class TestBruteForce:
    def test_minimal_violator_on_interval(self):
        spec = free_abelian_group(1)
        ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
        verdict = brute_force_check(spec, ts, [(0,), (1,), (2,)])
        assert verdict == Violator(a1=((0,), (1,)), a2=((0,), (1,)), union_size=3)

    def test_identity_translators(self):
        spec = cyclic_group(6)
        e = spec.identity()
        ts = TranslatingSets(s1=(e,), s2=(e,))
        verdict = brute_force_check(spec, ts, [e])
        assert isinstance(verdict, Violator)
        assert (len(verdict.a1), len(verdict.a2)) == (1, 1)

    def test_free2_ball1_no_violator(self):
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        verdict = brute_force_check(spec, ts, ball_vertices(spec, 1))
        assert isinstance(verdict, Certificate)
        assert verify_certificate(spec, ts, *certificate_pairs(spec, verdict)) == verdict

    def test_guardrail(self):
        spec = free_abelian_group(1)
        ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
        with pytest.raises(DomainSizeError):
            brute_force_check(spec, ts, [(k,) for k in range(15)])

    def test_agrees_with_naive_quantifier(self):
        spec = free_abelian_group(1)
        rng = random.Random(7)
        for _ in range(10):
            s1 = tuple({(rng.randrange(-2, 3),) for _ in range(2)})
            s2 = tuple({(rng.randrange(-2, 3),) for _ in range(3)})
            ts = TranslatingSets(s1=s1, s2=s2)
            domain = [(k,) for k in range(-2, 3)]
            verdict = brute_force_check(spec, ts, domain)
            holds = doubling_holds_naive(spec, ts, domain)
            assert isinstance(verdict, Certificate) == holds


@pytest.mark.parametrize(
    "spec",
    [
        free_group(2),
        free_group(3),
        free_abelian_group(1),
        free_abelian_group(2),
        cyclic_group(5),
        cyclic_group(6),
        matrix_group(),
    ],
    ids=["free2", "free3", "ab1", "ab2", "cyc5", "cyc6", "sl2z"],
)
def test_oracle_equivalence_random_instances(spec):
    rng = random.Random(
        (zlib.crc32(spec.model.encode()) ^ spec.rank ^ (spec.order or 0)) & 0xFFFF
    )
    for _ in range(50):
        s1 = list({random_element(spec, rng, 2) for _ in range(rng.randint(1, 2))})
        s2 = list({random_element(spec, rng, 2) for _ in range(rng.randint(1, 3))})
        ts = TranslatingSets(s1=tuple(s1), s2=tuple(s2))
        pool = list({random_element(spec, rng, 3) for _ in range(12)})[:10]
        domain = pool if pool else [spec.identity()]
        fast = check_domain(spec, ts, domain)
        slow = brute_force_check(spec, ts, domain)
        assert isinstance(fast, Violator) == isinstance(slow, Violator)
        if isinstance(fast, Violator):
            verify_violator(spec, ts, fast)
            verify_violator(spec, ts, slow)
        else:
            assert verify_certificate(spec, ts, *certificate_pairs(spec, fast)) == fast


@pytest.mark.parametrize(
    "spec",
    [free_abelian_group(2), free_group(2), cyclic_group(7), cyclic_group(12)],
    ids=["ab2", "free2", "cyc7", "cyc12"],
)
def test_incremental_shrink_matches_recount_oracle(spec, monkeypatch):
    """Every shrink that check_domain runs on a random instance returns the
    same (A1, A2) as the full-recount shrink, and the violator verifies."""
    calls = []
    shrink = doubling._shrink_violator

    def recording_shrink(spec, ts, a1, a2):
        result = shrink(spec, ts, list(a1), list(a2))
        calls.append((a1, a2, result))
        return result

    monkeypatch.setattr(doubling, "_shrink_violator", recording_shrink)
    rng = random.Random(f"{spec.model}:{spec.rank}:{spec.order}")
    for _ in range(120):
        s1 = list({random_element(spec, rng, 2) for _ in range(rng.randint(1, 3))})
        s2 = list({random_element(spec, rng, 2) for _ in range(rng.randint(1, 3))})
        ts = TranslatingSets(s1=tuple(s1), s2=tuple(s2))
        domain = {random_element(spec, rng, 4) for _ in range(rng.randint(1, 30))}
        calls.clear()
        verdict = check_domain(spec, ts, domain)
        if isinstance(verdict, Violator):
            [(a1, a2, result)] = calls
            expected = shrink_violator_oracle(spec, ts, a1, a2)
            assert result is verdict
            assert (list(verdict.a1), list(verdict.a2)) == expected
            verify_violator(spec, ts, verdict)
        else:
            assert not calls


def test_shrink_count_is_checked_against_the_recount(monkeypatch):
    """The violator keeps the union size that the shrink tracked, and
    check_domain recounts it: a count off by one is refused."""
    shrink = doubling._shrink_violator

    def miscounting_shrink(spec, ts, a1, a2):
        violator = shrink(spec, ts, a1, a2)
        return Violator(violator.a1, violator.a2, violator.union_size - 1)

    spec = free_abelian_group(1)
    ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
    domain = [(0,), (1,), (2,)]
    assert check_domain(spec, ts, domain).union_size == 3
    monkeypatch.setattr(doubling, "_shrink_violator", miscounting_shrink)
    with pytest.raises(ViolatorError, match="recorded union size 2 != recomputed 3"):
        check_domain(spec, ts, domain)


class TestViolatorProperties:
    def test_pair_that_does_not_violate_rejected(self):
        spec = free_abelian_group(1)
        ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
        # {0, 1} ∪ {5, 6}: the union size is right, but 4 >= 2
        with pytest.raises(ViolatorError, match="does not violate"):
            verify_violator(spec, ts, Violator(((0,),), ((5,),), 4))

    def test_monotone_in_domain(self):
        # a violator references only A1 and A2, so enlarging the domain
        # preserves it; re-verify against the recount
        spec = free_abelian_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
        result = minimal_violating_radius(spec, standard_gens(spec), ts, 6)
        assert result is not None
        _, violator = result
        verify_violator(spec, ts, violator)
        count = union_product_count(spec, violator.a1, ts.s1, violator.a2, ts.s2)
        assert count == violator.union_size
        assert count < len(violator.a1) + len(violator.a2)


class TestMinimalViolatingRadius:
    def test_abelian_line_found_at_radius_one(self):
        spec = free_abelian_group(1)
        ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
        result = minimal_violating_radius(spec, standard_gens(spec), ts, 4)
        assert result is not None
        radius, violator = result
        assert radius == 1
        verify_violator(spec, ts, violator)

    def test_free3_absent(self):
        spec = free_group(3)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        assert minimal_violating_radius(spec, standard_gens(spec), ts, 4) is None

    def test_abelian_plane_box_violator(self):
        spec = free_abelian_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
        result = minimal_violating_radius(spec, standard_gens(spec), ts, 6)
        assert result is not None
        radius, violator = result
        assert radius <= 6
        # the 3x3 box is a reference violator: 16 < 18, recounted exactly
        box = [(x, y) for x in range(3) for y in range(3)]
        assert union_product_count(spec, box, ts.s1, box, ts.s2) == 16
        assert 16 < 18 == len(box) + len(box)


    def test_violator_answers_within_a_budget_too_small_for_the_next_ball(self):
        # the violator appears at radius 2, whose ball has 13 elements in Z^2;
        # the radius-3 ball (25) is never built, so a budget of 13 answers
        spec = free_abelian_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
        gens = standard_gens(spec)
        result = minimal_violating_radius(spec, gens, ts, 16, vertex_budget=13)
        assert result == minimal_violating_radius_oracle(spec, gens, ts, 16)
        assert result[0] == 2
        with pytest.raises(VertexBudgetError, match="radius 2 exceeds"):
            minimal_violating_radius(spec, gens, ts, 16, vertex_budget=12)

    def test_warm_matching_never_restarts(self, monkeypatch):
        """Each level augments from the previous matching: every call after
        the first starts from a matching saturating all earlier left
        vertices, and no ball is enumerated."""
        starts = []
        match = doubling.hopcroft_karp

        def recording(adjacency, num_right, start=None):
            starts.append((len(adjacency), start))
            return match(adjacency, num_right, start)

        monkeypatch.setattr(doubling, "hopcroft_karp", recording)
        monkeypatch.setattr(doubling, "check_domain", None)
        spec = free_group(3)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        assert minimal_violating_radius(spec, standard_gens(spec), ts, 3) is None
        assert [n for n, _ in starts] == [2, 14, 74, 374]
        assert starts[0][1] is None
        for (previous, _), (_, start) in zip(starts, starts[1:]):
            assert len(start[0]) == previous
            assert UNMATCHED not in start[0]


# model -> (instances, largest max radius); every model yields instances
# with no violator, with one at radius <= 1 and with one at radius >= 2.
_WARM_CASES = [
    (free_group(2), 40, 4),
    (free_group(3), 30, 3),
    (free_abelian_group(2), 40, 5),
    (cyclic_group(7), 40, 4),
    (matrix_group(), 30, 4),
]


@pytest.mark.parametrize(
    "spec,count,max_radius", _WARM_CASES, ids=["free2", "free3", "ab2", "cyc7", "sl2z"]
)
def test_warm_violate_matches_per_radius_oracle(spec, count, max_radius):
    """The level-by-level search returns the same radius and the same
    violator as a fresh ball and a fresh matching at every radius; with a
    small budget both answer alike or raise the same budget error."""
    rng = random.Random(f"warm:{spec.model}:{spec.rank}:{spec.order}")
    gens = standard_gens(spec)
    kinds = set()
    for _ in range(count):
        s1 = list({random_element(spec, rng, 2) for _ in range(rng.randint(1, 3))})
        s2 = list({random_element(spec, rng, 2) for _ in range(rng.randint(1, 3))})
        ts = TranslatingSets(s1=tuple(s1), s2=tuple(s2))
        radius = rng.randint(0, max_radius)
        expected = minimal_violating_radius_oracle(spec, gens, ts, radius)
        assert minimal_violating_radius(spec, gens, ts, radius) == expected
        if expected is None:
            kinds.add("none")
        else:
            kinds.add("early" if expected[0] <= 1 else "late")
            verify_violator(spec, ts, expected[1])
        budget = rng.randint(1, 40)
        try:
            expected = minimal_violating_radius_oracle(spec, gens, ts, radius, budget)
        except VertexBudgetError as exc:
            with pytest.raises(VertexBudgetError) as got:
                minimal_violating_radius(spec, gens, ts, radius, budget)
            assert str(got.value) == str(exc)
        else:
            assert minimal_violating_radius(spec, gens, ts, radius, budget) == expected
    assert kinds == {"none", "early", "late"}


@pytest.mark.parametrize(
    "spec,s1,s2,radius,tree",
    [
        (free_group(3), "1,a", "1,b,c", 4, True),
        (matrix_group(), "1,A", "1,B", 3, False),
        (free_group(2), "1,a", "a,b", 3, False),
    ],
    ids=["free3", "sl2z", "free2-shared"],
)
def test_check_domain_forms_no_product_with_the_identity(
    monkeypatch, spec, s1, s2, radius, tree
):
    """The Hall graph takes g itself as g·1.  On the patch of the free
    tree (free3) ``check_domain`` forms no product at all: the graph is
    numbered by shortlex arithmetic, and the certificate is read off the
    matching and forms no image.  On a hand-given domain (free2-shared) and in sl2z the graph forms one
    product per element and distinct translator, so a translator in both
    S1 and S2 costs one.  The certificate check still forms every g·1 on
    its own path."""
    ts = TranslatingSets.from_words(spec, s1, s2)
    patch = enumerate_ball(spec, standard_gens(spec), radius)
    identity = spec.identity()
    calls = record_products(monkeypatch)
    verdict = check_domain(spec, ts, patch if tree else patch.vertices)
    assert isinstance(verdict, Certificate)
    assert identity not in calls
    if tree:
        assert calls == []
    else:
        distinct = set(ts.s1 + ts.s2) - {identity}
        assert len(calls) == len(patch.vertices) * len(distinct)
    pairs = certificate_pairs(spec, verdict)
    calls.clear()
    verify_certificate(spec, ts, *pairs)
    assert calls.count(identity) > 0


def _matched_elements(lefts, right_elements, pair_left):
    return [
        (left, None if j == UNMATCHED else right_elements[j])
        for left, j in zip(lefts, pair_left)
    ]


@pytest.mark.parametrize("identity_in", ["s1 and s2", "s1", "s2", "neither"])
@pytest.mark.parametrize("shared", [False, True], ids=["no-shared", "shared"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_hall_graph_equals_the_row_by_row_oracle(identity_in, shared, data):
    """The column-built Hall graph has the oracle's left vertices and rows
    of right elements, its right side indexed in insertion order, built in
    one batch (``check``) or level by level (``violate``).  Its right-side
    numbering differs, yet Hopcroft-Karp, warm-started after each batch,
    pairs the same elements and leaves the same alternating reach."""
    spec = data.draw(st.sampled_from(all_model_specs()), label="spec")
    identity = spec.identity()
    steps = [el for _, _, el in standard_gens(spec).symmetrized(spec)]
    word = st.lists(st.sampled_from(steps), min_size=1, max_size=3).map(
        lambda letters: functools.reduce(spec.multiply, letters, identity)
    )
    translator = word.filter(lambda x: x != identity)
    common = [data.draw(translator, label="shared")] if shared else []
    sides = []
    for side in ("s1", "s2"):
        head = ([identity] if side in identity_in else []) + common
        rest = data.draw(
            st.lists(translator, min_size=0 if head else 1, max_size=3), label=side
        )
        sides.append(tuple(dict.fromkeys(head + rest))[:3])
    ts = TranslatingSets(*sides)
    radius = data.draw(st.integers(min_value=0, max_value=3), label="radius")
    levels = list(ball_levels(spec, standard_gens(spec), radius))
    whole = sorted((g for level in levels for g in level), key=spec.element_sort_key)
    for batches in ([whole], levels):
        graph = doubling._HallGraph(spec, ts)
        index: dict = {}
        ours = theirs = None
        for built in range(1, len(batches) + 1):
            graph.extend(batches[built - 1])
            lefts, rows = hall_graph_oracle(spec, ts, batches[:built])
            assert graph.lefts == lefts
            right = list(graph.right_index)
            assert [[right[j] for j in row] for row in graph.adjacency] == rows
            assert list(graph.right_index.values()) == list(range(len(right)))
            adjacency = [[index.setdefault(w, len(index)) for w in row] for row in rows]
            ours = hopcroft_karp(graph.adjacency, len(right), ours)
            theirs = hopcroft_karp(adjacency, len(index), theirs)
            assert _matched_elements(lefts, right, ours[0]) == _matched_elements(
                lefts, list(index), theirs[0]
            )
            assert (
                alternating_reachable(graph.adjacency, *ours)[0]
                == alternating_reachable(adjacency, *theirs)[0]
            )


@settings(max_examples=30, deadline=None)
@given(shift=st.integers(min_value=-3, max_value=3))
def test_violators_translate_on_the_line(shift):
    # right-translating a violating pair preserves the violation
    spec = free_abelian_group(1)
    ts = TranslatingSets(s1=((0,), (1,)), s2=((0,), (1,)))
    a1 = [(shift,), (shift + 1,)]
    a2 = [(shift,), (shift + 1,)]
    assert union_product_count(spec, a1, ts.s1, a2, ts.s2) == 3
    verify_violator(spec, ts, Violator(tuple(a1), tuple(a2), 3))


class TestSerialization:
    def test_certificate_round_trip(self):
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        verdict = check_domain(spec, ts, ball_vertices(spec, 2))
        data = json.loads(json.dumps(verdict_to_jsonable(spec, verdict, ts)))
        # the file holds the pairs, not the translator record; verifying
        # the pairs read back finds the record again
        read_back = verdict_from_jsonable(spec, data)
        assert read_back == certificate_pairs(spec, verdict)
        assert verify_certificate(spec, ts, *read_back) == verdict

    def test_violator_round_trip(self):
        spec = free_abelian_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,a b")
        _, violator = minimal_violating_radius(spec, standard_gens(spec), ts, 6)
        data = json.loads(json.dumps(verdict_to_jsonable(spec, violator, ts)))
        assert verdict_from_jsonable(spec, data) == violator

    def test_matrix_model_round_trip(self):
        spec = matrix_group()
        ts = TranslatingSets.from_words(spec, "1,A", "1,B")
        verdict = check_domain(spec, ts, ball_vertices(spec, 2))
        assert isinstance(verdict, Certificate)
        data = json.loads(json.dumps(verdict_to_jsonable(spec, verdict, ts)))
        read_back = verdict_from_jsonable(spec, data)
        assert read_back == certificate_pairs(spec, verdict)
        assert verify_certificate(spec, ts, *read_back) == verdict
