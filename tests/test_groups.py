import random

import pytest
from hypothesis import given, strategies as st

from paradec import (
    cyclic_group,
    free_abelian_group,
    free_group,
    matrix_group,
    parse_group_spec,
    parse_word,
    spec_to_string,
)
from paradec.errors import (
    FreeWordLengthError,
    MatrixOverflowError,
    ParseError,
    UnknownSymbolError,
)
from paradec.groups import MAX_FREE_WORD_LENGTH

from helpers import all_model_specs, random_element
from oracles import evaluate_word_oracle, free_reduce_oracle


class TestIdentity:
    def test_free_identity_is_empty_word(self):
        assert free_group(2).identity() == ()

    def test_abelian_identity_is_zero_vector(self):
        assert free_abelian_group(3).identity() == (0, 0, 0)

    def test_matrix_identity(self):
        assert matrix_group().identity() == (1, 0, 0, 1)

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_identity_is_neutral(self, spec):
        rng = random.Random(11)
        for _ in range(50):
            x = random_element(spec, rng)
            assert spec.multiply(spec.identity(), x) == x
            assert spec.multiply(x, spec.identity()) == x


class TestMultiply:
    def test_free_reduction(self):
        spec = free_group(2)
        # (a b)(b^-1 a) = a a
        assert spec.multiply((1, 2), (-2, 1)) == (1, 1)

    def test_abelian_componentwise(self):
        spec = free_abelian_group(2)
        assert spec.multiply((1, 2), (3, -2)) == (4, 0)

    def test_matrix_product(self):
        spec = matrix_group()
        # [[1,2],[0,1]] * [[1,0],[2,1]] = [[5,2],[2,1]]
        assert spec.multiply((1, 2, 0, 1), (1, 0, 2, 1)) == (5, 2, 2, 1)

    def test_matrix_overflow_is_loud(self):
        spec = matrix_group(generators=[(2, 1, 1, 1), (1, 1, 1, 2)])
        x = (2, 1, 1, 1)
        with pytest.raises(MatrixOverflowError):
            for _ in range(10):
                x = spec.multiply(x, x)


class TestInvert:
    def test_free_word_reversal(self):
        spec = free_group(2)
        assert spec.invert((1, 2)) == (-2, -1)

    def test_cyclic_negation(self):
        assert cyclic_group(5).invert(2) == 3

    def test_matrix_adjugate(self):
        assert matrix_group().invert((1, 2, 0, 1)) == (1, -2, 0, 1)

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_two_sided_inverse(self, spec):
        rng = random.Random(23)
        identity = spec.identity()
        for _ in range(1000):
            x = random_element(spec, rng)
            assert spec.multiply(x, spec.invert(x)) == identity
            assert spec.multiply(spec.invert(x), x) == identity


@pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
def test_associativity_random_triples(spec):
    rng = random.Random(37)
    for _ in range(1000):
        x = random_element(spec, rng, 4)
        y = random_element(spec, rng, 4)
        z = random_element(spec, rng, 4)
        assert spec.multiply(spec.multiply(x, y), z) == spec.multiply(
            x, spec.multiply(y, z)
        )


class TestEvaluateWord:
    def test_free_cancellation(self):
        spec = free_group(2)
        assert spec.evaluate_word([("a", 1), ("a", -1)]) == ()

    def test_abelian_repeated_letter(self):
        spec = free_abelian_group(1)
        assert spec.evaluate_word([("a", 1)] * 3) == (3,)

    def test_matrix_word(self):
        spec = matrix_group()
        assert spec.evaluate_word([("A", 1), ("B", 1)]) == (5, 2, 2, 1)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            free_group(2).evaluate_word([("q", 1)])


class TestFreeWordBound:
    def test_huge_power_fails_before_building(self):
        spec = free_group(3)
        with pytest.raises(FreeWordLengthError, match="99999999999 letters"):
            spec.evaluate_word(parse_word("a^99999999999"))
        with pytest.raises(FreeWordLengthError):
            spec.power((1, 2, -1), -(MAX_FREE_WORD_LENGTH + 1))

    def test_power_counts_the_reduced_length(self):
        # (a b a^-1)^n = a b^n a^-1 has n + 2 letters, not 3n
        spec = free_group(2)
        n = MAX_FREE_WORD_LENGTH - 2
        assert len(spec.power((1, 2, -1), n)) == MAX_FREE_WORD_LENGTH
        with pytest.raises(FreeWordLengthError):
            spec.power((1, 2, -1), n + 1)

    def test_long_product_of_short_tokens_fails(self):
        spec = free_group(2)
        text = " ".join(["a^999 b^-999"] * 1000)
        with pytest.raises(FreeWordLengthError, match="bound 1000000"):
            spec.parse_element(text)
        with pytest.raises(FreeWordLengthError):
            spec.parse_element(" ".join(["a^64"] * 20000))
        # cancellation keeps a long text within the bound
        assert spec.parse_element("a^600000 a^-600000 b") == (2,)

    def test_other_models_take_large_exponents(self):
        assert free_abelian_group(1).parse_element("a^99999999999") == (99999999999,)
        assert cyclic_group(7).parse_element("a^99999999999") == 99999999999 % 7

    def test_words_under_the_bound_parse_as_before(self):
        """Parsing and powering agree with plain binary powering by
        multiply, on random words with exponents up to a few thousand and
        over custom symbols."""
        rng = random.Random("free-word-bound")
        for rank in (1, 2, 3):
            spec = free_group(rank)
            names = spec.generator_names
            custom = {"x": (1, 2, -1), "y": (-1,) * 3, "z": ()}
            for _ in range(300):
                letters = [
                    (rng.choice(names), rng.randint(-3000, 3000) // rng.choice((1, 50)))
                    for _ in range(rng.randint(0, 6))
                ]
                text = " ".join(f"{n}^{e}" for n, e in letters) or "1"
                assert spec.parse_element(text) == evaluate_word_oracle(spec, letters)
                letters = [(rng.choice("xyz"), rng.randint(-40, 40)) for _ in range(4)]
                assert spec.evaluate_word(letters, custom) == evaluate_word_oracle(
                    spec, letters, custom
                )


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40))
def test_free_words_stay_reduced(letters):
    spec = free_group(3)
    word = spec.identity()
    for s in letters:
        word = spec.multiply(word, (s,))
    spec.validate_element(word)
    for a, b in zip(word, word[1:]):
        assert a != -b


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
def test_free_reduction_matches_stack_oracle(letters):
    spec = free_group(2)
    word = spec.identity()
    stack = []
    for s in letters:
        word = spec.multiply(word, (s,))
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    assert word == tuple(stack)


_FREE3_LETTERS = st.sampled_from([1, -1, 2, -2, 3, -3])


@given(st.lists(_FREE3_LETTERS, max_size=12), st.lists(_FREE3_LETTERS, max_size=1))
def test_short_right_factor_matches_stack_oracle(letters, factor):
    """A right factor of one letter or none takes the slice-or-concatenate
    path; it agrees with a plain stack reduction of the two words."""
    spec = free_group(3)
    x, y = free_reduce_oracle(letters), tuple(factor)
    assert spec.multiply(x, y) == free_reduce_oracle(x + y)


def test_short_right_factors_cancel_fully():
    spec = free_group(3)
    rng = random.Random("short-factors")
    for _ in range(200):
        word = free_reduce_oracle(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(10))
        assert spec.multiply(word, ()) == word
        assert spec.multiply((), word[:1]) == word[:1]
        x = word
        while x:
            x = spec.multiply(x, (-x[-1],))
            assert x == word[: len(x)]
        assert x == ()
    assert spec.multiply((), ()) == ()


class TestTranslates:
    """``translates(xs, s)`` is ``[multiply(x, s) for x in xs]`` on every
    model, whichever of its paths forms the column."""

    @staticmethod
    def by_multiply(spec, elements, s):
        return [spec.multiply(x, s) for x in elements]

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_equals_multiply_on_random_columns(self, spec):
        rng = random.Random(f"translates-{spec_to_string(spec)}")
        for _ in range(60):
            elements = [random_element(spec, rng) for _ in range(rng.randrange(8))]
            s = random_element(spec, rng, length=3)
            assert spec.translates(elements, s) == self.by_multiply(spec, elements, s)

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_empty_batch_and_identity_translator(self, spec):
        elements = [random_element(spec, random.Random(i)) for i in range(20)]
        assert spec.translates([], spec.identity()) == []
        assert spec.translates(iter(()), random_element(spec, random.Random(1))) == []
        assert spec.translates(elements, spec.identity()) == elements
        assert spec.translates(iter(elements), spec.identity()) == elements

    def test_free_cancelling_letter(self):
        spec = free_group(3)
        words = [(), (1,), (2, -1), (1, 2, 1), (-1,), (3, 3)]
        assert spec.translates(words, (-1,)) == [(-1,), (), (2, -1, -1), (1, 2), (-1, -1), (3, 3, -1)]
        assert spec.translates(words, (1,)) == self.by_multiply(spec, words, (1,))

    @given(
        st.lists(st.lists(_FREE3_LETTERS, max_size=8), max_size=6),
        st.lists(_FREE3_LETTERS, min_size=2, max_size=5),
    )
    def test_free_multi_letter_translators(self, words, letters):
        spec = free_group(3)
        elements = [free_reduce_oracle(word) for word in words]
        s = free_reduce_oracle(letters)
        assert spec.translates(elements, s) == [
            free_reduce_oracle(x + s) for x in elements
        ]

    def test_cyclic_wraps_around(self):
        spec = cyclic_group(12)
        assert spec.translates([0, 5, 11, 7], 7) == [7, 0, 6, 2]
        assert spec.translates(range(12), 11) == [(x + 11) % 12 for x in range(12)]

    def test_abelian_columns(self):
        spec = free_abelian_group(2)
        assert spec.translates([(0, 0), (3, -1), (-2, 5)], (-3, 1)) == [
            (-3, 1), (0, 0), (-5, 6)
        ]

    def test_sl2z_overflow_raises(self):
        spec = matrix_group()
        big = (1, 2**63 - 2, 0, 1)
        assert spec.translates([spec.identity()], big) == [big]
        with pytest.raises(MatrixOverflowError):
            spec.translates([spec.identity(), (1, 2, 0, 1)], big)


@pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
def test_hash_and_equality_consistency(spec):
    rng = random.Random(5)
    elements = [random_element(spec, rng) for _ in range(200)]
    for x in elements:
        y = spec.multiply(x, spec.identity())
        assert x == y and hash(x) == hash(y)
    # distinct normal forms compare unequal
    assert len({spec.multiply(x, spec.invert(y)) for x in elements for y in elements[:5]}) == len(
        {(spec.format_element(spec.multiply(x, spec.invert(y)))) for x in elements for y in elements[:5]}
    )


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text", ["free:3", "abelian:2", "cyclic:12", "sl2z", "sl2z:1,1,0,1,1,0,1,1"]
    )
    def test_round_trip(self, text):
        spec = parse_group_spec(text)
        assert parse_group_spec(spec_to_string(spec)) == spec

    def test_bad_model(self):
        with pytest.raises(ParseError):
            parse_group_spec("octonion:2")

    def test_bad_parameter(self):
        with pytest.raises(ParseError):
            parse_group_spec("free:x")

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(ValueError):
            free_group(0)

    def test_matrix_generators_must_be_unimodular(self):
        with pytest.raises(ValueError):
            matrix_group(generators=[(1, 0, 0, 2), (1, 0, 0, 1)])


class TestElementText:
    def test_word_parse_positions(self):
        with pytest.raises(ParseError) as info:
            parse_word("a b ^2")
        assert info.value.position == 4

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_format_parse_round_trip(self, spec):
        rng = random.Random(41)
        for _ in range(100):
            x = random_element(spec, rng)
            assert spec.parse_element(spec.format_element(x)) == x

    def test_identity_formats_as_one(self):
        for spec in all_model_specs():
            if spec.model in ("free", "cyclic"):
                assert spec.format_element(spec.identity()) == "1"
            assert spec.parse_element("1") == spec.identity()

    def test_word_syntax_for_vectors(self):
        spec = free_abelian_group(2)
        assert spec.parse_element("a b") == (1, 1)
        assert spec.parse_element("[1, 1]") == (1, 1)

    def test_matrix_brackets(self):
        spec = matrix_group()
        assert spec.parse_element("[[1, 2], [0, 1]]") == (1, 2, 0, 1)
        with pytest.raises(ValueError):
            spec.parse_element("[[1, 2], [0, 2]]")

    @pytest.mark.parametrize(
        "spec,text",
        [(free_abelian_group(1), "[true]"),
         (free_abelian_group(2), "[1, false]"),
         (matrix_group(), "[[true, 2], [0, 1]]")],
        ids=["abelian-1", "abelian-2", "sl2z"],
    )
    def test_boolean_literals_rejected(self, spec, text):
        with pytest.raises(ParseError):
            spec.parse_element(text)

    @pytest.mark.parametrize(
        "spec,element",
        [(free_group(2), (True,)),
         (free_abelian_group(2), (True, 0)),
         (cyclic_group(3), True),
         (matrix_group(), (True, 2, 0, 1))],
        ids=["free", "abelian", "cyclic", "sl2z"],
    )
    def test_boolean_entries_are_not_normal_forms(self, spec, element):
        with pytest.raises(ValueError):
            spec.validate_element(element)

    def test_free_parse_matches_word_evaluation(self):
        """Free-model ``parse_element`` agrees with a plain stack reduction
        of the text's signed letters (``free_reduce_oracle``), on unreduced
        text, zero and negative powers, leading zeros, ``1`` and mixed
        whitespace."""
        spec = free_group(3)
        rng = random.Random(97)
        tokens = ["1", "a", "b", "c", "a^-1", "b^-1", "c^-1", "a^0", "b^-0",
                  "c^2", "a^-3", "b^64", "c^-65", "a^007"]

        def letters(token: str) -> list:
            if token == "1":
                return []
            name, _, exponent = token.partition("^")
            power = int(exponent) if exponent else 1
            letter = "abc".index(name) + 1
            return [letter if power > 0 else -letter] * abs(power)

        for _ in range(2000):
            chosen = [rng.choice(tokens) for _ in range(rng.randint(1, 9))]
            text = chosen[0]
            for token in chosen[1:]:
                text += rng.choice([" ", "  ", "\t", " \n "]) + token
            expected = free_reduce_oracle(s for t in chosen for s in letters(t))
            assert spec.parse_element(text) == expected
        assert spec.parse_element("a b b^-1 a^-1") == ()
        assert spec.parse_element(" a\tb^-2\n") == (1, -2, -2)

    @pytest.mark.parametrize(
        "text", ["a b!", "a d^2", "d", "a^", "a^x", "b x1", "a^ b", "a^-1 q^0"]
    )
    def test_free_parse_errors_match_word_evaluation(self, text):
        spec = free_group(3)
        with pytest.raises(ValueError) as expected:
            spec.evaluate_word(parse_word(text))
        with pytest.raises(ValueError) as got:
            spec.parse_element(text)
        assert (type(got.value), str(got.value)) == (
            type(expected.value),
            str(expected.value),
        )

    def test_free_exponent_collapsing(self):
        spec = free_group(2)
        assert spec.format_element((1, 1, -2)) == "a^2 b^-1"
