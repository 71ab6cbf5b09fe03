"""The batch parser: ``GroupSpec.parser()`` must return exactly what
``parse_element`` returns, text by text, in any order, and raise the same
errors.  ``GroupSpec.text_translates`` must return the texts of
``translates``, and the JSON writers must write each image from its
source's text and every other text whole, by ``format_element``."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from paradec import (
    Certificate,
    GeneratingSet,
    TranslatingSets,
    check_domain,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    matrix_group,
    parse_word,
    verdict_from_jsonable,
    verdict_to_jsonable,
)
from paradec.decomposition import decomposition_to_jsonable
from paradec.errors import FreeWordLengthError
from paradec.groups import MAX_FREE_WORD_LENGTH, GroupSpec

from helpers import outcome, random_element


def _triangles():
    """free:2 over the generators a, b, c = a b (``--gens "a=a,b=b,c=a b"``)."""
    spec = free_group(2)
    gens = GeneratingSet.from_pairs(
        spec, [("a", (1,)), ("b", (2,)), ("c", spec.evaluate_word(parse_word("a b")))]
    )
    return spec, gens


CASES = {
    "free:2": (free_group(2), None, 4),
    "free:3": (free_group(3), None, 4),
    "abelian:2": (free_abelian_group(2), None, 5),
    "cyclic:7": (cyclic_group(7), None, 4),
    "sl2z": (matrix_group(), None, 3),
    "free:2 with c=a b": (*_triangles(), 3),
}


def _ball(name):
    spec, gens, radius = CASES[name]
    gens = gens or GeneratingSet.standard(spec)
    return spec, list(enumerate_ball(spec, gens, radius).vertices)


def _orders(spec, elements):
    """The ball in shortlex order, reversed, in set order, and a random
    sample of longer words whose prefixes are mostly absent."""
    rng = random.Random(5)
    shortlex = sorted(elements, key=spec.element_sort_key)
    sparse = [random_element(spec, rng, 12) for _ in range(300)]
    return {
        "shortlex": shortlex,
        "reversed": shortlex[::-1],
        "hash": list(frozenset(elements)),
        "sparse": sparse,
    }


def _same_error(call, reference, argument):
    with pytest.raises(Exception) as expected:
        reference(argument)
    with pytest.raises(Exception) as got:
        call(argument)
    assert (type(got.value), str(got.value)) == (
        type(expected.value),
        str(expected.value),
    )


@pytest.mark.parametrize("name", list(CASES))
def test_parser_matches_parse_element(name):
    spec, elements = _ball(name)
    for order, batch in _orders(spec, elements).items():
        texts = [spec.format_element(x) for x in batch]
        for listing in (texts, sorted(texts), sorted(texts, reverse=True)):
            parse = spec.parser()
            assert [parse(t) for t in listing] == [
                spec.parse_element(t) for t in listing
            ], order


def test_other_models_use_the_per_element_methods():
    for spec in (free_abelian_group(2), cyclic_group(7), matrix_group()):
        assert spec.parser() == spec.parse_element


def test_free_words_with_runs_and_unreduced_letters():
    """Runs of every length and sign, extended one letter at a time, and
    words the normal form never holds (a letter and its inverse side by
    side): their texts, each head parsed before it, parse as
    ``parse_element`` parses them."""
    spec = free_group(3)
    rng = random.Random(17)
    parse = spec.parser()
    for _ in range(60):
        word = ()
        for _ in range(rng.randint(1, 8)):
            word += (rng.choice([1, -1, 2, -2, 3, -3]),) * rng.randint(1, 70)
            for cut in range(1, len(word) + 1):
                text = spec.format_element(word[:cut])
                assert parse(text) == spec.parse_element(text)


def test_sorted_texts_parse_only_the_single_tokens_whole(monkeypatch):
    spec = free_group(3)
    vertices = enumerate_ball(spec, GeneratingSet.standard(spec), 4).vertices
    texts = sorted(spec.format_element(x) for x in vertices)
    calls = []
    parse_element = GroupSpec.parse_element

    def counted(self, text, symbols=None):
        calls.append(text)
        return parse_element(self, text, symbols)

    monkeypatch.setattr(GroupSpec, "parse_element", counted)
    parse = spec.parser()
    for text in texts:
        parse(text)
    assert calls == [t for t in texts if " " not in t]


def test_long_words_need_no_recursion():
    spec = free_group(2)
    word = (1, 2) * 20_000
    parse = spec.parser()
    for cut in (len(word) - 2, len(word) - 1, len(word)):
        assert parse(spec.format_element(word[:cut])) == word[:cut]


NON_CANONICAL = [" a", "a  b", "a^1", "a a^-1", "1 a", "a\tb", "a b\t", "a\tb c",
                 "a ", "a b ", "b a^65", "a^65", "b a^-65 a^65", "a^007 b",
                 "a b^0", "1 1", "a 1", "c^-1 c^2", "a\nb c^3"]


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_parser_reads_non_canonical_text(text):
    spec = free_group(3)
    parse = spec.parser()
    # every head first, so the text's own lookup hits where it can
    pieces = text.split(" ")
    for k in range(1, len(pieces) + 1):
        head = " ".join(pieces[:k])
        if head.strip():
            assert parse(head) == spec.parse_element(head)
    assert parse(text) == spec.parse_element(text)


BAD = ["a b!", "a d", "a d^2", "a b^", "a b^x", "a [1]", "a b^99999999999",
       "a 2", "a b^-", "a b^ c", "a $", "", "   ", "[1, 2]", "a\t[1]"]


@pytest.mark.parametrize("text", BAD)
def test_parser_errors_match_parse_element(text):
    spec = free_group(3)
    parse = spec.parser()
    for head in ("a", "a b", text.rpartition(" ")[0]):
        try:
            parse(head)
        except ValueError:
            pass
    _same_error(parse, spec.parse_element, text)


def test_text_just_over_the_old_fast_bound_parses_as_parse_element():
    """A long text one token past a remembered head, over the 31,249
    characters that once sent such texts whole to ``parse_element``,
    parses to ``parse_element``'s word, here with its last letter
    cancelled."""
    old_bound = 2 * MAX_FREE_WORD_LENGTH // 64 - 1
    spec = free_group(2)
    head = " ".join(["a", "b"] * (old_bound // 4))
    text = head + " b^-1"
    assert len(head) <= old_bound < len(text)
    parse = spec.parser()
    assert parse(head) == spec.parse_element(head)
    word = parse(text)
    assert word == spec.parse_element(text)
    assert word == (1, 2) * (old_bound // 4 - 1) + (1,)


def test_word_over_the_length_bound_raises_as_parse_element():
    spec = free_group(2)
    full = f"a^{MAX_FREE_WORD_LENGTH}"
    parse = spec.parser()
    assert len(parse(full)) == MAX_FREE_WORD_LENGTH
    assert parse(f"{full} a^-1") == (1,) * (MAX_FREE_WORD_LENGTH - 1)
    with pytest.raises(FreeWordLengthError):
        spec.parse_element(f"{full} a")
    _same_error(parse, spec.parse_element, f"{full} a")
    _same_error(parse, spec.parse_element, f"{full} b")


_R4 = ["--group", "free:3", "--s1", "1,a", "--s2", "1,b,c", "--radius", "4"]


@pytest.mark.parametrize(
    "argv",
    [["check", *_R4, "--format", "json"],
     ["decompose", *_R4, "--format", "json"],
     ["decompose", *_R4, "--format", "text"]],
    ids=["check", "decompose-json", "decompose-text"],
)
def test_cli_batches_format_through_the_codec(monkeypatch, capsys, argv):
    """On the 937-element ball, only the options and the translators are
    formatted whole; every other of the thousands of texts is stepped
    from a known text."""
    from paradec.cli import main

    calls = []
    format_element = GroupSpec.format_element

    def counted(self, x):
        calls.append(x)
        return format_element(self, x)

    monkeypatch.setattr(GroupSpec, "format_element", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) <= 30


def test_report_parses_through_the_codec(monkeypatch, capsys, tmp_path):
    from paradec.cli import main

    assert main(["check", *_R4, "--format", "json"]) == 0
    path = tmp_path / "check.json"
    path.write_text(capsys.readouterr().out)
    calls = []
    parse_element = GroupSpec.parse_element

    def counted(self, text, symbols=None):
        calls.append(text)
        return parse_element(self, text, symbols)

    monkeypatch.setattr(GroupSpec, "parse_element", counted)
    assert main(["report", "--inputs", str(path)]) == 0
    capsys.readouterr()
    assert calls and all(" " not in text for text in calls)


def _read_text_by_text(spec, data):
    """The certificate reader's reference: every text of both families
    parsed whole, pair by pair, source first."""
    return tuple(
        tuple((spec.parse_element(g), spec.parse_element(w)) for g, w in data[key])
        for key in ("phi1", "phi2")
    )


def _count_parsed(monkeypatch):
    """The texts that every ``GroupSpec.parser()`` callable is given."""
    calls = []
    parser = GroupSpec.parser

    def counted(self):
        parse = parser(self)

        def call(text):
            calls.append(text)
            return parse(text)

        return call

    monkeypatch.setattr(GroupSpec, "parser", counted)
    return calls


def test_certificate_reader_parses_no_text_whose_element_is_at_hand(monkeypatch):
    """On the r4 certificate, phi2 lists phi1's source texts, so only its
    images are parsed, and an image whose text is its source's is not
    parsed.  Reordered phi2 sources are parsed again.  Both read what the
    text-by-text reference reads."""
    spec, ts, _, cert = _r4_chain()
    data = verdict_to_jsonable(spec, cert, ts)
    calls = _count_parsed(monkeypatch)

    def whole(pairs):
        return [text for g, w in pairs for text in ([g] if w == g else [g, w])]

    assert verdict_from_jsonable(spec, data) == _read_text_by_text(spec, data)
    assert calls == whole(data["phi1"]) + [w for g, w in data["phi2"] if w != g]
    reordered = dict(data, phi2=data["phi2"][::-1])
    del calls[:]
    assert verdict_from_jsonable(spec, reordered) == _read_text_by_text(spec, reordered)
    assert calls == whole(data["phi1"]) + whole(reordered["phi2"])


# (name, phi1, phi2): documents whose first malformed text, pair by pair and
# source first, is the one named
_MALFORMED = {
    "phi1-source-before-its-image": ([["a", "b"], ["z", "q"]], [["a", "b"], ["z", "q"]]),
    "phi1-image-before-the-next-source": ([["a", "q"], ["z", "b"]], [["a", "a"], ["z", "b"]]),
    "phi2-image-of-shared-sources": ([["a", "b"], ["b", "b"]], [["a", "a"], ["b", "q"]]),
    "phi2-source-of-other-sources": ([["a", "b"], ["b", "b"]], [["b", "b"], ["z", "b"]]),
    "phi2-image-equal-to-a-malformed-source": ([["a", "b"]], [["z", "z"]]),
}


@pytest.mark.parametrize("phi1,phi2", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_certificate_reader_names_the_first_malformed_text(phi1, phi2):
    spec = free_group(2)
    data = {"kind": "certificate", "phi1": phi1, "phi2": phi2}
    got = outcome(verdict_from_jsonable, spec, data)
    assert got == outcome(_read_text_by_text, spec, data)
    assert got[0] != "returned"


# -- text columns ---------------------------------------------------------------

# Ranks 27-30 name their generators g1 ... g30, so g1 is a prefix of g12.
TEXT_COLUMN_SPECS = [free_group(rank) for rank in (1, 2, 3, 27, 28, 29, 30)] + [
    free_abelian_group(1),
    free_abelian_group(2),
    cyclic_group(5),
    cyclic_group(12),
    matrix_group(),
]


@st.composite
def text_columns(draw):
    """A model, a list of elements and a translator.  A free element is a
    product of up to four runs of one letter, of either sign and up to 70
    letters (the empty word among them); a free translator is the
    identity, one letter of either sign, a^2, a b or a^-1 b.  Elsewhere
    both are products of up to four generator powers."""
    spec = draw(st.sampled_from(TEXT_COLUMN_SPECS), label="spec")
    if spec.model == "free":
        rank = spec.rank
        generator = st.one_of(
            st.sampled_from(sorted({1, min(2, rank), min(12, rank), rank})),
            st.integers(1, rank),
        )
        g = draw(generator, label="translator letter")
        # runs of the translator's letter, where the step moves an exponent,
        # as often as runs of any other
        letter = st.one_of(st.just(g), generator).flatmap(
            lambda h: st.sampled_from([h, -h])
        )
        length = st.one_of(st.integers(1, 2), st.integers(1, 70))
        runs = st.lists(st.tuples(letter, length), max_size=4)
        element = runs.map(
            lambda rs: functools.reduce(spec.multiply, [(h,) * n for h, n in rs], ())
        )
        translators = [(), (g,), (-g,), (1, 1)]
        if rank > 1:
            translators += [(1, 2), (-1, 2)]
        # the words whose one-letter run a step drops, leaving 1
        fixed = [(), (g,), (-g,), (g, g), (-g, -g)]
    else:
        power = st.tuples(st.sampled_from(spec.generator_names), st.integers(-3, 3))
        element = st.lists(power, max_size=4).map(spec.evaluate_word)
        translators = [
            spec.evaluate_word(word)
            for word in draw(st.lists(st.lists(power, max_size=2), min_size=1, max_size=1))
        ] + [spec.identity()]
        fixed = []
    elements = draw(st.lists(element, max_size=12), label="elements") + fixed
    s = draw(st.sampled_from(translators), label="s")
    return spec, elements, s


@settings(max_examples=300, deadline=None)
@given(text_columns())
def test_text_translates_is_the_formatted_column(case):
    spec, elements, s = case
    texts = [spec.format_element(x) for x in elements]
    expected = [spec.format_element(x) for x in spec.translates(elements, s)]
    assert spec.text_translates(elements, texts, s) == expected


def _r4_chain():
    spec = free_group(3)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    domain = enumerate_ball(spec, GeneratingSet.standard(spec), 4).vertices
    return spec, ts, domain, check_domain(spec, ts, domain)


def _count_formatted(monkeypatch):
    """The elements of every ``GroupSpec.format_element`` call."""
    calls = []
    format_element = GroupSpec.format_element

    def counted(self, x):
        calls.append(x)
        return format_element(self, x)

    monkeypatch.setattr(GroupSpec, "format_element", counted)
    return calls


def test_certificate_writer_formats_only_its_sources(monkeypatch):
    """On the ball of the r4 free:3 pair the domain's texts are the ball's
    own, stepped along its shortlex numbering: no text is formatted.
    Without the ball, as for a hand-given domain, the writer formats
    |D| = 937 texts, the domain once for both families; formatting each
    family's sources took 2|D|, and every image too 4|D|."""
    spec, ts, domain, cert = _r4_chain()
    patch = enumerate_ball(spec, GeneratingSet.standard(spec), 4)
    calls = _count_formatted(monkeypatch)
    written = verdict_to_jsonable(spec, cert, ts, patch)
    assert calls == []
    assert verdict_to_jsonable(spec, cert, ts) == written
    assert len(domain) == 937
    assert calls == list(cert.domain)


def test_certificate_writer_on_a_searched_ball_formats_its_domain(monkeypatch):
    """A ball found by search, here over a, b and c = a b in free:2, has
    no shortlex numbering: its certificate, found on the interning path,
    is written with |D| texts formatted whole for the domain, as before,
    and one more per image by the two-letter c, which no string step
    writes."""
    spec = free_group(2)
    gens = GeneratingSet.from_pairs(spec, [("a", (1,)), ("b", (2,)), ("c", (1, 2))])
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c", symbols=gens.mapping())
    patch = enumerate_ball(spec, gens, 3)
    cert = check_domain(spec, ts, patch)
    assert patch.tree is None and isinstance(cert, Certificate)
    calls = _count_formatted(monkeypatch)
    verdict_to_jsonable(spec, cert, ts, patch)
    assert calls[:127] == list(cert.domain)
    assert len(calls) == 127 + cert.translators[1].count((1, 2))


def test_decompose_formats_the_domain_and_the_translators(monkeypatch, capsys):
    """Past the 8 texts of the options (the generators, S1 and S2), 5
    texts, one per translator: the domain's texts are its ball's own,
    stepped along the shortlex numbering; formatting the domain took
    |D| + 5, and every piece element too 3|D| + 5."""
    from paradec.cli import main

    spec, ts, domain, _ = _r4_chain()
    calls = _count_formatted(monkeypatch)
    assert main(["decompose", *_R4, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(domain) == 937
    generators = [x for _, x in GeneratingSet.standard(spec).pairs]
    translators = list(ts.s1 + ts.s2)
    assert calls == generators + translators + translators


def test_writers_form_no_product(monkeypatch):
    """Every translator of the r4 pair is a letter or the identity, so each
    image is one string step from its source's text."""
    spec, ts, _, cert = _r4_chain()

    def forbidden(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(GroupSpec, "multiply", forbidden)
    monkeypatch.setattr(GroupSpec, "translates", forbidden)
    verdict_to_jsonable(spec, cert, ts)
    decomposition_to_jsonable(spec, cert, ts)
