import dataclasses
import json
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from paradec import (
    Certificate,
    GeneratingSet,
    TranslatingSets,
    check_domain,
    decomposition,
    enumerate_ball,
    free_abelian_group,
    free_group,
    free_up_to_length,
    matrix_group,
    pieces_from_certificate,
    tarski_bound_report,
    verdict_from_jsonable,
    verdict_to_jsonable,
    verify_certificate,
    verify_decomposition,
)
from paradec.cayley import letters_per_vertex
from paradec.errors import CertificateError, MatrixOverflowError, VertexBudgetError
from paradec.groups import parse_group_spec

from helpers import certificate_pairs, random_element, standard_gens
from oracles import (
    FIRST_LETTER_TRANSLATORS,
    bucket_by_division_oracle,
    first_letter_pieces,
    free_up_to_length_oracle,
    hand_built_decomposition,
    overlaps_oracle,
)


def ball(spec, radius):
    return enumerate_ball(spec, standard_gens(spec), radius)


# the report's element lists, each in the domain's order
ELEMENT_LISTS = ("uncovered1", "uncovered2", "indeterminate1", "indeterminate2")


def restricted(report, inner):
    """The report on the elements of ``inner`` alone.  Whether g is covered
    depends only on g, the pieces and the domain, so that is the whole
    report with its element lists filtered; overlaps stay as they are."""
    inner = set(inner)
    return dataclasses.replace(
        report,
        **{
            name: tuple(g for g in getattr(report, name) if g in inner)
            for name in ELEMENT_LISTS
        },
    )


class TestPiecesFromCertificate:
    def test_single_element_domain(self):
        spec = free_group(1)
        e, x = (), (1,)
        ts = TranslatingSets(s1=(e, x), s2=(e, x))
        cert = Certificate(domain=(e,), translators=((e,), (x,)))
        pd, _ = pieces_from_certificate(spec, cert, ts)
        assert dict(pd.pieces1)[e] == frozenset([e])
        assert dict(pd.pieces1)[x] == frozenset()
        assert dict(pd.pieces2)[x] == frozenset([x])
        report = verify_decomposition(spec, pd)
        assert report.passed

    def test_free2_ball3_pipeline(self):
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        domain = ball(spec, 3).vertices
        verdict = check_domain(spec, ts, domain)
        pd, report = pieces_from_certificate(spec, verdict, ts)
        assert pd.nonempty_piece_count() == 4
        assert report.passed
        assert report == verify_decomposition(spec, pd)

    def test_free3_ball3_pipeline(self):
        spec = free_group(3)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        domain = ball(spec, 3).vertices
        verdict = check_domain(spec, ts, domain)
        pd, _ = pieces_from_certificate(spec, verdict, ts)
        assert pd.nonempty_piece_count() <= 5
        assert verify_decomposition(spec, pd).passed

    def test_invalid_certificate_rejected(self):
        spec = free_group(2)
        e, a = (), (1,)
        ts = TranslatingSets(s1=(e, a), s2=(e, (2,)))
        # image (2,2) is not a translate of the identity by 1 or a
        with pytest.raises(CertificateError) as info:
            verify_certificate(spec, ts, (((), (2, 2)),), (((), (2,)),))
        assert str(info.value) == "b^2 is not a translate of 1"

    def test_round_trip_invariant_across_models(self):
        cases = [
            (free_group(2), "1,a", "1,b", 2),
            (free_group(3), "1,a", "1,b,c", 2),
            (matrix_group(), "1,A", "1,B", 2),
        ]
        for spec, s1, s2, radius in cases:
            ts = TranslatingSets.from_words(spec, s1, s2)
            domain = ball(spec, radius).vertices
            verdict = check_domain(spec, ts, domain)
            pd, _ = pieces_from_certificate(spec, verdict, ts)
            assert verify_decomposition(spec, pd).passed
            assert pd.nonempty_piece_count() <= ts.total_size()


def seeded_certificates():
    """Certificates found by check_domain on seeded random subsets of small
    balls, in several models: (spec, translating sets, certificate)."""
    cases = [
        (free_group(2), "1,a", "1,b", 3),
        (free_group(3), "1,a", "1,b,c", 3),
        (free_abelian_group(2), "1,a,a^2", "1,b,b^2", 3),
        (matrix_group(), "1,A", "1,B", 2),
    ]
    found = []
    for spec, s1, s2, radius in cases:
        ts = TranslatingSets.from_words(spec, s1, s2)
        vertices = ball(spec, radius).vertices
        rng = random.Random(len(vertices))
        for _ in range(12):
            domain = rng.sample(vertices, rng.randint(1, len(vertices)))
            verdict = check_domain(spec, ts, domain)
            if isinstance(verdict, Certificate):
                found.append((spec, ts, verdict))
    return found


# (group, S1, S2, radius): each model, with the free tree's numbering, the
# free interning path (a two-letter translator) and a torsion group
ROUND_TRIP_CASES = [
    ("free:2", "1,a", "1,b", 3),
    ("free:3", "1,a", "1,b,c", 3),
    ("free:2", "1,a^2", "1,b,a b", 2),
    ("abelian:2", "1,a,a^2", "1,b,b^2", 2),
    ("cyclic:12", "1,a^6", "1,a^4,a^8", 2),
    ("sl2z", "1,A", "1,B", 2),
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_certificate_round_trips_through_its_file(data):
    """check_domain, then the writer, ``json``, the reader and the
    verifier give back the matching's certificate, domain and labels.  A
    file whose phi2 lists its pairs in reverse verifies to the same
    certificate, its labels in phi1's order, and all three certificates
    give the same pieces and the same pieces document."""
    group, s1, s2, radius = data.draw(st.sampled_from(ROUND_TRIP_CASES), label="case")
    spec = parse_group_spec(group)
    ts = TranslatingSets.from_words(spec, s1, s2)
    patch = ball(spec, radius)
    if data.draw(st.booleans(), label="whole ball"):
        domain = patch
    else:
        domain = data.draw(
            st.lists(st.sampled_from(patch.vertices), min_size=1, max_size=8, unique=True),
            label="domain",
        )
    cert = check_domain(spec, ts, domain)
    event(f"{group} {type(cert).__name__}")
    if not isinstance(cert, Certificate):
        return
    document = json.loads(json.dumps(verdict_to_jsonable(spec, cert, ts)))
    pairs1, pairs2 = verdict_from_jsonable(spec, document)
    read_back = verify_certificate(spec, ts, pairs1, pairs2)
    assert (read_back.domain, read_back.translators) == (cert.domain, cert.translators)
    backwards = verify_certificate(spec, ts, pairs1, pairs2[::-1])
    assert (backwards.domain, backwards.translators) == (cert.domain, cert.translators)
    written = decomposition.decomposition_to_jsonable(spec, cert, ts)
    built = pieces_from_certificate(spec, cert, ts)
    for c in (read_back, backwards):
        assert pieces_from_certificate(spec, c, ts) == built
        assert decomposition.decomposition_to_jsonable(spec, c, ts) == written


class TestOnePassCertificate:
    def test_certificates_are_found(self):
        models = {spec.model for spec, _, _ in seeded_certificates()}
        assert models == {"free", "abelian", "sl2z"}

    def test_translators_are_the_quotients(self):
        # the matching's record, the search and division all name the same s
        for spec, ts, cert in seeded_certificates():
            pairs = certificate_pairs(spec, cert)
            assert verify_certificate(spec, ts, *pairs) == cert
            for family, used in zip(pairs, cert.translators):
                assert used == tuple(
                    spec.multiply(spec.invert(g), target) for g, target in family
                )

    def test_pieces_match_division_oracle(self):
        # the pieces of the matching's certificate are the oracle's pieces
        # of the pairs written to JSON and read back
        for spec, ts, cert in seeded_certificates():
            data = json.loads(json.dumps(verdict_to_jsonable(spec, cert, ts)))
            pairs1, pairs2 = verdict_from_jsonable(spec, data)
            assert verify_certificate(spec, ts, pairs1, pairs2) == cert
            pd, report = pieces_from_certificate(spec, cert, ts)
            assert dict(pd.pieces1) == {
                s: frozenset(piece)
                for s, piece in bucket_by_division_oracle(spec, pairs1, ts.s1).items()
            }
            assert dict(pd.pieces2) == {
                s: frozenset(piece)
                for s, piece in bucket_by_division_oracle(spec, pairs2, ts.s2).items()
            }
            assert report.passed
            assert not report.indeterminate1 and not report.indeterminate2

    def test_one_path_from_a_claim(self):
        """The pairs read back from JSON, and a copy with both families
        reversed, each verify to a certificate with the matching's pieces;
        each keeps the order of its phi1 as the domain."""
        for spec, ts, cert in seeded_certificates():
            recorded, _ = pieces_from_certificate(spec, cert, ts)
            data = json.loads(json.dumps(verdict_to_jsonable(spec, cert, ts)))
            pairs1, pairs2 = verdict_from_jsonable(spec, data)
            for claim in ((pairs1, pairs2), (pairs1[::-1], pairs2[::-1])):
                verified = verify_certificate(spec, ts, *claim)
                pd, report = pieces_from_certificate(spec, verified, ts)
                assert (pd.pieces1, pd.pieces2) == (recorded.pieces1, recorded.pieces2)
                assert report.passed
                assert pd.domain == verified.domain == tuple(g for g, _ in claim[0])
            assert pd.domain == recorded.domain[::-1]

    def test_a_wrong_record_is_rejected(self):
        """Relabelling one element of a free:2 radius-2 certificate moves
        its image.  Where the new image is another element's image, the
        pieces overlap and the record is rejected; elsewhere the relabelled
        record is another certificate, and passes."""
        spec = free_group(2)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b")
        cert = check_domain(spec, ts, ball(spec, 2).vertices)
        images = {w for family in certificate_pairs(spec, cert) for _, w in family}
        prefix = "certificate produced pieces that fail verification; overlaps="
        rejected = 0
        for family, translators in enumerate((ts.s1, ts.s2)):
            for i, g in enumerate(cert.domain):
                record = list(cert.translators)
                used = list(record[family])
                used[i] = translators[1 - translators.index(used[i])]
                record[family] = tuple(used)
                wrong = Certificate(cert.domain, tuple(record))
                if spec.multiply(g, used[i]) not in images:
                    assert pieces_from_certificate(spec, wrong, ts)[1].passed
                    continue
                with pytest.raises(CertificateError) as info:
                    pieces_from_certificate(spec, wrong, ts)
                message = str(info.value)
                assert message.startswith(prefix)
                overlaps, rest = message[len(prefix) :].split(" ", 1)
                assert int(overlaps) >= 1
                assert rest == "uncovered=0 indeterminate=0"
                rejected += 1
        assert rejected
        # a record made for other translating sets names a translator
        # outside them
        other = TranslatingSets.from_words(spec, "1,a", "1,b^-1")
        with pytest.raises(CertificateError) as info:
            pieces_from_certificate(spec, cert, other)
        assert str(info.value) == "recorded translator b is not in S2"

    @staticmethod
    def tampered():
        """The pairs of a free:3 radius-2 certificate tampered four ways,
        each with the message re-verification gives it."""
        spec = free_group(3)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        cert = check_domain(spec, ts, ball(spec, 2).vertices)
        pairs1, pairs2 = map(list, certificate_pairs(spec, cert))
        image1 = {t for _, t in pairs1}
        image2 = {t for _, t in pairs2}

        def retarget(pairs, translators, hit, miss):
            """The pairs with one image moved to another translate of its
            element that lies in ``hit`` and not in ``miss``."""
            i, t = next(
                (i, spec.multiply(h, s))
                for i, (h, w) in enumerate(pairs)
                for s in translators
                if spec.multiply(h, s) != w
                and spec.multiply(h, s) in hit
                and spec.multiply(h, s) not in miss
            )
            return tuple(pairs[:i] + [(pairs[i][0], t)] + pairs[i + 1 :])

        g = pairs1[3][0]
        return spec, ts, [
            (
                (tuple(pairs1[:3] + [(g, (2, 2))] + pairs1[4:]), tuple(pairs2)),
                f"b^2 is not a translate of {spec.format_element(g)}",
            ),
            (
                (retarget(pairs1, ts.s1, image1, ()), tuple(pairs2)),
                "assignment is not injective",
            ),
            (
                (tuple(pairs1), retarget(pairs2, ts.s2, image1, image2)),
                "images of the two assignments intersect",
            ),
            (
                (tuple(pairs1), tuple(pairs2[:-1])),
                "the two assignments cover different domains",
            ),
        ]

    def test_tampered_certificates_keep_their_messages(self):
        spec, ts, cases = self.tampered()
        for claim, message in cases:
            with pytest.raises(CertificateError) as info:
                verify_certificate(spec, ts, *claim)
            assert str(info.value) == message

    def test_division_oracle_rejects_the_bad_translate(self):
        spec, ts, cases = self.tampered()
        (pairs1, _), _ = cases[0]
        with pytest.raises(CertificateError, match="is not a translate of"):
            bucket_by_division_oracle(spec, pairs1, ts.s1)


class TestSl2zOverflowAfterMatch:
    """A translate is formed only up to the one that matches, so a later
    translator whose product would overflow the 64-bit range is never
    multiplied out; listed before the match, it still raises."""

    BIG = (1, 2**63 - 2, 0, 1)

    def claim(self, s1):
        spec = matrix_group()
        a, b = spec.generator_map()["A"], spec.generator_map()["B"]
        ts = TranslatingSets(s1=s1, s2=(spec.identity(), b))
        return spec, ts, (((a, a),), ((a, spec.multiply(a, b)),))

    def test_overflow_after_match_is_not_formed(self):
        spec, ts, claim = self.claim((matrix_group().identity(), self.BIG))
        cert = verify_certificate(spec, ts, *claim)
        assert cert.translators == ((spec.identity(),), ((1, 0, 2, 1),))
        pd, report = pieces_from_certificate(spec, cert, ts)
        assert report.passed
        assert dict(pd.pieces1) == {spec.identity(): frozenset([(1, 2, 0, 1)]),
                                    self.BIG: frozenset()}

    def test_overflow_before_match_still_raises(self):
        spec, ts, claim = self.claim((self.BIG, matrix_group().identity()))
        with pytest.raises(MatrixOverflowError):
            verify_certificate(spec, ts, *claim)


class TestVerifyDecomposition:
    def test_overlapping_pieces_reported(self):
        spec = free_group(2)
        e = spec.identity()
        ts = TranslatingSets(s1=(e, (1,)), s2=(e, (2,)))
        pd = hand_built_decomposition(spec, ts, {e: {e}}, {e: {e}}, domain=[e])
        report = verify_decomposition(spec, pd)
        assert not report.disjoint
        assert report.overlaps == (e,)
        assert not report.passed

    def test_vacuous_pass_on_empty_inner(self):
        spec = free_group(2)
        e = spec.identity()
        ts = TranslatingSets(s1=(e, (1,)), s2=(e, (2,)))
        pd = hand_built_decomposition(spec, ts, {}, {}, domain=[])
        report = verify_decomposition(spec, pd)
        assert report.passed

    @pytest.mark.parametrize("shared", [2, 3])
    def test_shared_elements_match_the_counting_oracle(self, shared):
        """Elements put into two or three pieces of a passing decomposition
        are the overlaps that counting element by element finds."""
        spec = free_group(3)
        ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
        pd, report = pieces_from_certificate(
            spec, check_domain(spec, ts, ball(spec, 2).vertices), ts
        )
        assert report.overlaps == overlaps_oracle(spec, pd) == ()
        pieces1 = {s: set(piece) for s, piece in pd.pieces1}
        pieces2 = {s: set(piece) for s, piece in pd.pieces2}
        owners = [pieces1[s] for s in ts.s1] + [pieces2[s] for s in ts.s2]
        shared_elements = sorted(owners[0], key=spec.element_sort_key)[:2]
        for piece in owners[1:shared]:
            piece.update(shared_elements)
        tampered = hand_built_decomposition(spec, ts, pieces1, pieces2, pd.domain)
        report = verify_decomposition(spec, tampered)
        assert report.overlaps == overlaps_oracle(spec, tampered)
        assert report.overlaps == tuple(shared_elements)
        assert not report.disjoint and not report.passed

    def test_report_lists_elements_in_domain_order(self):
        spec = free_group(2)
        pd = first_letter_pieces(2, ball(spec, 3).vertices)
        whole = verify_decomposition(spec, pd)
        assert whole.indeterminate1 and whole.indeterminate2
        backwards = dataclasses.replace(pd, domain=pd.domain[::-1])
        assert verify_decomposition(spec, backwards) == dataclasses.replace(
            whole, **{name: getattr(whole, name)[::-1] for name in ELEMENT_LISTS}
        )


class TestFirstLetterPieces:
    def test_ball1_hand_checkable(self):
        spec = free_group(2)
        domain = ball(spec, 1).vertices
        pd = first_letter_pieces(2, domain)
        pieces1 = dict(pd.pieces1)
        assert pieces1[()] == frozenset([(-1,)])
        assert pieces1[(1,)] == frozenset([(1,)])
        pieces2 = dict(pd.pieces2)
        assert pieces2[()] == frozenset([(-2,)])
        assert pieces2[(2,)] == frozenset([(2,)])
        assert restricted(verify_decomposition(spec, pd), [()]).passed

    def test_identity_in_no_piece_but_covered(self):
        spec = free_group(2)
        domain = ball(spec, 2).vertices
        pd = first_letter_pieces(2, domain)
        e = spec.identity()
        for _, piece in pd.pieces1 + pd.pieces2:
            assert e not in piece
        report = restricted(verify_decomposition(spec, pd), [e])
        assert report.passed and not report.indeterminate1

    def test_rank3_words_beyond_first_two_letters_ignored(self):
        spec = free_group(3)
        domain = ball(spec, 2).vertices
        pd = first_letter_pieces(3, domain)
        inner = [w for w in domain if len(w) <= 1]
        assert restricted(verify_decomposition(spec, pd), inner).passed

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            first_letter_pieces(1, [()])

    @pytest.mark.parametrize("radius", range(1, 6))
    def test_cross_check_with_matching_pieces(self, radius):
        # two independently built decompositions both verify on the
        # same ball (piece contents may differ)
        spec = free_group(2)
        ts = FIRST_LETTER_TRANSLATORS
        domain = ball(spec, radius).vertices
        verdict = check_domain(spec, ts, domain)
        from_matching, _ = pieces_from_certificate(spec, verdict, ts)
        assert verify_decomposition(spec, from_matching).passed
        constructed = first_letter_pieces(2, domain)
        report = verify_decomposition(spec, constructed)
        assert report.passed
        inner = [w for w in domain if len(w) < radius]
        strict = restricted(report, inner)
        assert strict.passed and not strict.indeterminate1 and not strict.indeterminate2


class TestFreeUpToLength:
    def test_matrix_pair_free_to_length_8(self):
        spec = matrix_group()
        result = free_up_to_length(spec, (1, 2, 0, 1), (1, 0, 2, 1), 8)
        assert result.free
        assert result.witness is None

    def test_commuting_pair_witness(self):
        spec = free_abelian_group(2)
        result = free_up_to_length(spec, (1, 0), (0, 1), 4)
        assert not result.free
        assert result.witness == (("g", 1), ("h", 1), ("g", -1), ("h", -1))
        assert result.witness_text() == "g h g^-1 h^-1"

    def test_identity_has_length_one_witness(self):
        spec = free_group(2)
        result = free_up_to_length(spec, spec.identity(), (2,), 3)
        assert not result.free
        assert result.witness == (("g", 1),)

    def test_inverse_pair_witness(self):
        spec = matrix_group()
        result = free_up_to_length(spec, (1, 2, 0, 1), (1, -2, 0, 1), 4)
        assert not result.free
        assert result.witness == (("g", 1), ("h", 1))

    def test_antitone_in_length(self):
        spec = matrix_group()
        results = [
            free_up_to_length(spec, (1, 2, 0, 1), (1, 0, 2, 1), bound).free
            for bound in range(1, 7)
        ]
        # once false at some bound, it stays false beyond it; here all true
        assert results == sorted(results, reverse=True)

    def test_free_generators_are_free(self):
        spec = free_group(2)
        assert free_up_to_length(spec, (1,), (2,), 6).free

    def test_matrix_pair_at_length_14(self):
        spec = matrix_group()
        result = free_up_to_length(spec, (1, 2, 0, 1), (1, 0, 2, 1), 14)
        assert result.free and result.free_up_to == 14

    def test_relation_of_odd_length(self):
        # g = h^2: the first half g meets the second half h h
        spec = free_group(2)
        result = free_up_to_length(spec, (2, 2), (2,), 6)
        assert result.witness_text() == "g h^-1 h^-1"

    def test_half_words_only_up_to_half_length(self):
        spec = free_group(3)
        calls = []

        class Counting(type(spec)):
            def multiply(self, x, y):
                calls.append(1)
                return super().multiply(x, y)

        counted = Counting("free", 3)
        assert free_up_to_length(counted, (1,), (2,), 12).free
        # the reduced words of length 1..6: 4 + 12 + ... + 972
        assert len(calls) == sum(4 * 3 ** (k - 1) for k in range(1, 7)) == 1456

    def test_budget_bounds_stored_half_words(self):
        spec = free_group(2)
        # length 4 stores the words of length <= 2: 1 + 4 + 12 = 17, of up
        # to 2 letters each
        assert free_up_to_length(spec, (1,), (2,), 4, budget=34).free
        with pytest.raises(VertexBudgetError, match=r"need 2\*3\^2 - 1 stored"):
            free_up_to_length(spec, (1,), (2,), 4, budget=33)
        with pytest.raises(VertexBudgetError):
            free_up_to_length(spec, (1,), (2,), 2000)
        with pytest.raises(VertexBudgetError):
            free_up_to_length(spec, (1,), (2,), 10**18)
        with pytest.raises(ValueError, match="vertex budget must be positive"):
            free_up_to_length(spec, (1,), (2,), 4, budget=0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_stored_half_words_fit_their_width(self, data):
        """Every half-word the search stores, a product of up to
        ceil(length/2) factors g or h, has at most the width it is counted
        at, and a budget of exactly 2*3^half - 1 half-words of that width
        admits the search while one unit less refuses it."""
        rank = data.draw(st.integers(min_value=1, max_value=3), label="rank")
        letter = st.sampled_from([(x, e) for x in "abc"[:rank] for e in (1, -1)])
        longest = data.draw(st.sampled_from([1, 3]), label="longest letters")
        word = st.lists(letter, min_size=1, max_size=longest)
        length = data.draw(st.integers(min_value=1, max_value=8), label="length")
        stored = []

        class Recording(type(free_group(rank))):
            def multiply(self, x, y):
                stored.append(super().multiply(x, y))
                return stored[-1]

        spec = Recording("free", rank)
        g, h = (spec.evaluate_word(data.draw(word)) for _ in "gh")
        half = (length + 1) // 2
        width = letters_per_vertex(spec, GeneratingSet((("g", g), ("h", h))), half)
        budget = (2 * 3**half - 1) * width
        free_up_to_length(spec, g, h, length, budget)
        assert all(len(w) <= width for w in stored)
        with pytest.raises(VertexBudgetError):
            free_up_to_length(spec, g, h, length, budget - 1)



ORACLE_SPECS = [
    "free:2",
    "abelian:2",
    "cyclic:6",
    "cyclic:11",
    "sl2z:0,-1,1,0,1,1,0,1",
]


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_meet_in_the_middle_matches_exhaustive_oracle(text):
    """Same shortest, lexicographically first witness (or none) as the
    exhaustive depth-first search, on seeded random pairs and bounds."""
    spec = parse_group_spec(text)
    rng = random.Random(f"freeness:{text}")
    relations = 0
    for _ in range(90):
        g = random_element(spec, rng, 3)
        h = random_element(spec, rng, 3)
        length = rng.randint(1, 7)
        result = free_up_to_length(spec, g, h, length)
        assert result == free_up_to_length_oracle(spec, g, h, length)
        relations += not result.free
    assert relations > 0


class TestTarskiBoundReport:
    def _certificate_entry(self, spec, s1, s2, radius):
        ts = TranslatingSets.from_words(spec, s1, s2)
        domain = ball(spec, radius).vertices
        return ts, check_domain(spec, ts, domain)

    def test_two_plus_two(self):
        spec = free_group(2)
        entry = self._certificate_entry(spec, "1,a", "1,b", 3)
        freeness = free_up_to_length(spec, (1,), (2,), 6)
        report = tarski_bound_report([entry], freeness)
        assert report.upper == 4
        assert report.lower == 4
        assert any("free subgroup" in note for note in report.justification)

    def test_two_plus_three(self):
        spec = free_group(3)
        entry = self._certificate_entry(spec, "1,a", "1,b,c", 3)
        report = tarski_bound_report([entry])
        assert report.upper == 5
        assert report.lower == 4
        assert any("not certified" in note for note in report.justification)

    def test_no_certificates(self):
        report = tarski_bound_report([])
        assert report.upper is None
        assert report.lower == 4

    def test_degenerate_families_ignored(self):
        # a singleton side can be saturated on a tiny domain, but it can
        # never be part of a paradoxical decomposition
        spec = free_group(2)
        e = spec.identity()
        ts = TranslatingSets(s1=(e,), s2=(e, (1,)))
        verdict = check_domain(spec, ts, [e])
        assert isinstance(verdict, Certificate)
        report = tarski_bound_report([(ts, verdict)])
        assert report.upper is None
