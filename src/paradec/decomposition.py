"""Decomposition pieces from certificates, verification, and Tarski bounds.

Everything here follows the right-product convention: a family of pieces
indexed by translators s covers a domain D when every g in D has g·s in
the piece of some s, i.e. the right translates piece[s]·s⁻¹ jointly
contain D.  (The classical left-translate formulation is carried over by
the inversion anti-isomorphism g -> g⁻¹.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .cayley import DEFAULT_VERTEX_BUDGET, CayleyPatch, GeneratingSet, format_label
from .cayley import letters_per_vertex, parse_label
from .doubling import Certificate, TranslatingSets, Verdict, domain_texts
from .doubling import translator_positions
from .errors import CertificateError, VertexBudgetError, WitnessError
from .groups import Element, GroupSpec

TARSKI_FLOOR = 4


@dataclass(frozen=True)
class PartialDecomposition:
    """Disjoint pieces indexed by translator, built over a finite domain.

    Piece contents may lie outside the domain (products escape any finite
    window); coverage is always asserted through translates, never through
    membership of the pieces themselves.  Each family lists its pieces in
    translator order.  ``domain`` holds each element once; pieces made
    from a certificate keep its domain order, which :func:`check_domain`
    makes element order (``GroupSpec.element_sort_key``), so no reader
    sorts it.

    ``translators`` is the record of the s whose piece holds g·s, for each
    domain element g and family, in domain order: the certificate's
    :attr:`~paradec.doubling.Certificate.translators`.  Only
    :func:`pieces_from_certificate` fills it, and
    :func:`decomposition_to_jsonable` writes each piece from it; a
    decomposition built by hand has None and cannot be written.  It takes
    no part in equality or repr.
    """

    pieces1: tuple[tuple[Element, frozenset], ...]
    pieces2: tuple[tuple[Element, frozenset], ...]
    domain: tuple[Element, ...]
    translators: "tuple[tuple[Element, ...], tuple[Element, ...]] | None" = field(
        default=None, compare=False, repr=False
    )

    def nonempty_piece_count(self) -> int:
        return sum(
            1 for _, piece in self.pieces1 + self.pieces2 if piece
        )


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of verifying a decomposition against its contract.

    ``overlaps`` lists elements sitting in more than one piece.  Uncovered
    elements are hard failures; ``indeterminate`` elements are boundary
    vertices whose translates leave the domain window, reported separately
    and never counted as failures.
    """

    disjoint: bool
    overlaps: tuple[Element, ...]
    uncovered1: tuple[Element, ...]
    uncovered2: tuple[Element, ...]
    indeterminate1: tuple[Element, ...]
    indeterminate2: tuple[Element, ...]

    @property
    def passed(self) -> bool:
        return self.disjoint and not self.uncovered1 and not self.uncovered2


def pieces_from_certificate(
    spec: GroupSpec, cert: Certificate, ts: TranslatingSets
) -> "tuple[PartialDecomposition, DecompositionReport]":
    """The pieces of a certificate: piece_i[s] = {g·s : g ∈ D, σ_i(g) = s},
    formed as one :meth:`GroupSpec.translates` column over the elements
    that the certificate labels s.  The decomposition keeps the
    certificate's domain and record for :func:`decomposition_to_jsonable`.

    Disjointness and coverage follow from the certificate properties but
    are re-verified, not assumed: the pieces are returned with their
    passing verification report over the whole domain.  Each element's
    own image lies in its piece, so a wrong record shows as overlapping
    pieces; a report that fails or has any indeterminate element raises
    :class:`CertificateError`.
    """
    domain = cert.domain

    def family(index, translators):
        used = cert.translators[index - 1]
        positions = translator_positions(spec, index, used, translators)
        return tuple(
            (s, frozenset(spec.translates([domain[i] for i in where], s)))
            for s, where in positions.items()
        )

    pd = PartialDecomposition(
        family(1, ts.s1), family(2, ts.s2), domain, translators=cert.translators
    )
    report = verify_decomposition(spec, pd)
    indeterminate = len(report.indeterminate1) + len(report.indeterminate2)
    if not report.passed or indeterminate:
        raise CertificateError(
            "certificate produced pieces that fail verification; "
            f"overlaps={len(report.overlaps)} "
            f"uncovered={len(report.uncovered1) + len(report.uncovered2)} "
            f"indeterminate={indeterminate}"
        )
    return pd, report


def verify_decomposition(spec: GroupSpec, pd: PartialDecomposition) -> DecompositionReport:
    """Check pairwise disjointness and translate-coverage of the domain.

    A domain element g counts as covered by family i when g·s lies in the
    piece of some translator s.  The translates of g are formed in
    translator order up to the first that covers g, as one
    :meth:`GroupSpec.translates` column per translator over the elements
    that no earlier translator covered (so a matrix overflow is raised at
    the first overflowing product of the first such column).  If g is not
    covered but one of its translates leaves the domain, the finite window
    simply cannot decide it: such g are reported as indeterminate rather
    than failed.  Pieces bucketed from a certificate hold every element's
    own image, so :func:`pieces_from_certificate` counts an indeterminate g
    as a failure.

    Whether g is covered depends only on g, the pieces and the domain, so
    the report on a subset of the domain is this report filtered.  Elements
    are listed in the domain's order.  The pieces are disjoint exactly when
    their sizes add up to the size of their union; elements are counted one
    by one only when they do not.
    """
    domain = set(pd.domain)

    pieces = [piece for _, piece in pd.pieces1 + pd.pieces2]
    overlaps: tuple[Element, ...] = ()
    if sum(map(len, pieces)) != len(frozenset().union(*pieces)):
        counts: dict[Element, int] = {}
        for piece in pieces:
            for x in piece:
                counts[x] = counts.get(x, 0) + 1
        overlaps = tuple(
            sorted((x for x, c in counts.items() if c > 1), key=spec.element_sort_key)
        )

    def coverage(pieces: tuple[tuple[Element, frozenset], ...]):
        piece_of = dict(pieces)
        # the elements no translator has covered yet, in domain order, and
        # those among them with a translate outside the domain
        pending = list(pd.domain)
        escaped = set()
        for s, _ in pieces:
            piece = piece_of[s]
            left = []
            for g, target in zip(pending, spec.translates(pending, s)):
                if target not in piece:
                    left.append(g)
                    if target not in domain:
                        escaped.add(g)
            pending = left
        uncovered = tuple(g for g in pending if g not in escaped)
        indeterminate = tuple(g for g in pending if g in escaped)
        return uncovered, indeterminate

    uncovered1, indeterminate1 = coverage(pd.pieces1)
    uncovered2, indeterminate2 = coverage(pd.pieces2)
    return DecompositionReport(
        disjoint=not overlaps,
        overlaps=overlaps,
        uncovered1=uncovered1,
        uncovered2=uncovered2,
        indeterminate1=indeterminate1,
        indeterminate2=indeterminate2,
    )


@dataclass(frozen=True)
class FreenessResult:
    """Outcome of the exhaustive short-relation search.

    ``witness`` is the shortest nonempty reduced word in g, h evaluating to
    the identity, as (symbol, sign) pairs over the names "g" and "h", or
    None when every word up to the length bound is nontrivial.
    """

    free_up_to: int
    witness: "tuple[tuple[str, int], ...] | None"

    @property
    def free(self) -> bool:
        return self.witness is None

    def witness_text(self) -> "str | None":
        if self.witness is None:
            return None
        return " ".join(format_label(name, sign) for name, sign in self.witness)


# The four letters of a word in g, h, in the witness order; letter i ^ 1 is
# the inverse of letter i.
_LETTERS = (("g", 1), ("g", -1), ("h", 1), ("h", -1))


def free_up_to_length(
    spec: GroupSpec,
    g: Element,
    h: Element,
    length: int,
    budget: "int | None" = None,
) -> FreenessResult:
    """True freeness evidence up to ``length``: every nonempty reduced word
    in {g±1, h±1} of that length or less must miss the identity.

    Meet in the middle.  A reduced word of length ℓ is x·y⁻¹, where x is its
    first ⌈ℓ/2⌉ letters, and it is the identity exactly when the reduced
    words x and y (of length ⌊ℓ/2⌋) have the same value and different last
    letters.  So only the reduced words of length up to ⌈length/2⌉ are
    built, level by level with one group multiply each, and grouped by
    value; the first ℓ with such a pair is the shortest relation.  The
    witness is the lexicographically first relation of that length in the
    letter order g, g⁻¹, h, h⁻¹: the first x in that order that has a
    partner, followed by the smallest y⁻¹.  Cost O(3^(length/2)).

    A full search stores 2·3^⌈length/2⌉ − 1 words, the reduced words of
    the radius-⌈length/2⌉ ball over g and h, and each costs
    :func:`letters_per_vertex` units of that ball against ``budget``
    (default: the vertex budget); when the total exceeds the budget
    :class:`VertexBudgetError` is raised before any word is built.
    """
    if length < 1:
        raise ValueError("length bound must be at least 1")
    budget = DEFAULT_VERTEX_BUDGET if budget is None else budget
    if budget < 1:
        raise ValueError("vertex budget must be positive")
    half = (length + 1) // 2
    width = letters_per_vertex(spec, GeneratingSet((("g", g), ("h", h))), half)
    # 3^half exceeds any budget shorter than half bits, so the power is only
    # formed when it is small.
    if half > budget.bit_length() or (2 * 3**half - 1) * width > budget:
        letters = "" if width == 1 else f" of up to {width} letters each"
        raise VertexBudgetError(
            f"relations up to length {length} need 2*3^{half} - 1 stored "
            f"half-words{letters}, over the vertex budget {budget}"
        )
    elements = (g, spec.invert(g), h, spec.invert(h))
    # Level k lists the reduced words of length k in letter order, each as
    # its value, the index of its prefix in level k - 1 and its last letter
    # (-1 for the empty word, which no letter inverts).
    values = [[spec.identity()]]
    parents = [[-1]]
    lasts = [[-1]]
    by_value = [{values[0][0]: [0]}]

    def extend() -> None:
        level_values, level_parents, level_lasts = [], [], []
        for i, (value, last) in enumerate(zip(values[-1], lasts[-1])):
            for letter, element in enumerate(elements):
                if letter != last ^ 1:
                    level_values.append(spec.multiply(value, element))
                    level_parents.append(i)
                    level_lasts.append(letter)
        index: dict = {}
        for i, value in enumerate(level_values):
            index.setdefault(value, []).append(i)
        values.append(level_values)
        parents.append(level_parents)
        lasts.append(level_lasts)
        by_value.append(index)

    def word(k: int, i: int) -> list:
        letters = []
        for level in range(k, 0, -1):
            letters.append(lasts[level][i])
            i = parents[level][i]
        letters.reverse()
        return letters

    def relation(p: int, q: int) -> "list | None":
        partners = by_value[q]
        for i, value in enumerate(values[p]):
            last = lasts[p][i]
            tails = [
                [letter ^ 1 for letter in reversed(word(q, j))]
                for j in partners.get(value, ())
                if lasts[q][j] != last
            ]
            if tails:
                return word(p, i) + min(tails)
        return None

    for ell in range(1, length + 1):
        p, q = (ell + 1) // 2, ell // 2
        if p == len(values):
            extend()
        found = relation(p, q)
        if found is not None:
            return FreenessResult(
                free_up_to=length, witness=tuple(_LETTERS[i] for i in found)
            )
    return FreenessResult(free_up_to=length, witness=None)


def verify_freeness(
    spec: GroupSpec,
    g: Element,
    h: Element,
    result: FreenessResult,
    budget: "int | None" = None,
) -> None:
    """Check a recorded freeness result again.  Raises :class:`WitnessError`.

    A recorded relation must be a freely reduced word of 1 to
    ``free_up_to`` letters in g^±1, h^±1 that evaluates to the identity.

    A claim that no such word exists is decided.  If g and h commute,
    g h g^-1 h^-1 is a relation of length 4, so the claim fails once the
    bound reaches 4; abelian and cyclic pairs always commute.  If they do
    not commute in a free group, the claim holds at every bound: ⟨g, h⟩ is
    free (Nielsen–Schreier) of rank 2, and a generating pair of a free group
    of rank 2 is a basis (it is Hopfian).  The rest, a commuting pair under
    a bound below 4 or a pair in sl2z that does not commute, is searched
    again with :func:`free_up_to_length` under ``budget`` (default: the
    vertex budget), which raises :class:`VertexBudgetError` when the search
    does not fit.
    """
    witness = result.witness
    if witness is None:
        commute = spec.multiply(g, h) == spec.multiply(h, g)
        if commute and result.free_up_to >= 4:
            raise WitnessError(
                f"free claimed up to length {result.free_up_to}, but "
                f"g = {spec.format_element(g)} and h = {spec.format_element(h)} "
                "commute, so g h g^-1 h^-1 is a relation"
            )
        if not commute and spec.model == "free":
            return
        found = free_up_to_length(spec, g, h, result.free_up_to, budget).witness_text()
        if found is not None:
            raise WitnessError(
                f"free claimed up to length {result.free_up_to}, but {found!r} is "
                f"the identity on g = {spec.format_element(g)}, "
                f"h = {spec.format_element(h)}"
            )
        return
    for name, sign in witness:
        if name not in ("g", "h"):
            raise WitnessError(
                f"witness letter {format_label(name, sign)!r} is not g, g^-1, h or h^-1"
            )
    if any(prev == (name, -sign) for prev, (name, sign) in zip(witness, witness[1:])):
        raise WitnessError(f"witness {result.witness_text()!r} is not freely reduced")
    if not 1 <= len(witness) <= result.free_up_to:
        raise WitnessError(
            f"witness of {len(witness)} letters is not within the length "
            f"bound 1 to {result.free_up_to}"
        )
    if spec.evaluate_word(witness, {"g": g, "h": h}) != spec.identity():
        raise WitnessError(
            f"witness {result.witness_text()!r} is not the identity on "
            f"g = {spec.format_element(g)}, h = {spec.format_element(h)}"
        )


@dataclass(frozen=True)
class TarskiBoundReport:
    """Bounds supported by finite-domain evidence only.

    ``upper`` is the least m+n over verified certificate families with at
    least two translators on each side (a paradoxical decomposition forces
    m, n >= 2, so smaller families say nothing about the group).  ``lower``
    is always the universal floor 4.
    """

    upper: "int | None"
    lower: int
    justification: tuple[str, ...]

    def __post_init__(self):
        if self.lower < TARSKI_FLOOR:
            raise ValueError("the Tarski lower bound is never below 4")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("upper bound below lower bound")

    def to_jsonable(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "justification": list(self.justification),
        }


def tarski_bound_report(
    certificates: Sequence[tuple[TranslatingSets, Verdict]],
    freeness: "FreenessResult | None" = None,
) -> TarskiBoundReport:
    """Aggregate certificate families and freeness evidence into bounds.

    Each certificate is taken as verified, and its domain's size is
    named.  Every conclusion is labeled as finite-domain evidence; no
    group-level value is ever asserted.
    """
    notes = ["all bounds rest on finite-domain evidence only"]
    upper = None
    for ts, verdict in certificates:
        if not isinstance(verdict, Certificate):
            continue
        total = ts.total_size()
        if len(ts.s1) < 2 or len(ts.s2) < 2:
            notes.append(
                f"ignored certificate with {len(ts.s1)}+{len(ts.s2)} translators: "
                "a paradoxical decomposition needs at least 2 on each side"
            )
            continue
        notes.append(
            f"certificate with m+n = {total} on a domain of "
            f"{len(verdict.domain)} elements"
        )
        if upper is None or total < upper:
            upper = total
    notes.append("lower bound 4: Tarski numbers are never smaller")
    if freeness is not None and freeness.free:
        notes.append(
            "= 4 achievable only with a free subgroup; freeness evidence true "
            f"up to length {freeness.free_up_to}"
        )
    else:
        notes.append("> 4 not certified")
    return TarskiBoundReport(upper=upper, lower=TARSKI_FLOOR, justification=tuple(notes))


# -- serialization -------------------------------------------------------------


def decomposition_to_jsonable(
    spec: GroupSpec, pd: PartialDecomposition, ball: "CayleyPatch | None" = None
) -> dict:
    """The JSON form of a decomposition: the domain's texts, sorted, and
    each family's pieces in translator order, as ``[s, sorted texts]``.

    The domain is written once, by :func:`~paradec.doubling.domain_texts`,
    which reads the texts of ``ball``, the patch the certificate was found
    on, when the domain is its vertex order.  A piece is not formatted:
    the piece of s is the images g·s of the domain elements that
    :attr:`PartialDecomposition.translators` assigns to s, written as one
    :meth:`GroupSpec.text_translates` column of their texts.  A
    decomposition without that record raises :class:`ValueError`.
    """
    if pd.translators is None:
        raise ValueError(
            "a decomposition without its translator record cannot be written; "
            "build it with pieces_from_certificate"
        )
    fmt = spec.formatter()
    elements = pd.domain
    texts = domain_texts(spec, elements, ball)

    def family(index, pieces):
        used = pd.translators[index - 1]
        positions = translator_positions(spec, index, used, [s for s, _ in pieces])
        written = []
        for s, where in positions.items():
            column = spec.text_translates(
                [elements[i] for i in where], [texts[i] for i in where], s
            )
            written.append([fmt(s), sorted(column)])
        return written

    return {
        "pieces1": family(1, pd.pieces1),
        "pieces2": family(2, pd.pieces2),
        "domain": sorted(texts),
    }


def freeness_from_jsonable(data: dict) -> FreenessResult:
    """Read back the ``max_length`` and ``witness`` of a ``free-check``
    output.  The length must be a JSON integer of at least 1, the witness
    null or a word, and ``free`` must say whether the witness is null."""
    free_up_to = data["max_length"]
    witness = data["witness"]
    # JSON true would pass as the length 1
    if type(free_up_to) is not int or free_up_to < 1:
        raise ValueError(f"max_length {free_up_to!r} is not an integer >= 1")
    if witness is not None and not isinstance(witness, str):
        raise ValueError(f"witness {witness!r} is neither null nor a word")
    if data["free"] is not (witness is None):
        raise ValueError(f"free {data['free']!r} disagrees with witness {witness!r}")
    if witness is not None:
        witness = tuple(parse_label(token) for token in witness.split())
    return FreenessResult(free_up_to=free_up_to, witness=witness)


def verification_to_jsonable(spec: GroupSpec, report: DecompositionReport) -> dict:
    fmt = spec.formatter()

    def texts(elements):
        return [fmt(x) for x in elements]

    return {
        "disjoint": report.disjoint,
        "overlaps": texts(report.overlaps),
        "uncovered1": texts(report.uncovered1),
        "uncovered2": texts(report.uncovered2),
        "indeterminate1": texts(report.indeterminate1),
        "indeterminate2": texts(report.indeterminate2),
        "passed": report.passed,
    }


def report_to_text(pieces: dict) -> str:
    """Plain-text pretty-printer of a :func:`decomposition_to_jsonable`
    document: each piece as its translator and its sorted word list."""
    lines = []
    for title, key in (("family 1", "pieces1"), ("family 2", "pieces2")):
        for s, words in pieces[key]:
            lines.append(f"{title} piece[{s}] = {{{', '.join(words)}}}")
    return "\n".join(lines)
