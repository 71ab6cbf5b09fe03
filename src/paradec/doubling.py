"""Exact doubling checks on finite domains.

The doubling condition for translating sets S1, S2 asks that
|A1·S1 ∪ A2·S2| >= |A1| + |A2| for all finite A1, A2.  Restricted to
subsets of a finite domain D this is exactly Hall's condition on the
bipartite graph with left side D x {1,2} and right side D·S1 ∪ D·S2, so a
single maximum-matching computation replaces the 4^|D| naive subset checks:
a saturating matching yields an explicit pair of injections (a certificate),
and a deficiency witness yields an explicit violating pair (A1, A2).

The independent oracle that enumerates all 4^|D| subset pairs outright,
``brute_force_check``, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .cayley import GeneratingSet, ball_levels, product_set
from .errors import CertificateError, ParseError, ViolatorError
from .groups import Element, GroupSpec
from .matching import UNMATCHED, alternating_reachable, hopcroft_karp


@dataclass(frozen=True)
class TranslatingSets:
    """The two finite translator lists; elements are distinct within each."""

    s1: tuple[Element, ...]
    s2: tuple[Element, ...]

    def __post_init__(self):
        if not self.s1 or not self.s2:
            raise ValueError("both translating sets must be nonempty")
        if len(set(self.s1)) != len(self.s1) or len(set(self.s2)) != len(self.s2):
            raise ValueError("translators within a set must be distinct")

    @classmethod
    def from_words(
        cls, spec: GroupSpec, s1_words: str, s2_words: str, symbols=None
    ) -> "TranslatingSets":
        """Parse comma-separated word syntax, e.g. ``"1,a"`` and ``"1,b,c"``.

        A bracketed vector or matrix literal such as ``"1,[1,0]"`` keeps the
        commas between its brackets."""
        def parse_list(text: str) -> tuple[Element, ...]:
            return tuple(
                spec.parse_element(part, symbols)
                for part in _split_outside_brackets(text)
            )

        return cls(parse_list(s1_words), parse_list(s2_words))

    @classmethod
    def from_jsonable(cls, spec: GroupSpec, data: dict) -> "TranslatingSets":
        """The ``s1`` and ``s2`` of a ``check`` output, each a JSON list of
        element texts."""
        return cls(
            tuple(map(spec.parse_element, _json_texts(data, "s1"))),
            tuple(map(spec.parse_element, _json_texts(data, "s2"))),
        )

    def total_size(self) -> int:
        return len(self.s1) + len(self.s2)


def _split_outside_brackets(text: str) -> list[str]:
    """Cut ``text`` at the commas that no square bracket encloses."""
    parts = []
    start = 0
    opened: list[int] = []
    for i, char in enumerate(text):
        if char == "[":
            opened.append(i)
        elif char == "]":
            if not opened:
                raise ParseError(f"unbalanced ']' in translator list {text!r}", i)
            opened.pop()
        elif char == "," and not opened:
            parts.append(text[start:i])
            start = i + 1
    if opened:
        raise ParseError(f"unclosed '[' in translator list {text!r}", opened[0])
    parts.append(text[start:])
    return parts


@dataclass(frozen=True)
class Certificate:
    """Saturating-matching witness: phi_i(g) ∈ g·S_i, both injective, images
    disjoint.  Pairs are sorted by domain element for reproducibility.

    ``translators`` is the matching's record of the s with phi_i(g) = g·s
    for each pair, per family in pair order: the shape that
    :func:`verify_certificate` returns.  Only :func:`check_domain` fills
    it; a certificate read back from JSON or built by hand has None.  It
    takes no part in equality or repr, so a certificate read back still
    equals the one that the matching made.  :func:`verdict_to_jsonable`
    and :func:`~paradec.decomposition.pieces_from_certificate` read it, or
    take it from :func:`verify_certificate` when it is None.
    """

    pairs1: tuple[tuple[Element, Element], ...]
    pairs2: tuple[tuple[Element, Element], ...]
    translators: "tuple[tuple[Element, ...], tuple[Element, ...]] | None" = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class Violator:
    """Explicit Hall violator: |A1·S1 ∪ A2·S2| = union_size < |A1| + |A2|."""

    a1: tuple[Element, ...]
    a2: tuple[Element, ...]
    union_size: int


Verdict = Union[Certificate, Violator]


def verify_certificate(
    spec: GroupSpec, ts: TranslatingSets, cert: Certificate
) -> tuple[tuple[Element, ...], tuple[Element, ...]]:
    """Re-verify from scratch that each phi_i is a function on one nonempty
    domain, with membership, injectivity and image disjointness.

    Returns, for each family, the translator s with phi_i(g) = g·s of each
    pair, in pair order.  That s is unique, since g·s = g·s' forces
    s = s', so the search stops at the first translate that matches.
    Raises :class:`CertificateError` on any failure.
    """
    multiply = spec.multiply
    images: list[set] = []
    domains: list[set] = []
    found: list[tuple] = []
    for family, pairs, translators in ((1, cert.pairs1, ts.s1), (2, cert.pairs2, ts.s2)):
        image = set()
        used = []
        for g, target in pairs:
            for s in translators:
                if multiply(g, s) == target:
                    used.append(s)
                    break
            else:
                raise CertificateError(
                    f"{spec.format_element(target)} is not a translate of "
                    f"{spec.format_element(g)}"
                )
            image.add(target)
        domain = {g for g, _ in pairs}
        if len(domain) != len(pairs):
            repeated = next(g for g, n in Counter(g for g, _ in pairs).items() if n > 1)
            raise CertificateError(
                f"phi{family} assigns {spec.format_element(repeated)} more than once"
            )
        if len(image) != len(pairs):
            raise CertificateError("assignment is not injective")
        images.append(image)
        domains.append(domain)
        found.append(tuple(used))
    if images[0] & images[1]:
        raise CertificateError("images of the two assignments intersect")
    if domains[0] != domains[1]:
        raise CertificateError("the two assignments cover different domains")
    if not domains[0]:
        raise CertificateError("the domain is empty")
    return found[0], found[1]


def verify_violator(spec: GroupSpec, ts: TranslatingSets, violator: Violator) -> None:
    """Recompute the product-set union and check strict deficiency.

    Raises :class:`ViolatorError` on any failure.
    """
    union = product_set(spec, violator.a1, ts.s1) | product_set(
        spec, violator.a2, ts.s2
    )
    if len(union) != violator.union_size:
        raise ViolatorError(
            f"recorded union size {violator.union_size} != recomputed {len(union)}"
        )
    if len(union) >= len(violator.a1) + len(violator.a2):
        raise ViolatorError("recorded pair does not violate the doubling condition")


class _HallGraph:
    """The bipartite graph of Hall's condition on a domain D that may grow:
    a left vertex (copy, g) for each g ∈ D and copy 1, 2, adjacent to the
    right vertices g·s, s ∈ S_copy.  Right vertices are the exact products,
    computed in the group and never clipped to a patch.  They are numbered
    column by column, one column per distinct translator, and a product
    seen in an earlier column or an earlier :meth:`extend` keeps its index.
    That numbering is only a name: the matching and the alternating reach
    visit left vertices in index order and each row in translator order,
    and read a right index only as a key, so any numbering gives the same
    pairs of elements.  The identity translator's product is g itself, so
    it is not formed."""

    def __init__(self, spec: GroupSpec, ts: TranslatingSets):
        self.spec = spec
        self.ts = ts
        self.lefts: list[tuple[int, Element]] = []
        self.adjacency: list[Sequence[int]] = []
        # insertion order is index order, so list(right_index) is the
        # right side by index
        self.right_index: dict[Element, int] = {}

    def extend(self, elements: Sequence[Element]) -> None:
        """Append copy 1 of every element, then copy 2 of every element.

        Each distinct translator s forms its column g·s once over the
        batch, so a translator in both S1 and S2 costs one product per
        element; the rows are the columns zipped in translator order."""
        translates = self.spec.translates
        identity = self.spec.identity()
        right_index = self.right_index
        intern = right_index.setdefault
        columns = {}
        for s in dict.fromkeys(self.ts.s1 + self.ts.s2):
            if s == identity:
                products = elements
            else:
                products = translates(elements, s)
            columns[s] = [intern(w, len(right_index)) for w in products]
        for copy, translators in ((1, self.ts.s1), (2, self.ts.s2)):
            self.lefts.extend((copy, g) for g in elements)
            self.adjacency.extend(zip(*(columns[s] for s in translators)))

    def match(
        self, start: "tuple[list[int], list[int]] | None" = None
    ) -> tuple[list[int], list[int]]:
        return hopcroft_karp(self.adjacency, len(self.right_index), start)

    def certificate(self, pair_left: Sequence[int]) -> Certificate:
        """The pairs (g, g·s) of a saturating matching, with the record of
        each pair's s.  A row lists its right vertices in S_copy order, so
        the matched vertex's position in the row names s; it is unique,
        since g·s = g·s' forces s = s'."""
        right_elements = list(self.right_index)
        pairs: tuple[list, list] = ([], [])
        used: tuple[list, list] = ([], [])
        translators = (self.ts.s1, self.ts.s2)
        for (copy, g), row, j in zip(self.lefts, self.adjacency, pair_left):
            pairs[copy - 1].append((g, right_elements[j]))
            used[copy - 1].append(translators[copy - 1][row.index(j)])
        return Certificate(
            pairs1=tuple(pairs[0]),
            pairs2=tuple(pairs[1]),
            translators=(tuple(used[0]), tuple(used[1])),
        )

    def violator(self, pair_left: Sequence[int], pair_right: Sequence[int]) -> Violator:
        """The left vertices reached by alternating paths from unmatched
        ones, shrunk.  That set is the same for every maximum matching
        (Dulmage-Mendelsohn), so the violator does not depend on how the
        matching was found."""
        reach_left, _ = alternating_reachable(self.adjacency, pair_left, pair_right)
        a1 = [g for (copy, g), r in zip(self.lefts, reach_left) if r and copy == 1]
        a2 = [g for (copy, g), r in zip(self.lefts, reach_left) if r and copy == 2]
        violator = _shrink_violator(self.spec, self.ts, a1, a2)
        verify_violator(self.spec, self.ts, violator)
        return violator


def check_domain(
    spec: GroupSpec, ts: TranslatingSets, domain: Iterable[Element]
) -> Verdict:
    """Decide the doubling condition for all A1, A2 ⊆ D with one matching.

    The right-side universe D·S1 ∪ D·S2 is computed exactly in the group,
    never clipped to a patch.  On deficiency, the violator comes from
    alternating reachability and is then shrunk greedily (smaller violators
    are human-checkable; true minimality is the job of the exhaustive oracle
    in ``tests/oracles.py``).
    """
    # dict.fromkeys keeps the domain's order, and a ball arrives in element
    # order already, so the sort is one linear pass
    elements = sorted(dict.fromkeys(domain), key=spec.element_sort_key)
    if not elements:
        raise ValueError("domain must be nonempty")
    graph = _HallGraph(spec, ts)
    graph.extend(elements)
    pair_left, pair_right = graph.match()
    if UNMATCHED in pair_left:
        return graph.violator(pair_left, pair_right)
    return graph.certificate(pair_left)


def _shrink_violator(spec, ts, a1: list, a2: list) -> Violator:
    """Drop elements one at a time while the pair still violates.

    Greedy over A1 then A2, each in element order.  The products g·s are
    computed once, a translator column at a time, and their multiplicities
    are kept in a plain dict, counted once through a ``Counter``: a
    candidate removal decrements its row's counts in place and shrinks the
    union by the products whose count drops to zero, O(|S|) per candidate,
    and a removal that is not kept adds them back.  The violator carries
    the union size so tracked; :func:`verify_violator` recounts it.
    """
    a1 = sorted(a1, key=spec.element_sort_key)
    a2 = sorted(a2, key=spec.element_sort_key)
    counted: Counter = Counter()
    sides = []
    for which, translators in ((a1, ts.s1), (a2, ts.s2)):
        columns = [spec.translates(which, s) for s in translators]
        for column in columns:
            counted.update(column)
        sides.append(zip(which, zip(*columns)))
    counts = dict(counted)
    union_size = len(counts)
    size = len(a1) + len(a2)
    kept: tuple[list, list] = ([], [])
    for side, keep in zip(sides, kept):
        for g, row in side:
            lost = 0
            for w in row:
                count = counts[w] - 1
                counts[w] = count
                if not count:
                    lost += 1
            if union_size - lost < size - 1:
                union_size -= lost
                size -= 1
            else:
                for w in row:
                    counts[w] += 1
                keep.append(g)
    return Violator(tuple(kept[0]), tuple(kept[1]), union_size)


def minimal_violating_radius(
    spec: GroupSpec,
    gens: GeneratingSet,
    ts: TranslatingSets,
    max_radius: int,
    vertex_budget: "int | None" = None,
) -> "tuple[int, Violator] | None":
    """Smallest ball radius whose domain admits a violator, or None.

    One ball and one matching grow a level at a time.  The matching
    saturated the left side at every smaller radius, so only the new
    level's left vertices start unmatched, and the search augments from
    them alone.  The ball is never built past the radius that answers.
    Its vertices count :func:`letters_per_vertex` units of the budget at
    ``max_radius`` and the translators of ``ts``.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    graph = _HallGraph(spec, ts)
    matching = None
    levels = ball_levels(spec, gens, max_radius, vertex_budget, ts.s1 + ts.s2)
    for radius, sphere in enumerate(levels):
        graph.extend(sphere)
        matching = graph.match(matching)
        if UNMATCHED in matching[0]:
            return radius, graph.violator(*matching)
    return None


# -- serialization -------------------------------------------------------------


def translator_positions(
    spec: GroupSpec, family: int, used: Sequence[Element], translators: Sequence[Element]
) -> dict:
    """s -> the positions i with ``used[i] == s``, in increasing order, for
    each translator s of S_family, in S order.  ``used`` is a translator
    record (:attr:`Certificate.translators`); a recorded translator that is
    not in S_family raises :class:`CertificateError`."""
    positions: dict = {s: [] for s in translators}
    for i, s in enumerate(used):
        try:
            positions[s].append(i)
        except KeyError:
            raise CertificateError(
                f"recorded translator {spec.format_element(s)} is not in S{family}"
            ) from None
    return positions


def verdict_to_jsonable(spec: GroupSpec, verdict: Verdict, ts: TranslatingSets) -> dict:
    """The JSON form of a verdict: a violator's two sets as texts, or a
    certificate's ``[g, phi_i(g)]`` text pairs per family, in pair order.

    A certificate's sources are formatted by one batch formatter, each
    family in its own pair order, so the second family's are memo hits.
    Its images are not formatted: each translator s writes the images g·s
    of the pairs that :attr:`Certificate.translators` assigns to it as one
    :meth:`GroupSpec.text_translates` column of their sources' texts, so
    the record is trusted: a pair is written as ``[g, g·s]``.  A
    certificate without that record takes it from
    :func:`verify_certificate`, which raises :class:`CertificateError` on
    a certificate that fails.
    """
    fmt = spec.formatter()
    if isinstance(verdict, Certificate):
        used = verdict.translators or verify_certificate(spec, ts, verdict)
        identity = spec.identity()

        def family(index, pairs, translators):
            sources = [g for g, _ in pairs]
            texts = list(map(fmt, sources))
            # g·1 = g, so the identity's images are their sources' texts
            images = texts[:]
            positions = translator_positions(spec, index, used[index - 1], translators)
            for s, where in positions.items():
                if s == identity:
                    continue
                column = spec.text_translates(
                    [sources[i] for i in where], [texts[i] for i in where], s
                )
                for i, image in zip(where, column):
                    images[i] = image
            return [[g, w] for g, w in zip(texts, images)]

        return {
            "kind": "certificate",
            "phi1": family(1, verdict.pairs1, ts.s1),
            "phi2": family(2, verdict.pairs2, ts.s2),
        }
    return {
        "kind": "violator",
        "a1": [fmt(g) for g in verdict.a1],
        "a2": [fmt(g) for g in verdict.a2],
        "union_size": verdict.union_size,
    }


def _json_texts(data: dict, key: str) -> list:
    """``data[key]``, which must be a JSON list of element texts: a string
    there would otherwise be read one character at a time."""
    texts = data[key]
    if type(texts) is not list or not all(type(text) is str for text in texts):
        raise ValueError(f"{key} is not a list of element texts")
    return texts


def _json_text_pairs(data: dict, key: str) -> list:
    """``data[key]``, which must be a JSON list of ``[element, image]``
    lists of two element texts."""
    pairs = data[key]
    if type(pairs) is not list or not all(
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) is str
        and type(pair[1]) is str
        for pair in pairs
    ):
        raise ValueError(f"{key} is not a list of [element, image] text pairs")
    return pairs


def verdict_from_jsonable(spec: GroupSpec, data: dict) -> Verdict:
    """Read back :func:`verdict_to_jsonable`'s document.  ``phi1`` and
    ``phi2`` must be lists of two-text lists, ``a1`` and ``a2`` lists of
    texts and ``union_size`` an integer; anything else is a
    :class:`ValueError`.  Nothing is verified here."""
    parse = spec.parser()
    if data["kind"] == "certificate":
        return Certificate(
            pairs1=tuple((parse(g), parse(w)) for g, w in _json_text_pairs(data, "phi1")),
            pairs2=tuple((parse(g), parse(w)) for g, w in _json_text_pairs(data, "phi2")),
        )
    if data["kind"] == "violator":
        union_size = data["union_size"]
        # JSON true would pass as the size 1
        if type(union_size) is not int:
            raise ValueError(f"union_size {union_size!r} is not an integer")
        return Violator(
            a1=tuple(map(parse, _json_texts(data, "a1"))),
            a2=tuple(map(parse, _json_texts(data, "a2"))),
            union_size=union_size,
        )
    raise ValueError(f"unknown verdict kind {data.get('kind')!r}")
