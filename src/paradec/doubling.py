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
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence, Union

from .cayley import (
    CayleyPatch,
    GeneratingSet,
    ShortlexTree,
    ball_levels,
    product_set,
    tree_letters,
)
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
    """Saturating-matching witness on a finite domain D: a translator
    σ_i(g) ∈ S_i for each g ∈ D and family i, such that each
    phi_i(g) = g·σ_i(g) is injective and the two images are disjoint.

    ``domain`` holds each element of D once, in element order as
    :func:`check_domain` finds it, or in the order of the ``phi1`` pairs
    that :func:`verify_certificate` read.  ``translators`` is the record
    (σ_1, σ_2), each in domain order.  An image is determined by its label,
    since g·s = g·s' forces s = s', so two certificates list the same pairs
    in the same order exactly when they are equal, and no image is stored:
    a reader that wants phi_i(g) forms it.
    """

    domain: tuple[Element, ...]
    translators: tuple[tuple[Element, ...], tuple[Element, ...]]


@dataclass(frozen=True)
class Violator:
    """Explicit Hall violator: |A1·S1 ∪ A2·S2| = union_size < |A1| + |A2|."""

    a1: tuple[Element, ...]
    a2: tuple[Element, ...]
    union_size: int


Verdict = Union[Certificate, Violator]


def verify_certificate(
    spec: GroupSpec, ts: TranslatingSets, pairs1: Sequence, pairs2: Sequence
) -> Certificate:
    """Verify a claimed certificate from scratch: its ``(g, phi_i(g))``
    pairs per family, as :func:`verdict_from_jsonable` reads them.  Each
    phi_i must be a function on one nonempty domain, with membership,
    injectivity and image disjointness.

    Returns the :class:`Certificate`: the domain in the order of
    ``pairs1``, and for each family the translator s with phi_i(g) = g·s
    of each element, in that order, so a ``pairs2`` listed in another
    order is read into it.  That s is unique, since g·s = g·s' forces
    s = s', so the search stops at the first translate that matches.
    Every g·s up to that one is formed, pair by pair.  Raises
    :class:`CertificateError` on any failure.
    """
    multiply = spec.multiply
    images: list[set] = []
    domains: list[set] = []
    found: list[tuple] = []
    for family, pairs, translators in ((1, pairs1, ts.s1), (2, pairs2, ts.s2)):
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
    domain = tuple(g for g, _ in pairs1)
    used1, used2 = found
    sources2 = tuple(g for g, _ in pairs2)
    if sources2 != domain:
        used2 = tuple(map(dict(zip(sources2, used2)).__getitem__, domain))
    return Certificate(domain, (used1, used2))


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
    right vertices g·s, s ∈ S_copy.  The matching and the alternating reach
    visit left vertices in index order and each row in translator order,
    and read a right index only as a key, so any numbering of the right
    vertices gives the same pairs of elements.  Two numberings are used.

    On a ball of the free tree, grown whole levels at a time in shortlex
    order (``tree``, its :class:`~paradec.cayley.ShortlexTree`), when
    every translator is 1 or one of its letters, a right vertex inside the
    ball is numbered by its place in the ball, read off the tree's
    shortlex numbering and never formed: g·t is g's parent or one of its
    children, and g·1 is g.  A child of the last level is a word just
    outside the ball: it is numbered ``|ball| + j·L + i`` for the vertex
    at place j of the last level and the i-th of the L distinct letter
    translators (``outside``), so the right side stays within |D|·(L + 1)
    whatever m is.  When the next level is added those words join the ball, and the
    last level's rows and the matching kept for the warm start take their
    places in it.

    Otherwise the right vertices are the exact products, formed in the
    group by translator columns and interned in ``right_index`` in the
    order first seen; g·1 is g itself, not formed."""

    def __init__(
        self, spec: GroupSpec, ts: TranslatingSets, tree: "ShortlexTree | None" = None
    ):
        self.spec = spec
        self.ts = ts
        self.lefts: list[tuple[int, Element]] = []
        self.adjacency: list[Sequence[int]] = []
        # the domain, each element once, in the order extended
        self.vertices: list[Element] = []
        # insertion order is index order, so list(right_index) is the
        # right side by index
        self.right_index: dict[Element, int] = {}
        # the last matching found, the start of the next
        self.matching: "tuple[list[int], list[int]] | None" = None
        identity = spec.identity()
        translators = dict.fromkeys(ts.s1 + ts.s2)
        self.tree = self.outside = None
        if tree is not None and all(
            s == identity or (len(s) == 1 and s[0] in tree.rank) for s in translators
        ):
            self.tree = tree
            self.outside = sorted(s[0] for s in translators if s != identity)
        # on the tree numbering, the first rows of each copy of the last
        # level and its size, while its children are outside the ball
        self._open: "tuple[int, int, int] | None" = None
        self.num_right = 0

    def extend(self, elements: Sequence[Element]) -> None:
        """Append copy 1 of every element, then copy 2 of every element.

        Each distinct translator s forms its column g·s once over the
        batch, so a translator in both S1 and S2 costs one column; the rows
        are the columns zipped in translator order.  On the tree numbering
        the batch must be the ball's next whole levels."""
        translators = dict.fromkeys(self.ts.s1 + self.ts.s2)
        if self.tree is None:
            columns = self._interned_columns(elements, translators)
        else:
            columns = self._tree_columns(elements, translators)
        self.vertices.extend(elements)
        for copy, translators in ((1, self.ts.s1), (2, self.ts.s2)):
            self.lefts.extend(zip(repeat(copy), elements))
            self.adjacency.extend(zip(*(columns[s] for s in translators)))

    def _interned_columns(self, elements, translators) -> dict:
        translates = self.spec.translates
        identity = self.spec.identity()
        right_index = self.right_index
        intern = right_index.setdefault
        columns = {}
        for s in translators:
            products = elements if s == identity else translates(elements, s)
            columns[s] = [intern(w, len(right_index)) for w in products]
        self.num_right = len(right_index)
        return columns

    def _tree_columns(self, elements, translators) -> dict:
        if not elements:
            return {s: [] for s in translators}
        # offsets[l] is the index of level l's first vertex, up to the
        # batch's first level
        level_size = self.tree.level_size
        offsets = [0]
        while offsets[-1] < len(self.vertices):
            offsets.append(offsets[-1] + level_size(len(offsets) - 1))
        if self._open is not None:
            self._close(offsets, translators)
        columns: dict = {s: [] for s in translators}
        done = size = 0
        while done < len(elements):
            size = level_size(len(offsets) - 1)
            sphere = elements[done : done + size]
            if len(sphere) != size:
                raise ValueError("a tree batch must end on a whole level")
            done += size
            built = self._level_columns(
                sphere, offsets, translators, dense=done == len(elements)
            )
            for s, column in columns.items():
                column.extend(built[s])
            offsets.append(offsets[-1] + size)
        width = len(self.outside)
        if width:
            first = len(self.adjacency) + len(elements) - size
            self._open = (first, first + len(elements), size)
        self.num_right = offsets[-1] + size * width
        return columns

    def _level_columns(self, sphere, offsets, translators, dense: bool) -> dict:
        """Each translator's column over ``sphere``, the level that starts
        at ``offsets[-1]``.  Its children are numbered in the ball one level
        larger, or, when ``dense``, as the words just outside the ball."""
        first = offsets[-1]
        after = first + len(sphere)
        width = len(self.outside)
        outside = None
        if dense:

            def outside(t):
                i = self.outside.index(t)
                return range(after + i, after + len(sphere) * width, width)

        letters = [s[0] for s in translators if s]
        built = self.tree.columns(letters, sphere, offsets, outside)
        # g·1 is g
        return {s: built[s[0]] if s else range(first, after) for s in translators}

    def _close(self, offsets, translators) -> None:
        """The words just outside the ball become its next level, which
        starts at ``offsets[-1]``: renumber the last level's rows, and the
        matching kept for the warm start, from the dense slots to those
        words' places in the ball."""
        copy1, copy2, size = self._open
        self._open = None
        n = offsets[-1]
        sphere = self.vertices[n - size :]
        columns = self._level_columns(sphere, offsets[:-1], translators, dense=False)
        for first, translators in ((copy1, self.ts.s1), (copy2, self.ts.s2)):
            self.adjacency[first : first + size] = zip(*(columns[s] for s in translators))
        if self.matching is None:
            return
        # the dense slot n + j·L + i is the word that the column of the
        # i-th letter translator gives vertex j
        width = len(self.outside)
        moved = [0] * (size * width)
        for i, t in enumerate(self.outside):
            moved[i::width] = columns[(t,)]
        pair_left, pair_right = self.matching
        pair_left = pair_left[:]
        pair_right = pair_right[:n]
        after = n + self.tree.level_size(len(offsets) - 1)
        pair_right += [UNMATCHED] * (after - len(pair_right))
        for first in (copy1, copy2):
            for u in range(first, min(first + size, len(pair_left))):
                v = pair_left[u]
                if v >= n:
                    v = pair_left[u] = moved[v - n]
                    pair_right[v] = u
        self.matching = pair_left, pair_right

    def match(self) -> tuple[list[int], list[int]]:
        """A maximum matching of the graph so far, augmented from the last
        one found, so that only the left vertices added since start
        unmatched."""
        self.matching = hopcroft_karp(self.adjacency, self.num_right, self.matching)
        return self.matching

    def certificate(self, pair_left: Sequence[int]) -> Certificate:
        """The certificate of a saturating matching of a graph extended
        once, as :func:`check_domain` builds it: copy 1's rows, then copy
        2's, each in domain order.  A row lists its right vertices in
        S_copy order, so the matched vertex's position in the row names
        σ_copy(g); it is unique, since g·s = g·s' forces s = s'.  No image
        is formed."""
        n = len(self.vertices)
        used = tuple(
            tuple(
                translators[row.index(j)]
                for row, j in zip(
                    self.adjacency[start : start + n], pair_left[start : start + n]
                )
            )
            for start, translators in ((0, self.ts.s1), (n, self.ts.s2))
        )
        return Certificate(tuple(self.vertices), used)

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
    spec: GroupSpec, ts: TranslatingSets, domain: "CayleyPatch | Iterable[Element]"
) -> Verdict:
    """Decide the doubling condition for all A1, A2 ⊆ D with one matching.

    ``domain`` is a :class:`~paradec.cayley.CayleyPatch` of ``spec`` or
    any iterable of elements.  The right-side universe D·S1 ∪ D·S2 is
    never clipped to a patch.  On a ball of the free tree whose vertices
    are its levels in shortlex order, as :func:`~paradec.cayley.enumerate_ball`
    builds them (:attr:`~paradec.cayley.CayleyPatch.tree`), when every
    translator is 1 or one of its letters, it is numbered by shortlex
    arithmetic and no product is formed; otherwise every product is
    formed in the group (see :class:`_HallGraph`), and the domain is
    taken in element order.  A
    certificate is the domain and the translator that the matching gives
    each element, and forms no image.  On deficiency, the violator comes from
    alternating reachability and is then shrunk greedily (smaller violators
    are human-checkable; true minimality is the job of the exhaustive oracle
    in ``tests/oracles.py``).
    """
    tree = None
    if isinstance(domain, CayleyPatch):
        if domain.spec != spec:
            raise ValueError("the patch is a ball of another group")
        tree = domain.tree
        domain = domain.vertices
    if tree is not None:
        # the tree's levels are generated in shortlex order: sorted already
        elements = list(domain)
    else:
        # dict.fromkeys keeps the domain's order, and a ball arrives in
        # element order already, so the sort is one linear pass
        elements = sorted(dict.fromkeys(domain), key=spec.element_sort_key)
    if not elements:
        raise ValueError("domain must be nonempty")
    graph = _HallGraph(spec, ts, tree)
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
    ``max_radius`` and the translators of ``ts``.  On the free tree the
    graph is numbered as in :func:`check_domain`; when a level is added,
    the words that were just outside the ball take their places in it, in
    the last level's rows and in the matching that the search augments.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    letters = tree_letters(spec, gens)
    graph = _HallGraph(spec, ts, None if letters is None else ShortlexTree(letters))
    levels = ball_levels(spec, gens, max_radius, vertex_budget, ts.s1 + ts.s2)
    for radius, sphere in enumerate(levels):
        graph.extend(sphere)
        pair_left, pair_right = graph.match()
        if UNMATCHED in pair_left:
            return radius, graph.violator(pair_left, pair_right)
    return None


# -- serialization -------------------------------------------------------------


def translator_positions(
    spec: GroupSpec, family: int, used: Sequence[Element], translators: Sequence[Element]
) -> dict:
    """s -> the positions i with ``used[i] == s``, in increasing order, for
    each translator s of S_family, in S order.  ``used`` is one family of a
    translator record (:attr:`Certificate.translators`); a recorded
    translator that is not in S_family raises :class:`CertificateError`."""
    positions: dict = {s: [] for s in translators}
    for i, s in enumerate(used):
        try:
            positions[s].append(i)
        except KeyError:
            raise CertificateError(
                f"recorded translator {spec.format_element(s)} is not in S{family}"
            ) from None
    return positions


def domain_texts(
    spec: GroupSpec, domain: Sequence[Element], ball: "CayleyPatch | None" = None
) -> list[str]:
    """The texts of ``domain``, in its order: the ``ball``'s own texts
    (:meth:`~paradec.cayley.CayleyPatch.texts`, stepped along the shortlex
    numbering on a ball of the free tree) when the domain is the ball's
    vertex order, else each element written by one batch formatter."""
    if ball is not None and ball.spec == spec and ball.vertices == domain:
        return ball.texts()
    return list(map(spec.formatter(), domain))


def verdict_to_jsonable(
    spec: GroupSpec,
    verdict: Verdict,
    ts: TranslatingSets,
    ball: "CayleyPatch | None" = None,
) -> dict:
    """The JSON form of a verdict: a violator's two sets as texts, or a
    certificate's ``[g, phi_i(g)]`` text pairs per family, in domain order.

    A certificate's domain is written once for both families, by
    :func:`domain_texts`, which reads the texts of ``ball``, the patch the
    certificate was found on, when the domain is its vertex order.  Its
    images are not formatted: each translator s writes the images g·s of
    the elements that the certificate labels s as one
    :meth:`GroupSpec.text_translates` column of their texts.
    """
    if isinstance(verdict, Certificate):
        domain = verdict.domain
        texts = domain_texts(spec, domain, ball)
        identity = spec.identity()

        def family(index, translators):
            # g·1 = g, so the identity's images are their sources' texts
            images = texts[:]
            used = verdict.translators[index - 1]
            positions = translator_positions(spec, index, used, translators)
            for s, where in positions.items():
                if s == identity:
                    continue
                column = spec.text_translates(
                    [domain[i] for i in where], [texts[i] for i in where], s
                )
                for i, image in zip(where, column):
                    images[i] = image
            return [[g, w] for g, w in zip(texts, images)]

        return {
            "kind": "certificate",
            "phi1": family(1, ts.s1),
            "phi2": family(2, ts.s2),
        }
    fmt = spec.formatter()
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


def verdict_from_jsonable(spec: GroupSpec, data: dict) -> "Violator | tuple":
    """Read back :func:`verdict_to_jsonable`'s document.  ``phi1`` and
    ``phi2`` must be lists of two-text lists, ``a1`` and ``a2`` lists of
    texts and ``union_size`` an integer; anything else is a
    :class:`ValueError`.  Nothing is verified here: a violator is returned
    as a :class:`Violator`, and a certificate as its claim, the ``phi1``
    and ``phi2`` pairs of elements, which :func:`verify_certificate`
    turns into a :class:`Certificate`."""
    parse = spec.parser()
    if data["kind"] == "certificate":
        return tuple(
            tuple((parse(g), parse(w)) for g, w in _json_text_pairs(data, key))
            for key in ("phi1", "phi2")
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
