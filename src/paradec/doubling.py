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
from itertools import accumulate, chain, compress
from typing import Callable, Iterable, Iterator, Sequence, Union

from .cayley import (
    CayleyPatch,
    GeneratingSet,
    ShortlexTree,
    ball_levels,
    product_set,
)
from .errors import CertificateError, ParseError, VertexBudgetError, ViolatorError
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
    right vertices g·s, s ∈ S_copy.  Each batch of D appends copy 1 of its
    elements, then copy 2.  The matching and the alternating reach visit
    left vertices in index order and each row in translator order, and
    read a right index only as a key, so any numbering of the right
    vertices gives the same pairs of elements.  Two numberings are used,
    and in both an index, once given, never moves.

    On a ball of the free tree, grown whole levels at a time in shortlex
    order (``tree``, its :class:`~paradec.cayley.ShortlexTree`), when
    every translator is 1 or one of its letters, a right vertex is
    numbered by its word's place in the tree's shortlex numbering and
    never formed: g·t is g's parent or one of its children, and g·1 is g.
    Only the batch that ends the ball (``last``) numbers its last level's
    children otherwise, since they are words just outside the ball: the
    child of the vertex at place j of that level by the i-th of the L
    distinct letter translators (``outside``) is ``|ball| + j·L + i``, so
    the right side stays within |D|·(L + 1) whatever m is.  No batch may
    follow that one.

    Otherwise the right vertices are the exact products, formed in the
    group by translator columns and interned in ``right_index`` in the
    order first seen; g·1 is g itself, not formed, and where the ball
    ends does not matter."""

    def __init__(
        self, spec: GroupSpec, ts: TranslatingSets, tree: "ShortlexTree | None" = None
    ):
        self.spec = spec
        self.ts = ts
        self.adjacency: list[Sequence[int]] = []
        # the domain, each element once, in the order extended, and the
        # size of each batch
        self.vertices: list[Element] = []
        self.sizes: list[int] = []
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
        self.ended = False
        self.num_right = 0

    def extend(self, elements: Sequence[Element], last: bool = True) -> None:
        """Append copy 1 of every element, then copy 2 of every element;
        ``last`` says that the ball ends with this batch.

        Each distinct translator s forms its column g·s once over the
        batch, so a translator in both S1 and S2 costs one column; the rows
        are the columns zipped in translator order.  On the tree numbering
        the batch must be the ball's next whole levels, and no batch may
        follow the last."""
        translators = dict.fromkeys(self.ts.s1 + self.ts.s2)
        if self.tree is None:
            columns = self._interned_columns(elements, translators)
        else:
            columns = self._tree_columns(elements, translators, last)
        self.vertices.extend(elements)
        self.sizes.append(len(elements))
        for translators in (self.ts.s1, self.ts.s2):
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

    def _tree_columns(self, elements, translators, last: bool) -> dict:
        if self.ended:
            raise ValueError("the ball ended with an earlier batch")
        tree = self.tree
        letters = [s[0] for s in translators if s]
        width = len(self.outside)
        columns: dict = {s: [] for s in translators}
        start = len(self.vertices)
        num_right = self.num_right
        done = 0
        while done < len(elements):
            level = len(elements[done])
            size = tree.level_size(level)
            sphere = elements[done : done + size]
            if tree.offset(level) != start + done or len(sphere) != size:
                raise ValueError("a tree batch must be the ball's next whole levels")
            done += size
            after = start + done
            if last and done == len(elements):
                # the words just outside the ball take dense slots
                def outside(t):
                    i = self.outside.index(t)
                    return range(after + i, after + size * width, width)

                num_right = after + size * width
            else:
                outside = None
                num_right = after + tree.level_size(level + 1)
            built = tree.columns(letters, sphere, outside)
            for s, column in columns.items():
                # g·1 is g
                column.extend(built[s[0]] if s else range(after - size, after))
        self.ended = last
        self.num_right = num_right
        return columns

    def match(self) -> tuple[list[int], list[int]]:
        """A maximum matching of the graph so far, augmented from the last
        one found, so that only the left vertices added since start
        unmatched."""
        self.matching = hopcroft_karp(self.adjacency, self.num_right, self.matching)
        return self.matching

    def _by_copy(self, values: Sequence) -> tuple[Iterator, Iterator]:
        """``values``, one per left vertex, read as copy 1's and copy 2's,
        each in domain order: each batch's first half and its second,
        sliced as they are read."""
        batches = list(zip(accumulate((2 * n for n in self.sizes), initial=0), self.sizes))
        ones = chain.from_iterable(values[s : s + n] for s, n in batches)
        twos = chain.from_iterable(values[s + n : s + 2 * n] for s, n in batches)
        return ones, twos

    def certificate(self, pair_left: Sequence[int]) -> Certificate:
        """The certificate of a saturating matching.  A row lists its right
        vertices in S_copy order, so the matched vertex's position in the
        row names σ_copy(g); it is unique, since g·s = g·s' forces s = s'.
        No image is formed."""
        used = tuple(
            tuple(translators[row.index(j)] for row, j in zip(rows, pairs))
            for rows, pairs, translators in zip(
                self._by_copy(self.adjacency),
                self._by_copy(pair_left),
                (self.ts.s1, self.ts.s2),
            )
        )
        return Certificate(tuple(self.vertices), used)

    def violator(self, pair_left: Sequence[int], pair_right: Sequence[int]) -> Violator:
        """The left vertices reached by alternating paths from unmatched
        ones, shrunk.  That set is the same for every maximum matching
        (Dulmage-Mendelsohn), so the violator does not depend on how the
        matching was found."""
        reach_left, _ = alternating_reachable(self.adjacency, pair_left, pair_right)
        reach1, reach2 = self._by_copy(reach_left)
        a1 = list(compress(self.vertices, reach1))
        a2 = list(compress(self.vertices, reach2))
        violator = _shrink_violator(self.spec, self.ts, a1, a2)
        verify_violator(self.spec, self.ts, violator)
        return violator


def check_domain(
    spec: GroupSpec, ts: TranslatingSets, domain: "CayleyPatch | Iterable[Element]"
) -> Verdict:
    """Decide the doubling condition for all A1, A2 ⊆ D with one matching.

    ``domain`` is a :class:`~paradec.cayley.CayleyPatch` of ``spec`` or
    any iterable of elements.  The right-side universe D·S1 ∪ D·S2 is
    never clipped to a patch.  On a ball of the free tree that keeps the
    numbering :func:`~paradec.cayley.enumerate_ball` generated it with
    (:attr:`~paradec.cayley.CayleyPatch.tree`), when every
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
    them alone.  Level r+1 is asked for before level r is matched, so that
    the graph knows whether the ball ends at r; the ball is built at most
    one level past the radius that answers.  Its vertices count
    :func:`letters_per_vertex` units of the budget at ``max_radius`` and
    the translators of ``ts``, and a level that the budget refuses raises
    its :class:`VertexBudgetError` only when no smaller radius answers.
    On the free tree the graph is numbered as in :func:`check_domain`, and
    no index moves as the ball grows.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    tree, levels = ball_levels(spec, gens, max_radius, vertex_budget, ts.s1 + ts.s2)
    graph = _HallGraph(spec, ts, tree)
    sphere = next(levels)
    for radius in range(max_radius + 1):
        refused = None
        try:
            following = next(levels, None)
        except VertexBudgetError as error:
            following, refused = None, error
        graph.extend(sphere, last=following is None)
        pair_left, pair_right = graph.match()
        if UNMATCHED in pair_left:
            return radius, graph.violator(pair_left, pair_right)
        if refused is not None:
            raise refused
        if following is None:
            return None
        sphere = following


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
    vertex order, else each element written whole by
    :meth:`GroupSpec.format_element`."""
    if ball is not None and ball.spec == spec and ball.vertices == domain:
        return ball.texts()
    return list(map(spec.format_element, domain))


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
    fmt = spec.format_element
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


def _parsed_pairs(
    parse: Callable[[str], Element], pairs: list, sources: "list | None" = None
) -> tuple:
    """The ``[element, image]`` text pairs parsed pair by pair, source
    first; the sources are ``sources`` when given, the parsed source
    texts, and an image whose text is its source's is its source."""
    phi = []
    for n, (g, w) in enumerate(pairs):
        source = parse(g) if sources is None else sources[n]
        phi.append((source, source if w == g else parse(w)))
    return tuple(phi)


def verdict_from_jsonable(spec: GroupSpec, data: dict) -> "Violator | tuple":
    """Read back :func:`verdict_to_jsonable`'s document.  ``phi1`` and
    ``phi2`` must be lists of two-text lists, ``a1`` and ``a2`` lists of
    texts and ``union_size`` an integer; anything else is a
    :class:`ValueError`.  Nothing is verified here: a violator is returned
    as a :class:`Violator`, and a certificate as its claim, the ``phi1``
    and ``phi2`` pairs of elements, which :func:`verify_certificate`
    turns into a :class:`Certificate`.

    A text whose element is at hand is not parsed again: phi2 takes
    phi1's parsed sources when it lists the same source texts, and an
    image whose text is its source's takes its source's element.  The
    texts are read pair by pair, source first, so the first malformed
    text is the one named."""
    parse = spec.parser()
    if data["kind"] == "certificate":
        pairs1 = _json_text_pairs(data, "phi1")
        phi1 = _parsed_pairs(parse, pairs1)
        pairs2 = _json_text_pairs(data, "phi2")
        same = [g for g, _ in pairs2] == [g for g, _ in pairs1]
        return phi1, _parsed_pairs(parse, pairs2, [g for g, _ in phi1] if same else None)
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
