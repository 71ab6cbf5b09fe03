"""Finite balls of right Cayley graphs: labeled edges, distances, product sets.

A :class:`CayleyPatch` is a closed combinatorial window onto the (possibly
infinite) Cayley graph: it stores every product that lands inside the patch
and nothing else.  Exact products that cross the boundary are computed with
:func:`product_set`, which works in the group itself.

A ball over single letters of a free group is generated as reduced words in
shortlex order, since its Cayley graph is a tree; any other ball is found by
breadth-first search.  Both give the same vertices in the same order.  The
tree's shortlex numbering (:class:`ShortlexTree`) is kept here alone: the
ball's levels, its neighbour table and its texts, and the Hall graph of
:mod:`paradec.doubling`, all read it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import VertexBudgetError
from .groups import Element, GroupSpec, spec_to_string

DEFAULT_VERTEX_BUDGET = 5_000_000


def format_label(symbol: str, sign: int) -> str:
    return symbol if sign > 0 else f"{symbol}^-1"


def parse_label(text: str) -> tuple[str, int]:
    if text.endswith("^-1"):
        return text[:-3], -1
    return text, 1


@dataclass(frozen=True)
class GeneratingSet:
    """Named group elements; the symmetrized view S ∪ S⁻¹ is derived on
    demand, collapsing duplicate elements (an involution appears once)."""

    pairs: tuple[tuple[str, Element], ...]

    def __post_init__(self):
        symbols = [sym for sym, _ in self.pairs]
        if len(set(symbols)) != len(symbols):
            raise ValueError("generator symbols must be distinct")
        if not self.pairs:
            raise ValueError("generating set must be nonempty")

    @classmethod
    def standard(cls, spec: GroupSpec) -> "GeneratingSet":
        return cls(spec.standard_generators())

    @classmethod
    def from_pairs(
        cls, spec: GroupSpec, pairs: Iterable[tuple[str, Element]]
    ) -> "GeneratingSet":
        pairs = tuple(pairs)
        for _, element in pairs:
            spec.validate_element(element)
        return cls(pairs)

    def symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.pairs)

    def mapping(self) -> dict[str, Element]:
        return dict(self.pairs)

    def element(self, symbol: str) -> Element:
        for sym, el in self.pairs:
            if sym == symbol:
                return el
        raise KeyError(f"no generator named {symbol!r}")

    def symmetrized(self, spec: GroupSpec) -> tuple[tuple[str, int, Element], ...]:
        view: list[tuple[str, int, Element]] = []
        seen: set[Element] = set()
        for sym, el in self.pairs:
            if el not in seen:
                view.append((sym, 1, el))
                seen.add(el)
        for sym, el in self.pairs:
            inv = spec.invert(el)
            if inv not in seen:
                view.append((sym, -1, inv))
                seen.add(inv)
        return tuple(view)


class ShortlexTree:
    """The shortlex numbering of a ball of the free tree: the Cayley graph
    over ``letters``, m ascending single letters of the free model closed
    under inversion, whose distinct reduced words are distinct elements.

    The ball lists its words level by level, each level in shortlex order.
    Level l ≥ 1 holds m(m-1)^(l-1) words, and the identity's m children are
    level 1 in letter order.  A word g at level l ≥ 1 and place j of its
    level, with last letter x, has m - 1 children, the g·t for t ≠ x⁻¹ in
    ascending letter order, from place j(m-1) of level l + 1 on; the child
    by t is ``slot(t)[x]`` places after the first.  Its parent g·x⁻¹ is at
    place j // (m-1) of level l - 1 when l ≥ 2, and is the identity when
    l = 1.  Level l starts at place ``offset(l)``, the size of the ball of
    radius l - 1, and its words have length l, so a level names its own
    place.  A word's neighbours, its Hall graph's right vertices and its
    text are all read off its place, and no product is formed; a word's
    place is read off its letters (:meth:`place`).

    The tables are built when first read and cost O(m) a letter, so a
    rank-10,000 ball of radius 1 stores no m² table.
    """

    def __init__(self, letters: tuple[int, ...]):
        self.letters = letters
        self.rank = {t: i for i, t in enumerate(letters)}
        self._slots: dict = {}
        self._offsets = [0]

    def slot(self, t: int) -> dict:
        """x -> the place of g·t among the children of a word g ending in
        x, the letters but x⁻¹; at x = t⁻¹, where g·t is g's parent, the
        value is unused."""
        slot = self._slots.get(t)
        if slot is None:
            rank = self.rank
            slot = {x: rank[t] - (rank[t] > rank[-x]) for x in self.letters}
            self._slots[t] = slot
        return slot

    @cached_property
    def children(self) -> dict:
        """x -> the last letters of the children of a word ending in x, in
        ascending order: read only where a level of m(m-1) words is built."""
        return {x: tuple(t for t in self.letters if t != -x) for x in self.letters}

    def level_size(self, level: int) -> int:
        m = len(self.letters)
        return m * (m - 1) ** (level - 1) if level else 1

    def offset(self, level: int) -> int:
        """The place of level ``level``'s first word: the size of the ball
        of radius ``level`` - 1, and 0 below level 0.  Each offset is summed
        once, on its first read."""
        offsets = self._offsets
        while len(offsets) <= level:
            offsets.append(offsets[-1] + self.level_size(len(offsets) - 1))
        return offsets[level] if level > 0 else 0

    def place(self, word: tuple) -> "int | None":
        """The place of a nonempty reduced word over the letters, stepped
        letter by letter: a word of place j in its level ending in x has its
        child by t at place j(m-1) + slot(t)[x] of the next level.  None
        when a letter is not one of the tree's; an unreduced word gets a
        place that is not its own, which the caller's check of the ball's
        word at that place rejects."""
        rank, k = self.rank, len(self.letters) - 1
        x = word[0]
        if x not in rank:
            return None
        j = rank[x]
        for t in word[1:]:
            if t not in rank:
                return None
            j = j * k + self.slot(t)[x]
            x = t
        return self.offset(len(word)) + j

    def row(self, word: tuple, place: int, steps: Iterable[int], last: int) -> tuple:
        """The neighbour row of ``word``, the word at ``place`` of a ball
        whose last level is ``last``: for each letter t of ``steps``, the
        place of word·t, read as :meth:`columns` reads a whole level.  The
        parent g·x⁻¹ of a word g ending in x, at place j of level l, is at
        place j // (m-1) of level l - 1, or is the identity on level 1; its
        child by t is at place j(m-1) + slot(t)[x] of level l + 1, or None
        past the last level."""
        level = len(word)
        if not level:
            return tuple(1 + self.rank[t] if last else None for t in steps)
        k = len(self.letters) - 1
        x = word[-1]
        j = place - self.offset(level)
        above = self.offset(level - 1) + j // k if level > 1 else 0
        if level == last:
            return tuple(above if t == -x else None for t in steps)
        first = self.offset(level + 1) + j * k
        return tuple(above if t == -x else first + self.slot(t)[x] for t in steps)

    def columns(
        self,
        steps: Iterable[int],
        sphere: Sequence[tuple],
        outside: "Callable[[int], Iterable] | None" = None,
    ) -> dict:
        """Each letter t of ``steps`` -> the place of g·t in the ball, for
        each word g of ``sphere``, a whole level, read off its words'
        length.  g·t is g's parent when g ends in t⁻¹ and otherwise its
        child: numbered in the next level, or, when ``outside`` is given
        because the next level is not in the ball, ``outside(t)[j]`` for
        the j-th word of the sphere."""
        letters = self.letters
        k = len(letters) - 1
        level = len(sphere[0])
        after = self.offset(level + 1)
        lasts = list(map(itemgetter(-1), sphere)) if level and outside is None else []
        # the last letter of each vertex of the level before, read off
        # its first child
        above = list(map(itemgetter(-2), sphere[::k])) if level > 1 else []
        # the place of the level before's first vertex; its q-th vertex is
        # the parent of the level's q-th run of k words
        parent = self.offset(level - 1)
        columns = {}
        for t in steps:
            if outside is not None:
                values = list(outside(t))
            elif not level:
                values = [1 + self.rank[t]]
            else:
                # g·t is the child of g at place slot[x] among g's children ...
                slot = self.slot(t)
                starts = range(after, after + len(sphere) * k, k)
                values = list(map(add, starts, map(slot.__getitem__, lasts)))
            # ... save when x is t⁻¹: then g·t is g's parent.  Each vertex y
            # of the level before, unless it ends in t, has one child ending
            # in t⁻¹, at its place among y's children.
            if level == 1:
                values[self.rank[-t]] = 0
            if above:
                place = self.slot(-t)
                for q, y in enumerate(above):
                    if y != t:
                        values[q * k + place[y]] = parent + q
            columns[t] = values
        return columns

    def texts(self, names: Sequence[str], levels: int) -> list[str]:
        """The canonical texts of the first ``levels`` levels' words, in
        ball order, over the generator ``names`` (letter ±i is the i-th
        name).  Each text is stepped from its parent's text: a child by
        another letter than the parent's last appends that letter's token,
        and the child by the same letter moves the last run's exponent one
        further from 0.  No word is read or formatted."""
        tokens = {}
        for t in self.letters:
            name = names[abs(t) - 1]
            tokens[t] = name if t > 0 else f"{name}^-1"
        texts = ["1"]
        if levels < 2:
            return texts
        k = len(self.letters) - 1
        lasts = list(self.letters)
        level = [tokens[t] for t in lasts]
        texts += level
        if levels > 2:
            spaced = {y: [" " + tokens[x] for x in kids] for y, kids in self.children.items()}
            # the place of a word's child by its own last letter y
            same = {y: self.slot(y)[y] for y in self.letters}
        for _ in range(2, levels):
            stepped = [p + token for p, y in zip(level, lasts) for token in spaced[y]]
            for q, (p, y) in enumerate(zip(level, lasts)):
                name = names[abs(y) - 1]
                head, _, run = p.rpartition(" ")
                exponent = (1 if run == name else int(run[len(name) + 1 :])) + (
                    1 if y > 0 else -1
                )
                run = f"{name}^{exponent}"
                stepped[q * k + same[y]] = f"{head} {run}" if head else run
            level = stepped
            lasts = [x for y in lasts for x in self.children[y]]
            texts += level
        return texts


@dataclass(frozen=True)
class CayleyPatch:
    """Ball of the right Cayley graph; immutable and shareable.

    Stored: ``spec``, ``gens``, ``radius``, the ``vertices`` in ball order
    (vertex 0 is the identity) and ``level_sizes``, the number of vertices
    at each distance up to the largest one present.  ``numbering`` is not
    a field: :func:`enumerate_ball` passes the numbering it generated the
    ball with, read as ``tree``.  Built on first read and kept, since most
    callers need only the vertices: the vertex index behind
    :meth:`index_of` and ``in``, ``distances``, the ``neighbours`` table,
    and its views ``edges``, the unoriented simple graph ``simple_edges``
    and the ``interior``.  A ball with a ``tree`` builds neither the index
    nor the table for :meth:`index_of`, ``in``, :meth:`row` and
    ``interior``: it reads them off the numbering.
    """

    spec: GroupSpec
    gens: GeneratingSet
    radius: int
    vertices: tuple[Element, ...]
    level_sizes: tuple[int, ...]
    numbering: InitVar["ShortlexTree | None"] = None

    def __post_init__(self, numbering):
        # kept off the fields, so that a dataclasses.replace copy has none
        object.__setattr__(self, "_tree", numbering)

    @property
    def tree(self) -> "ShortlexTree | None":
        """The shortlex numbering that :func:`enumerate_ball` generated the
        patch's levels with, on a ball of the free tree; else None.  A
        patch built by hand or copied has none, and takes the general path
        of every reader."""
        return self._tree

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _view_letters(self) -> list[int]:
        """On a ball of the free tree, the letter of each element of the
        symmetrized generating set, in view order: the columns of a row."""
        return [s[0] for _, _, s in self.gens.symmetrized(self.spec)]

    def _place(self, element: Element) -> "int | None":
        """On a ball of the free tree, the index of ``element``, read off
        its letters (:meth:`ShortlexTree.place`) and kept only when the
        ball's vertex there is ``element``; else None."""
        if not isinstance(element, tuple) or len(element) >= len(self.level_sizes):
            return None
        place = self.tree.place(element) if element else 0
        if place is None or place >= len(self.vertices):
            return None
        return place if self.vertices[place] == element else None

    @cached_property
    def distances(self) -> tuple[int, ...]:
        """Word length of each vertex, in vertex order."""
        return tuple(
            level for level, size in enumerate(self.level_sizes) for _ in range(size)
        )

    @cached_property
    def neighbours(self) -> tuple[tuple["int | None", ...], ...]:
        """One row per vertex: for each element s of the symmetrized
        generating set, in view order, the index of u·s, or None when the
        product leaves the patch.  Every edge fact is read off this table.

        On a ball of the free tree (``tree``) each entry is read off the
        shortlex numbering, a parent or a child by place, or None past the
        last level, and no product is formed; otherwise
        :meth:`GroupSpec.multiply` forms each product, vertex by vertex and
        step by step in view order, so that the first overflowing matrix
        product raises, and each is looked up in the vertex index."""
        if self.tree is not None:
            return self._numbered_rows()
        return self._star_rows()

    def _numbered_rows(self) -> tuple:
        view = self._view_letters
        rows: list = []
        start = 0
        last = len(self.level_sizes) - 1
        for level, size in enumerate(self.level_sizes):
            sphere = self.vertices[start : start + size]
            start += size
            # past the last level every product leaves the patch
            outside = (lambda t: repeat(None, size)) if level == last else None
            built = self.tree.columns(view, sphere, outside)
            rows.extend(zip(*map(built.__getitem__, view)))
        return tuple(rows)

    def _star_rows(self) -> tuple:
        steps = [s for _, _, s in self.gens.symmetrized(self.spec)]
        multiply = self.spec.multiply
        lookup = self._index.get
        return tuple(
            tuple([lookup(multiply(u, s)) for s in steps]) for u in self.vertices
        )

    def texts(self) -> list[str]:
        """The canonical text of each vertex, in vertex order: stepped from
        its parent's text on a ball of the free tree
        (:meth:`ShortlexTree.texts`), else written whole by
        :meth:`GroupSpec.format_element`."""
        if self.tree is not None:
            return self.tree.texts(self.spec.generator_names, len(self.level_sizes))
        return list(map(self.spec.format_element, self.vertices))

    @cached_property
    def edges(self) -> tuple[tuple[int, str, int, int], ...]:
        """Directed labeled edges (source, symbol, sign, target), one per
        vertex and symmetrized generator whose product stays inside, by
        source index and then generator order."""
        labels = [(sym, sign) for sym, sign, _ in self.gens.symmetrized(self.spec)]
        return tuple(
            (i, sym, sign, j)
            for i, row in enumerate(self.neighbours)
            for (sym, sign), j in zip(labels, row)
            if j is not None
        )

    def row(self, i: int) -> tuple["int | None", ...]:
        """Vertex ``i``'s row of ``neighbours``.  A ball of the free tree
        reads the row off its numbering (:meth:`ShortlexTree.row`) and
        leaves the table unbuilt."""
        if self.tree is None:
            return self.neighbours[i]
        i = range(len(self.vertices))[i]
        last = len(self.level_sizes) - 1
        return self.tree.row(self.vertices[i], i, self._view_letters, last)

    def index_of(self, element: Element) -> int:
        if self.tree is None:
            return self._index[element]
        place = self._place(element)
        if place is None:
            raise KeyError(element)
        return place

    def __contains__(self, element: Element) -> bool:
        if self.tree is None:
            return element in self._index
        return self._place(element) is not None

    @cached_property
    def simple_edges(self) -> tuple[tuple[int, int], ...]:
        """Unoriented simple graph: loops dropped, parallel edges collapsed,
        each edge once as a sorted pair (i, j), i < j.

        On a ball of the free tree (``tree``) the edges are the parent
        pairs (parent(v), v) for v = 1..n-1, read off the numbering and
        sorted as they come: level 1's parent is the identity, and from
        level 2 on each vertex u >= 1 in turn parents the next m - 1
        places.  Otherwise the view holds every generator's inverse, so
        each in-patch edge u -> v has its reverse v -> u, and the products
        in a row are distinct elements: the pairs i < j of ``neighbours``
        are each edge once."""
        if self.tree is not None:
            m = len(self.tree.letters)
            parents = chain(repeat(0, m), (u for u in count(1) for _ in range(m - 1)))
            return tuple(zip(parents, range(1, len(self.vertices))))
        return tuple(
            sorted(
                (i, j)
                for i, row in enumerate(self.neighbours)
                for j in row
                if j is not None and j > i
            )
        )

    @cached_property
    def interior(self) -> tuple[Element, ...]:
        """Vertices, in patch order, whose whole S ∪ S⁻¹ star lies in the
        patch: the rows of ``neighbours`` with no None.  On a ball of the
        free tree that is the ball one radius down, read off the numbering:
        a word below the last level has its parent and all its children in
        the ball, and a word on it has a child outside."""
        if self.tree is not None:
            return self.vertices[: self.tree.offset(len(self.level_sizes) - 1)]
        return tuple(
            v for v, row in zip(self.vertices, self.neighbours) if None not in row
        )

    # -- exports -----------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "group": spec_to_string(self.spec),
            "generators": [
                [sym, self.spec.format_element(el)] for sym, el in self.gens.pairs
            ],
            "radius": self.radius,
            "vertices": self.texts(),
            "distances": list(self.distances),
            "edges": [
                [u, format_label(sym, sign), v] for u, sym, sign, v in self.edges
            ],
        }

    def to_edge_list_text(self) -> str:
        lines = [
            f"# patch group={spec_to_string(self.spec)} radius={self.radius} "
            f"vertices={len(self.vertices)} edges={len(self.edges)}"
        ]
        for i, (text, distance) in enumerate(zip(self.texts(), self.distances)):
            lines.append(f"# vertex\t{i}\t{text}\t{distance}")
        for u, sym, sign, v in self.edges:
            lines.append(f"{u}\t{format_label(sym, sign)}\t{v}")
        return "\n".join(lines) + "\n"


def letters_per_vertex(
    spec: GroupSpec,
    gens: GeneratingSet,
    radius: int,
    translators: Iterable[Element] = (),
) -> int:
    """Budget units a vertex of the radius-``radius`` ball counts when it is
    multiplied by ``translators``: in the free model one per letter of the
    longest word stored, max(1, max|s|, r·max|x|) over the translators s
    and the generators x, since a vertex is a product of up to r
    generators.  1 in the other models.  Every stored free word is counted
    by this rule: ball vertices, and the half-words of
    :func:`~paradec.decomposition.free_up_to_length`."""
    if spec.model != "free":
        return 1
    longest = max(len(x) for _, x in gens.pairs)
    return max(1, *map(len, translators), radius * longest)


def ball_levels(
    spec: GroupSpec,
    gens: GeneratingSet,
    radius: int,
    vertex_budget: "int | None" = None,
    translators: Iterable[Element] = (),
) -> "tuple[ShortlexTree | None, Iterator[list[Element]]]":
    """The shortlex numbering of the ball, or None, and the spheres of the
    ball, level by level: ``[identity]``, then the elements at word length
    1, 2, ... <= radius w.r.t. S ∪ S⁻¹, each level sorted by the spec's
    element order.  Stops early at an empty level.

    Each element counts :func:`letters_per_vertex` units of the budget at
    ``radius`` and ``translators``, and :class:`VertexBudgetError` names
    the first level that takes the ball over it.  When S ∪ S⁻¹ is a set of
    single letters of the free model, the Cayley graph is a tree and each
    level is generated from the one before by the numbering
    (:func:`_free_tree_levels`); otherwise the levels are searched for
    (:func:`_searched_levels`) and there is no numbering.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    if budget < 1:
        raise ValueError("vertex budget must be positive")
    width = letters_per_vertex(spec, gens, radius, translators)
    letters = tree_letters(spec, gens)
    if letters is None:
        steps = [s for _, _, s in gens.symmetrized(spec)]
        return None, _searched_levels(spec, steps, radius, budget, width)
    tree = ShortlexTree(letters)
    return tree, _free_tree_levels(spec, tree, radius, budget, width)


def tree_letters(spec: GroupSpec, gens: GeneratingSet) -> "tuple[int, ...] | None":
    """The letters of S ∪ S⁻¹ in ascending order when each is a single
    letter of the free model, so the Cayley graph is a tree; else None."""
    if spec.model != "free":
        return None
    steps = [s for _, _, s in gens.symmetrized(spec)]
    if not all(len(s) == 1 for s in steps):
        return None
    return tuple(sorted(s[0] for s in steps))


def _searched_levels(
    spec: GroupSpec, steps: list, radius: int, budget: int, width: int
) -> Iterator[list[Element]]:
    """Breadth-first search by right multiplication with ``steps``, each
    level sorted.  The budget is checked after every vertex's products, so
    the error comes without finishing the level that overflows."""
    multiply = spec.multiply
    frontier = [spec.identity()]
    seen = set(frontier)
    if width > budget:
        raise _over_budget(0, budget, width)
    yield frontier
    for level in range(1, radius + 1):
        discovered = []
        for u in frontier:
            for s in steps:
                v = multiply(u, s)
                if v not in seen:
                    seen.add(v)
                    discovered.append(v)
            if len(seen) * width > budget:
                raise _over_budget(level, budget, width)
        if not discovered:
            return
        frontier = sorted(discovered, key=spec.element_sort_key)
        yield frontier


def _free_tree_levels(
    spec: GroupSpec, tree: ShortlexTree, radius: int, budget: int, width: int
) -> Iterator[list[Element]]:
    """The levels of ``tree``, over the m ascending letters of
    :func:`tree_letters`, single letters of the free model closed under
    inversion: distinct reduced words over them are distinct elements, so
    level k+1 is every word of level k followed by each of its children's
    letters, the letters but the inverse of its last one.  Taken in
    shortlex order the words come out sorted, and level k has
    m(m-1)^(k-1) of them, a size checked against the budget before the
    level is built."""
    frontier = [spec.identity()]
    if width > budget:
        raise _over_budget(0, budget, width)
    yield frontier
    kept = 1
    for level in range(1, radius + 1):
        kept += tree.level_size(level)
        if kept * width > budget:
            raise _over_budget(level, budget, width)
        if level == 1:
            frontier = [(t,) for t in tree.letters]
        else:
            children = tree.children
            frontier = [u + (t,) for u in frontier for t in children[u[-1]]]
        yield frontier


def _over_budget(level: int, budget: int, width: int) -> VertexBudgetError:
    letters = "" if width == 1 else f" at {width} letters per vertex"
    return VertexBudgetError(
        f"ball of radius {level} exceeds the vertex budget {budget}{letters}"
    )


def enumerate_ball(
    spec: GroupSpec,
    gens: GeneratingSet,
    radius: int,
    vertex_budget: "int | None" = None,
    translators: Iterable[Element] = (),
) -> CayleyPatch:
    """All elements of word length <= radius w.r.t. S ∪ S⁻¹, in the order
    of :func:`ball_levels`, so identical inputs index vertices identically
    whether the levels are generated or searched for, and with the same
    budget error.  A generated ball keeps the numbering that generated it
    (``tree``).  The patch's other facts are built when first read."""
    vertices: list[Element] = []
    level_sizes: list[int] = []
    tree, levels = ball_levels(spec, gens, radius, vertex_budget, translators)
    for sphere in levels:
        vertices.extend(sphere)
        level_sizes.append(len(sphere))
    return CayleyPatch(
        spec=spec,
        gens=gens,
        radius=radius,
        vertices=tuple(vertices),
        level_sizes=tuple(level_sizes),
        numbering=tree,
    )


def product_set(
    spec: GroupSpec, elements: Iterable[Element], translators: Iterable[Element]
) -> frozenset:
    """Exact right product set {a·s : a ∈ A, s ∈ S}, computed in the group
    as the union of one column A·s per translator."""
    elements = list(elements)
    return frozenset().union(*(spec.translates(elements, s) for s in translators))
