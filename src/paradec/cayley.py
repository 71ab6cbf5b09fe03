"""Finite balls of right Cayley graphs: labeled edges, distances, product sets.

A :class:`CayleyPatch` is a closed combinatorial window onto the (possibly
infinite) Cayley graph: it stores every product that lands inside the patch
and nothing else.  Exact products that cross the boundary are computed with
:func:`product_set`, which works in the group itself.

A ball over single letters of a free group is generated as reduced words in
shortlex order, since its Cayley graph is a tree; any other ball is found by
breadth-first search.  Both give the same vertices in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class CayleyPatch:
    """Ball of the right Cayley graph; immutable and shareable.

    Stored: ``spec``, ``gens``, ``radius``, the ``vertices`` in ball order
    (vertex 0 is the identity) and ``level_sizes``, the number of vertices
    at each distance up to the largest one present.  Built on first read
    and kept, since most callers need only the vertices: the vertex index
    behind :meth:`index_of` and ``in``, ``distances``, the ``neighbours``
    table, and its views ``edges``, the unoriented simple graph
    ``simple_edges`` and the ``interior``.
    """

    spec: GroupSpec
    gens: GeneratingSet
    radius: int
    vertices: tuple[Element, ...]
    level_sizes: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {v: i for i, v in enumerate(self.vertices)}

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
        product leaves the patch.  Every edge fact is read off this table."""
        star = self.spec.star(s for _, _, s in self.gens.symmetrized(self.spec))
        lookup = self._index.get
        return tuple(tuple(map(lookup, star(u))) for u in self.vertices)

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

    def index_of(self, element: Element) -> int:
        return self._index[element]

    def __contains__(self, element: Element) -> bool:
        return element in self._index

    @cached_property
    def simple_edges(self) -> tuple[tuple[int, int], ...]:
        """Unoriented simple graph: loops dropped, parallel edges collapsed.

        The view holds every generator's inverse, so each in-patch edge
        u -> v has its reverse v -> u, and the products in a row are
        distinct elements: the pairs i < j are each edge once."""
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
        patch: the rows of ``neighbours`` with no None."""
        return tuple(
            v for v, row in zip(self.vertices, self.neighbours) if None not in row
        )

    # -- exports -----------------------------------------------------------

    def to_jsonable(self) -> dict:
        fmt = self.spec.formatter()
        return {
            "group": spec_to_string(self.spec),
            "generators": [
                [sym, self.spec.format_element(el)] for sym, el in self.gens.pairs
            ],
            "radius": self.radius,
            "vertices": [fmt(v) for v in self.vertices],
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
        fmt = self.spec.formatter()
        for i, v in enumerate(self.vertices):
            lines.append(f"# vertex\t{i}\t{fmt(v)}\t{self.distances[i]}")
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
) -> Iterator[list[Element]]:
    """The spheres of the ball, level by level: ``[identity]``, then the
    elements at word length 1, 2, ... <= radius w.r.t. S ∪ S⁻¹, each level
    sorted by the spec's element order.  Stops early at an empty level.

    Each element counts :func:`letters_per_vertex` units of the budget at
    ``radius`` and ``translators``, and :class:`VertexBudgetError` names
    the first level that takes the ball over it.  When S ∪ S⁻¹ is a set of
    single letters of the free model, the Cayley graph is a tree and each
    level is generated from the one before (:func:`_free_tree_levels`);
    otherwise the levels are searched for (:func:`_searched_levels`).
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    if budget < 1:
        raise ValueError("vertex budget must be positive")
    width = letters_per_vertex(spec, gens, radius, translators)
    letters = tree_letters(spec, gens)
    if letters is not None:
        yield from _free_tree_levels(spec, letters, radius, budget, width)
    else:
        steps = [s for _, _, s in gens.symmetrized(spec)]
        yield from _searched_levels(spec, steps, radius, budget, width)


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
    level sorted.  The budget is checked after every vertex's star, so the
    error comes without finishing the level that overflows."""
    star = spec.star(steps)
    frontier = [spec.identity()]
    seen = set(frontier)
    if width > budget:
        raise _over_budget(0, budget, width)
    yield frontier
    for level in range(1, radius + 1):
        discovered = []
        for u in frontier:
            for v in star(u):
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
    spec: GroupSpec, letters: tuple, radius: int, budget: int, width: int
) -> Iterator[list[Element]]:
    """The levels over the ascending ``letters`` of :func:`tree_letters`,
    m single letters of the free model closed under inversion: distinct
    reduced words over them are distinct elements, so level k+1 is every
    word of level k followed by a letter other than the inverse of its
    last one.  Taken in shortlex order the words come out sorted, and
    level k has m(m-1)^(k-1) of them, a size checked against the budget
    before the level is built."""
    frontier = [spec.identity()]
    if width > budget:
        raise _over_budget(0, budget, width)
    yield frontier
    m = len(letters)
    kept = 1
    for level in range(1, radius + 1):
        kept += m * (m - 1) ** (level - 1)
        if kept * width > budget:
            raise _over_budget(level, budget, width)
        if level == 1:
            frontier = [(t,) for t in letters]
        else:
            frontier = [u + (t,) for u in frontier for t in letters if t != -u[-1]]
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
    budget error.  The patch's other facts are built when first read."""
    vertices: list[Element] = []
    level_sizes: list[int] = []
    for sphere in ball_levels(spec, gens, radius, vertex_budget, translators):
        vertices.extend(sphere)
        level_sizes.append(len(sphere))
    return CayleyPatch(
        spec=spec,
        gens=gens,
        radius=radius,
        vertices=tuple(vertices),
        level_sizes=tuple(level_sizes),
    )


def product_set(
    spec: GroupSpec, elements: Iterable[Element], translators: Iterable[Element]
) -> frozenset:
    """Exact right product set {a·s : a ∈ A, s ∈ S}, computed in the group
    as the union of one column A·s per translator."""
    elements = list(elements)
    return frozenset().union(*(spec.translates(elements, s) for s in translators))
