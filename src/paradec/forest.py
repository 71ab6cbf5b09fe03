"""Spanning forests on finite patches and the counting-argument audit.

Sampling is Wilson's loop-erased-random-walk algorithm, which draws exactly
uniform spanning trees.  Forests required to contain a fixed acyclic edge
set are sampled by contracting that set and sampling the contracted
multigraph; the matrix-tree correspondence makes the lifted tree uniform
among trees containing the required edges.  ``forest-audit`` builds a
patch's a-edge contraction once per command and draws every sample from it;
when the contraction is already a tree, every sample is that tree, built
once and kept on the contraction, and no walk runs.

The audit replays, on one concrete forest and concrete finite sets A1, A2,
the counting chain that derives |A1S1 ∪ A2S2| >= |A1| + |A2| from a forest
containing all a-edges with enough degree on A2: directed edge sets E, E1,
E2, E3 are built explicitly, the auxiliary graph Λ on A1S1 ∪ A2S2 with
edges E2 ∪ E3 is checked to be a forest, and every inequality is recorded
with its actual values.

Everything is a finite surrogate: degrees of boundary vertices are
depressed, so callers keep A1, A2 in the patch interior.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .cayley import CayleyPatch, GeneratingSet
from .doubling import TranslatingSets
from .errors import (
    DisconnectedGraphError,
    PatchEscapeError,
    RequiredEdgesCycleError,
)
from .groups import Element, GroupSpec


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        """Put y's root under x's root; False when they are one root.
        Both roots are found by path halving: each node passed on the way
        up is pointed at its grandparent."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            return False
        parent[y] = x
        return True


@dataclass(frozen=True)
class ForestSample:
    """An acyclic edge subset of a simple graph on ``range(num_vertices)``.

    The vertex range and acyclicity are checked, with union-find, at
    construction time.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.num_vertices
        uf = _UnionFind(n)
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has a vertex outside range({n})")
            if not uf.union(u, v):
                raise ValueError(f"edge ({u}, {v}) closes a cycle")

    @cached_property
    def edge_set(self) -> frozenset:
        """The edges as a set, built on the first read: a shared sample
        builds it once for all of its audits."""
        return frozenset(self.edges)


@dataclass(frozen=True)
class Contraction:
    """A connected graph with a fixed acyclic edge set contracted.

    ``edges`` is the contracted multigraph on ``num_blocks`` blocks, and
    ``originals[i]`` the graph edge behind ``edges[i]``.  It depends on the
    graph and the required edges only, not on a seed, so one contraction
    serves every :meth:`sample`.
    """

    num_vertices: int
    required: tuple[tuple[int, int], ...]
    num_blocks: int
    edges: tuple[tuple[int, int], ...]
    originals: tuple[tuple[int, int], ...]

    @property
    def is_tree(self) -> bool:
        """The contraction is connected, so with ``num_blocks - 1`` edges it
        is a tree: its own and only spanning tree."""
        return len(self.edges) == self.num_blocks - 1

    @cached_property
    def _exits(self) -> list[tuple]:
        """Per block, its exits ``(edge id, other block)`` in edge order,
        their number and that number's bit length: built on the first walk
        and read by every later one."""
        incident: list[list[tuple[int, int]]] = [[] for _ in range(self.num_blocks)]
        for eid, (u, v) in enumerate(self.edges):
            incident[u].append((eid, v))
            incident[v].append((eid, u))
        return [(row, len(row), len(row).bit_length()) for row in incident]

    def walk(self, rng: random.Random) -> list[int]:
        """Uniform spanning tree of the contracted multigraph; edge ids.

        Wilson's algorithm: walk from each block toward the growing tree,
        recording the last exit taken from every block; following those
        exits afterwards is exactly the loop-erased path.  An exit is drawn
        as ``rng.randrange(d)`` draws it (``_randbelow_with_getrandbits``):
        ``getrandbits(d.bit_length())`` until the value is below d.  So a
        seed gives the same tree as a walk that calls ``randrange``, without
        a call per step.
        """
        getrandbits = rng.getrandbits
        exits = self._exits
        in_tree = [False] * self.num_blocks
        in_tree[0] = True
        exit_choice: list = [None] * self.num_blocks
        tree_edges: list[int] = []
        for start in range(1, self.num_blocks):
            u = start
            while not in_tree[u]:
                row, d, k = exits[u]
                r = getrandbits(k)
                while r >= d:
                    r = getrandbits(k)
                exit_choice[u] = step = row[r]
                u = step[1]
            u = start
            while not in_tree[u]:
                in_tree[u] = True
                eid, u = exit_choice[u]
                tree_edges.append(eid)
        return tree_edges

    def _lift(self, chosen: Iterable[int]) -> ForestSample:
        """The graph's tree made of the chosen contraction edges and every
        required edge."""
        picked = [self.originals[i] for i in chosen]
        picked.extend(self.required)
        return ForestSample(self.num_vertices, tuple(sorted(picked)))

    @cached_property
    def _tree(self) -> ForestSample:
        """A tree contraction taken whole: built and validated on the first
        read, and the sample of every seed."""
        return self._lift(range(len(self.edges)))

    def sample(self, seed: int) -> ForestSample:
        """Uniform spanning tree among those containing every required edge.

        A tree contraction returns its one kept tree without a walk; each
        sample's random stream is its own, so skipping it changes no later
        draw.
        """
        if self.is_tree:
            return self._tree
        return self._lift(self.walk(random.Random(seed)))


def contract_required_edges(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    required: Sequence[tuple[int, int]],
) -> Contraction:
    """Contract the required edges (they must be acyclic edges of the
    graph) of a connected graph.

    Parallel edges of the contraction stay distinct, which is what keeps the
    lifted spanning trees uniform; self-loops are dropped since no spanning
    tree can use them.  A graph edge outside ``range(num_vertices)``, or a
    required pair that is not an edge of the graph, raises ValueError.
    """
    required = tuple((u, v) if u < v else (v, u) for u, v in required)
    uf = _UnionFind(num_vertices)
    for u, v in required:
        if u < 0 or v >= num_vertices:
            raise ValueError(f"required edge ({u}, {v}) is not an edge of the graph")
        if not uf.union(u, v):
            raise RequiredEdgesCycleError(
                f"required edges close a cycle at ({u}, {v})"
            )
    roots = [uf.find(x) for x in range(num_vertices)]
    block = {root: i for i, root in enumerate(sorted(set(roots)))}
    block_of = [block[root] for root in roots]
    # A required edge joins two vertices of one block, so it is met among
    # the edges skipped there; any one not met is not an edge of the graph.
    # The union-find goes on joining blocks, counting the components left.
    unmet = set(required)
    components = len(block)
    contracted: list[tuple[int, int]] = []
    originals: list[tuple[int, int]] = []
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if key[0] < 0 or key[1] >= num_vertices:
            raise ValueError(
                f"graph edge ({u}, {v}) has a vertex outside range({num_vertices})"
            )
        cu, cv = block_of[u], block_of[v]
        if cu == cv:
            unmet.discard(key)
            continue
        contracted.append((cu, cv))
        originals.append(key)
        if uf.union(u, v):
            components -= 1
    if unmet:
        u, v = next(edge for edge in required if edge in unmet)
        raise ValueError(f"required edge ({u}, {v}) is not an edge of the graph")
    if components != 1:
        raise DisconnectedGraphError(
            f"graph has {components} components; spanning trees need 1"
        )
    return Contraction(
        num_vertices, required, len(block), tuple(contracted), tuple(originals)
    )


def sample_spanning_tree_with_required_edges(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    required: Sequence[tuple[int, int]],
    seed: int,
) -> ForestSample:
    """Uniform spanning tree among those containing every required edge: a
    uniform spanning tree of the contracted multigraph, lifted back.  One
    contraction per call; :class:`Contraction` draws many from one."""
    return contract_required_edges(num_vertices, edges, required).sample(seed)


def patch_a_edges(patch: CayleyPatch, a_symbol: str) -> tuple[tuple[int, int], ...]:
    """In-patch unoriented simple edges whose label element is a or a⁻¹,
    read off the a and a⁻¹ columns of the patch's neighbour table."""
    columns = [
        k
        for k, (sym, _, _) in enumerate(patch.gens.symmetrized(patch.spec))
        if sym == a_symbol
    ]
    pairs = set()
    for k in columns:
        for i, row in enumerate(patch.neighbours):
            j = row[k]
            if j is not None and j != i:
                pairs.add((i, j) if i < j else (j, i))
    return tuple(sorted(pairs))


def a_edge_contraction(patch: CayleyPatch, a_symbol: str) -> Contraction:
    """The patch's simple graph with its a±1-edges contracted; one
    contraction serves every sample of the patch.

    Requires the in-patch a-edge set to be acyclic, which holds whenever the
    labeled element has infinite order; a cycle signals torsion-like
    behaviour and raises :class:`RequiredEdgesCycleError`.  A ball of the
    free tree (``patch.tree``) is contracted in one pass over its parent
    pairs (:func:`_tree_contraction`); any other patch by
    :func:`contract_required_edges`.
    """
    if a_symbol not in patch.gens.symbols():
        raise KeyError(f"no generator named {a_symbol!r} in the patch")
    if patch.tree is not None:
        return _tree_contraction(patch, a_symbol)
    return contract_required_edges(
        len(patch.vertices), patch.simple_edges, patch_a_edges(patch, a_symbol)
    )


def _tree_contraction(patch: CayleyPatch, a_symbol: str) -> Contraction:
    """:func:`contract_required_edges` of a free tree ball and its a-edges,
    field for field, with no union-find.

    The simple edges are the parent pairs (parent(v), v) in the order of v,
    and v = parent·x for its last letter x.  The pair is an a-edge when x
    or x⁻¹ is the element of an a column of the view, the columns that
    :func:`patch_a_edges` reads: then v joins its parent's block and the
    pair is required.  Otherwise v is the least vertex of its block, so it
    opens the next block and the pair is a contracted edge.  The blocks
    are thus numbered by their least vertex, which is the root that the
    union-find gives each block when it links the sorted required pairs."""
    a_letters = {
        s[0] for sym, _, s in patch.gens.symmetrized(patch.spec) if sym == a_symbol
    }
    a_letters |= {-x for x in a_letters}
    vertices = patch.vertices
    block_of = [0] * len(vertices)
    required: list[tuple[int, int]] = []
    contracted: list[tuple[int, int]] = []
    originals: list[tuple[int, int]] = []
    for pair in patch.simple_edges:
        u, v = pair
        if vertices[v][-1] in a_letters:
            block_of[v] = block_of[u]
            required.append(pair)
        else:
            block_of[v] = len(originals) + 1
            contracted.append((block_of[u], block_of[v]))
            originals.append(pair)
    return Contraction(
        len(vertices),
        tuple(required),
        len(originals) + 1,
        tuple(contracted),
        tuple(originals),
    )


def sample_forest_containing_a_edges(contraction: Contraction, seed: int) -> ForestSample:
    """Uniform spanning tree of a patch containing every a±1-labeled edge,
    drawn from the patch's :func:`a_edge_contraction`: the per-seed draw of
    ``forest-audit``, kept as its own function so that a trace can time and
    count the draws."""
    return contraction.sample(seed)


# -- counting-argument audit ---------------------------------------------------


_RELATIONS = {">=": operator.ge, "==": operator.eq, ">": operator.gt}


@dataclass(frozen=True)
class InequalityCheck:
    """One ledger entry: ``lhs relation rhs``, which holds or fails."""

    name: str
    lhs: int
    rhs: int
    relation: str

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown ledger relation {self.relation!r}")

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ForestAudit:
    """The explicit edge sets and the verified inequality ledger."""

    a1: tuple[Element, ...]
    a2: tuple[Element, ...]
    e: tuple
    e1: tuple
    e2: tuple
    e3: tuple
    lambda_vertices: tuple[Element, ...]
    lambda_edges: tuple[tuple[Element, Element], ...]
    ledger: tuple[InequalityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.ledger)

    def to_jsonable(self, fmt: Callable[[Element], str]) -> dict:
        """The audit as JSON, its elements written by ``fmt``, such as
        ``GroupSpec.format_element`` or a memo of it that a command shares
        across all of its audits."""
        def edge_list(edges):
            return [[fmt(g), sym, sign, fmt(target)] for g, sym, sign, target in edges]

        return {
            "a1": [fmt(g) for g in self.a1],
            "a2": [fmt(g) for g in self.a2],
            "e": edge_list(self.e),
            "e1": edge_list(self.e1),
            "e2": edge_list(self.e2),
            "e3": edge_list(self.e3),
            "lambda_vertices": [fmt(v) for v in self.lambda_vertices],
            "lambda_edges": [[fmt(u), fmt(v)] for u, v in self.lambda_edges],
            "ledger": [check.to_jsonable() for check in self.ledger],
            "all_passed": self.all_passed,
        }


def check_generating_triple(spec: GroupSpec, gens: GeneratingSet) -> None:
    """The audit's generators must be three distinct non-identity elements
    (a, b, c)."""
    if len(gens.pairs) != 3:
        raise ValueError("the audit needs a generating triple (a, b, c)")
    elements = [el for _, el in gens.pairs]
    if len(set(elements)) != 3 or spec.identity() in elements:
        raise ValueError("generating triple must be three distinct non-identity elements")


def identify_triple(spec: GroupSpec, gens: GeneratingSet, ts: TranslatingSets) -> str:
    """Match S1 = {1, a}, S2 = {1, b, c} against a named generating triple;
    return the symbol of a."""
    check_generating_triple(spec, gens)
    identity = spec.identity()
    if len(ts.s1) != 2 or identity not in ts.s1:
        raise ValueError("S1 must have the shape {1, a}")
    if len(ts.s2) != 3 or identity not in ts.s2:
        raise ValueError("S2 must have the shape {1, b, c}")
    a_elem = next(s for s in ts.s1 if s != identity)
    rest = {s for s in ts.s2 if s != identity}
    by_element = {el: sym for sym, el in gens.pairs}
    if a_elem not in by_element:
        raise ValueError("the S1 translator must be one of the named generators")
    if rest != set(by_element) - {a_elem}:
        raise ValueError("S2 must consist of 1 and the two remaining generators")
    return by_element[a_elem]


def audit_counting_argument(
    patch: CayleyPatch,
    forest: ForestSample,
    a1: Iterable[Element],
    a2: Iterable[Element],
    ts: TranslatingSets,
) -> ForestAudit:
    """Replay the forest counting chain on concrete data.

    ``forest`` is a spanning forest of the patch's simple graph.  S1 = {1, a}
    and S2 = {1, b, c} must name the patch's generators, and A2 must lie in
    its interior (:attr:`CayleyPatch.interior`).

    Every fact is read off the patch's neighbour rows of A1 and A2
    (:meth:`CayleyPatch.row`), one column per element of the symmetrized
    generating set, so the audit forms no group product: the edges are
    vertex indices until the audit is built.  On a ball of the free tree
    the rows and the indices are read off its numbering, and neither the
    whole table nor the vertex index is built.

    The degree hypothesis |E| >= 5|A2| is recorded like every other entry:
    it holds on patches whose interior degree is at least 5 (a rank-3 tree
    gives 6) and honestly fails elsewhere, in which case the dependent
    entries may fail too while the structural ones still hold.
    """
    spec, gens = patch.spec, patch.gens
    a_sym = identify_triple(spec, gens, ts)
    a1 = sorted(set(a1), key=spec.element_sort_key)
    a2 = sorted(set(a2), key=spec.element_sort_key)
    for g in a1 + a2:
        if g not in patch:
            raise PatchEscapeError(f"element {spec.format_element(g)} is not a patch vertex")
    vertices = patch.vertices
    ids1 = [patch.index_of(g) for g in a1]
    ids2 = [patch.index_of(g) for g in a2]
    neighbours = {i: patch.row(i) for i in ids1 + ids2}
    # Escape checks: A2 needs its whole star, since the degree counts read
    # it whole (so A2 lies in the interior), and A1 its a-translate.
    for i in ids2:
        if None in neighbours[i]:
            raise PatchEscapeError(
                f"{spec.format_element(vertices[i])} is not interior: its star "
                "leaves the patch; shrink A2 or grow the patch"
            )
    if not a1 and not a2:
        raise ValueError("A1 and A2 must not both be empty")
    view = gens.symmetrized(spec)
    column = {t: k for k, (_, _, t) in enumerate(view)}
    a_column = column[gens.element(a_sym)]
    for i in ids1:
        if neighbours[i][a_column] is None:
            raise PatchEscapeError(
                f"a-translate of {spec.format_element(vertices[i])} leaves the patch"
            )

    # E1 keeps the columns of S \ S⁻¹, and E2 those of them in {b, c}.
    s_elements = {el for _, el in gens.pairs}
    in_e1 = [t in s_elements and spec.invert(t) not in s_elements for _, _, t in view]
    identity = spec.identity()
    bc_elements = {s for s in ts.s2 if s != identity}
    forest_edges = forest.edge_set

    # edges are (source index, column, target index)
    e_edges = [
        (i, k, j)
        for i in ids2
        for k, j in enumerate(neighbours[i])
        if j != i and ((i, j) if i < j else (j, i)) in forest_edges
    ]
    e1_edges = [edge for edge in e_edges if in_e1[edge[1]]]
    e2_edges = [edge for edge in e1_edges if view[edge[1]][2] in bc_elements]

    e3_edges = []
    for i in ids1:
        j = neighbours[i][a_column]
        if ((i, j) if i < j else (j, i)) not in forest_edges:
            raise ValueError(
                f"forest is missing the a-edge at {spec.format_element(vertices[i])}; "
                "sample with the a-edge constraint first"
            )
        e3_edges.append((i, a_column, j))

    # Λ's vertices A1S1 ∪ A2S2: A1 and A2 themselves for the identity
    # translator, and the entries of every other translator's column.
    lambda_ids = set(ids1) | set(ids2)
    for ids, translators in ((ids1, ts.s1), (ids2, ts.s2)):
        for k in [column[s] for s in translators if s != identity]:
            lambda_ids.update(neighbours[i][k] for i in ids)
    order = sorted(lambda_ids, key=lambda i: spec.element_sort_key(vertices[i]))
    place = {i: n for n, i in enumerate(order)}
    directed2 = {(i, j) for i, _, j in e2_edges}
    directed3 = {(i, j) for i, _, j in e3_edges}
    directed = directed2 | directed3
    # Λ's edges over its own vertices in sort order, each written low first
    lambda_pairs = sorted(
        {(place[i], place[j]) if place[i] < place[j] else (place[j], place[i])
         for i, j in directed}
    )
    opposite_pairs = sum(1 for i, j in directed if (j, i) in directed) // 2

    uf = _UnionFind(len(order))
    lambda_components = len(order)
    for u, v in lambda_pairs:
        if uf.union(u, v):
            lambda_components -= 1

    n_e, n_e1, n_e2, n_e3 = len(e_edges), len(e1_edges), len(e2_edges), len(e3_edges)
    n_v, n_le = len(order), len(lambda_pairs)
    size_s = len(gens.pairs)

    # Each union joins two components, so |EΛ| = |V| - components exactly
    # when no edge of Λ closed a cycle.
    checks = [
        InequalityCheck("degree_sum", n_e, 5 * len(a2), ">="),
        InequalityCheck("e1_lower", n_e1, n_e - size_s * len(a2), ">="),
        InequalityCheck("e1_at_least_twice_a2", n_e1, 2 * len(a2), ">="),
        InequalityCheck("e2_lower", n_e2, n_e1 - len(a2), ">="),
        InequalityCheck("e2_at_least_a2", n_e2, len(a2), ">="),
        InequalityCheck("e3_counts_a1", n_e3, len(a1), "=="),
        InequalityCheck("e2_e3_disjoint", len(directed2 & directed3), 0, "=="),
        InequalityCheck("no_opposite_pairs", opposite_pairs, 0, "=="),
        InequalityCheck("lambda_edge_count", n_le, n_e2 + n_e3, "=="),
        InequalityCheck("lambda_forest", n_le, n_v - lambda_components, "=="),
        InequalityCheck("vertices_exceed_edges", n_v, n_le, ">"),
        InequalityCheck("doubling_conclusion", n_v, len(a1) + len(a2), ">="),
    ]

    def labeled(edges):
        return tuple(
            (vertices[i], view[k][0], view[k][1], vertices[j]) for i, k, j in edges
        )

    lambda_vertices = tuple(vertices[i] for i in order)
    return ForestAudit(
        a1=tuple(a1),
        a2=tuple(a2),
        e=labeled(e_edges),
        e1=labeled(e1_edges),
        e2=labeled(e2_edges),
        e3=labeled(e3_edges),
        lambda_vertices=lambda_vertices,
        lambda_edges=tuple(
            (lambda_vertices[u], lambda_vertices[v]) for u, v in lambda_pairs
        ),
        ledger=tuple(checks),
    )
