"""Independent oracles used to derive expected values.

Deliberately naive and separate from the library's code paths: the ball
oracle is a plain frontier expansion without sorting or indexing, and the
spanning-tree count is Kirchhoff's matrix-tree determinant evaluated with
exact integer (Bareiss) elimination.  Only the 4^|D| doubling oracle,
:func:`brute_force_check`, needs numpy, which the library does not import.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from paradec.decomposition import DecompositionReport, PartialDecomposition
from paradec.doubling import Certificate, TranslatingSets, Verdict, Violator
from paradec.errors import CertificateError, ParadecError, VertexBudgetError
from paradec.groups import Element, GroupSpec, free_group
from paradec.matching import UNMATCHED

BRUTE_FORCE_MAX_DOMAIN = 14


class DomainSizeError(ParadecError, ValueError):
    """Brute-force domain larger than the 4^|D| enumeration guardrail."""


_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def ball_oracle(spec, generators, radius):
    """Set of elements with word length <= radius over the symmetrized
    generators; plain breadth-first expansion with sets only."""
    symmetric = set(generators) | {spec.invert(g) for g in generators}
    seen = {spec.identity()}
    frontier = {spec.identity()}
    for _ in range(radius):
        frontier = {
            spec.multiply(u, s) for u in frontier for s in symmetric
        } - seen
        seen |= frontier
    return seen


def sphere_oracle(spec, generators, radius):
    """Counts of elements at each exact word length 0..radius, up to the
    last nonempty sphere."""
    sizes = [1]
    previous = ball_oracle(spec, generators, 0)
    for r in range(1, radius + 1):
        current = ball_oracle(spec, generators, r)
        if len(current) == len(previous):
            break  # the ball is the whole group
        sizes.append(len(current) - len(previous))
        previous = current
    return sizes


def bareiss_determinant(matrix):
    """Exact determinant of an integer matrix via fraction-free elimination."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    previous_pivot = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous_pivot
            a[i][k] = 0
        previous_pivot = a[k][k]
    return sign * a[n - 1][n - 1]


def kirchhoff_count(num_vertices, edges):
    """Number of spanning trees of a multigraph by the matrix-tree theorem."""
    if num_vertices <= 1:
        return 1
    laplacian = [[0] * num_vertices for _ in range(num_vertices)]
    for u, v in edges:
        if u == v:
            continue
        laplacian[u][u] += 1
        laplacian[v][v] += 1
        laplacian[u][v] -= 1
        laplacian[v][u] -= 1
    minor = [row[1:] for row in laplacian[1:]]
    return bareiss_determinant(minor)


def union_product_count(spec, a1, s1, a2, s2):
    """|A1·S1 ∪ A2·S2| by direct enumeration."""
    products = {spec.multiply(a, s) for a in a1 for s in s1}
    products |= {spec.multiply(a, s) for a in a2 for s in s2}
    return len(products)


def shrink_violator_oracle(spec, ts, a1, a2):
    """Greedy violator shrink by full recount: drop elements of A1, then of
    A2, in element order, recounting |A1·S1 ∪ A2·S2| from scratch for every
    candidate removal and keeping the removal while the pair still
    violates."""
    a1 = sorted(a1, key=spec.element_sort_key)
    a2 = sorted(a2, key=spec.element_sort_key)
    for which in (a1, a2):
        for g in list(which):
            which.remove(g)
            if union_product_count(spec, a1, ts.s1, a2, ts.s2) >= len(a1) + len(a2):
                which.append(g)
        which.sort(key=spec.element_sort_key)
    return a1, a2


def doubling_holds_naive(spec, ts, domain):
    """Quantifier over all subset pairs, written with itertools only."""
    from itertools import chain, combinations

    domain = list(domain)

    def subsets(items):
        return chain.from_iterable(
            combinations(items, size) for size in range(len(items) + 1)
        )

    for a1 in subsets(domain):
        for a2 in subsets(domain):
            if union_product_count(spec, a1, ts.s1, a2, ts.s2) < len(a1) + len(a2):
                return False
    return True


def free_up_to_length_oracle(spec, g, h, length):
    """Shortest relation in g, h by exhaustive search: depth-first over the
    reduced words of each length 1..length in turn, in the letter order g,
    g⁻¹, h, h⁻¹, so the first identity found is the shortest relation and
    the lexicographically first of its length.  O(3^length) multiplies."""
    from paradec.decomposition import FreenessResult

    letters = (
        ("g", 1, g),
        ("g", -1, spec.invert(g)),
        ("h", 1, h),
        ("h", -1, spec.invert(h)),
    )
    identity = spec.identity()

    def dfs(prefix, value, remaining):
        if remaining == 0:
            return prefix if value == identity else None
        last = prefix[-1] if prefix else None
        for name, sign, element in letters:
            if last is not None and last == (name, -sign):
                continue
            found = dfs(
                prefix + [(name, sign)], spec.multiply(value, element), remaining - 1
            )
            if found is not None:
                return found
        return None

    for target in range(1, length + 1):
        witness = dfs([], identity, target)
        if witness is not None:
            return FreenessResult(free_up_to=length, witness=tuple(witness))
    return FreenessResult(free_up_to=length, witness=None)


def ball_edges_oracle(patch):
    """Labeled in-patch edges by one eager pass: every vertex times every
    element of the symmetrized generating set, looked up in a fresh index."""
    spec = patch.spec
    index = {v: i for i, v in enumerate(patch.vertices)}
    edges = []
    for i, u in enumerate(patch.vertices):
        for sym, sign, s in patch.gens.symmetrized(spec):
            j = index.get(spec.multiply(u, s))
            if j is not None:
                edges.append((i, sym, sign, j))
    return tuple(edges)


def neighbours_oracle(patch):
    """The neighbour table by one star of each vertex: for each element of
    the symmetrized generating set, in view order, the product formed in
    the group and looked up in a fresh vertex index, or None.  The
    reference for ``CayleyPatch.neighbours``, which reads a ball of the
    free tree off its shortlex numbering instead."""
    spec = patch.spec
    star = spec.star(s for _, _, s in patch.gens.symmetrized(spec))
    index = {v: i for i, v in enumerate(patch.vertices)}
    return tuple(tuple(map(index.get, star(u))) for u in patch.vertices)


def simple_edges_oracle(edges):
    """The unoriented simple graph of labeled edges ``(u, sym, sign, v)``:
    loops dropped, each pair once as (min, max), sorted."""
    return tuple(sorted({(min(u, v), max(u, v)) for u, _, _, v in edges if u != v}))


def interior_oracle(patch, edges):
    """The patch's vertices, in patch order, with one outgoing labeled edge
    per element of the symmetrized generating set."""
    star = len(patch.gens.symmetrized(patch.spec))
    degree = [0] * len(patch.vertices)
    for u, _, _, _ in edges:
        degree[u] += 1
    return tuple(v for v, d in zip(patch.vertices, degree) if d == star)


def patch_a_edges_oracle(edges, a_symbol):
    """The unoriented simple edges among the labeled edges of symbol
    ``a_symbol``, sorted."""
    pairs = {(min(u, v), max(u, v)) for u, sym, _, v in edges if sym == a_symbol and u != v}
    return tuple(sorted(pairs))


def minimal_violating_radius_oracle(spec, gens, ts, max_radius, vertex_budget=None):
    """Per-radius violator search: a fresh ball and a fresh matching
    (``check_domain``) at every radius 0..max_radius in turn.  Each ball is
    checked against the budget before its domain: in the free model a
    vertex counts max(1, max|s|, max_radius·max|x|) units over the
    translators s and the generators x, since it is a product of up to
    ``max_radius`` generators multiplied by a translator; 1 elsewhere."""
    from paradec.cayley import DEFAULT_VERTEX_BUDGET, enumerate_ball
    from paradec.doubling import Violator, check_domain

    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    width = 1
    if spec.model == "free":
        longest = max(len(x) for _, x in gens.pairs)
        width = max(1, max_radius * longest, *(len(s) for s in ts.s1 + ts.s2))
    for radius in range(max_radius + 1):
        # a budget no test ball reaches, so the check below decides
        patch = enumerate_ball(spec, gens, radius, 10**9)
        if len(patch.vertices) * width > budget:
            letters = "" if width == 1 else f" at {width} letters per vertex"
            raise VertexBudgetError(
                f"ball of radius {radius} exceeds the vertex budget {budget}{letters}"
            )
        verdict = check_domain(spec, ts, patch.vertices)
        if isinstance(verdict, Violator):
            return radius, verdict
    return None


def free_reduce_oracle(letters: Iterable[int]) -> tuple[int, ...]:
    """Free reduction of signed letters on a plain stack, calling no
    ``GroupSpec`` method: a letter cancels the top when it is its inverse."""
    stack: list[int] = []
    for s in letters:
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def evaluate_word_oracle(spec, letters, symbols=None):
    """Left-to-right product of (symbol, exponent) pairs, each power formed
    by binary powering with ``spec.multiply`` and no length bound."""
    symbols = spec.generator_map() if symbols is None else symbols
    result = spec.identity()
    for name, exponent in letters:
        base = symbols[name] if exponent >= 0 else spec.invert(symbols[name])
        n = abs(exponent)
        power = spec.identity()
        while n:
            if n & 1:
                power = spec.multiply(power, base)
            base = spec.multiply(base, base)
            n >>= 1
        result = spec.multiply(result, power)
    return result


def wilson_oracle(num_vertices, multigraph_edges, rng):
    """Uniform spanning tree of a connected multigraph; returns edge ids.

    Wilson's algorithm with a ``rng.randrange`` call per step and the
    incidence lists built on every call: walk from each vertex toward the
    growing tree, recording the last exit taken from every vertex;
    following those exits afterwards is exactly the loop-erased path.
    """
    incident = [[] for _ in range(num_vertices)]
    for eid, (u, v) in enumerate(multigraph_edges):
        incident[u].append((eid, v))
        incident[v].append((eid, u))
    in_tree = [False] * num_vertices
    in_tree[0] = True
    exit_choice = [(-1, -1)] * num_vertices
    tree_edges = []
    for start in range(1, num_vertices):
        u = start
        while not in_tree[u]:
            eid, w = incident[u][rng.randrange(len(incident[u]))]
            exit_choice[u] = (eid, w)
            u = w
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            eid, w = exit_choice[u]
            tree_edges.append(eid)
            u = w
    return tree_edges


def contraction_oracle(num_vertices, edges, required):
    """The contraction of the required edges, its union-find and block map
    rebuilt from scratch: ``(required, num_blocks, edges, originals)`` as
    :class:`paradec.forest.Contraction` holds them, after the same cycle
    and connectivity checks."""
    from paradec.errors import DisconnectedGraphError, RequiredEdgesCycleError

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    required = tuple((min(u, v), max(u, v)) for u, v in required)
    pinned = set(required)
    parent = list(range(num_vertices))
    for u, v in required:
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            raise RequiredEdgesCycleError(f"required edges close a cycle at ({u}, {v})")
        parent[rv] = ru
    roots = sorted({find(parent, x) for x in range(num_vertices)})
    block = {root: i for i, root in enumerate(roots)}
    contracted, originals = [], []
    for u, v in edges:
        key = (min(u, v), max(u, v))
        cu, cv = block[find(parent, u)], block[find(parent, v)]
        if key in pinned or cu == cv:
            continue
        contracted.append((cu, cv))
        originals.append(key)
    merged = list(range(len(roots)))
    components = len(roots)
    for cu, cv in contracted:
        ru, rv = find(merged, cu), find(merged, cv)
        if ru != rv:
            merged[rv] = ru
            components -= 1
    if components != 1:
        raise DisconnectedGraphError(
            f"graph has {components} components; spanning trees need 1"
        )
    return required, len(roots), tuple(contracted), tuple(originals)


def sample_with_required_edges_oracle(num_vertices, edges, required, seed):
    """Conditioned spanning tree with the contraction rebuilt on every call
    (:func:`contraction_oracle`), then one Wilson walk on it
    (:func:`wilson_oracle`), even when the contraction is already a tree."""
    import random

    from paradec.forest import ForestSample

    required, num_blocks, contracted, originals = contraction_oracle(
        num_vertices, edges, required
    )
    chosen = wilson_oracle(num_blocks, contracted, random.Random(seed))
    picked = [originals[i] for i in chosen] + list(required)
    return ForestSample(num_vertices, tuple(sorted(picked)))


def brute_force_check(
    spec: GroupSpec, ts: TranslatingSets, domain: Iterable[Element]
) -> Verdict:
    """Exhaustively test all 4^|D| subset pairs (|D| <= 14).

    Returns a minimum-cardinality violator when one exists, breaking ties
    by the lexicographically least (sorted A1, sorted A2) pair; otherwise a
    certificate found with a plain augmenting-path matching, independent of
    the Hopcroft-Karp path used by ``check_domain``.
    """
    elements = sorted(set(domain), key=spec.element_sort_key)
    if not elements:
        raise ValueError("domain must be nonempty")
    n = len(elements)
    if n > BRUTE_FORCE_MAX_DOMAIN:
        raise DomainSizeError(
            f"domain of size {n} exceeds the brute-force bound {BRUTE_FORCE_MAX_DOMAIN}"
        )

    right_index: dict[Element, int] = {}

    def bitmask(g: Element, translators) -> int:
        mask = 0
        for s in translators:
            w = spec.multiply(g, s)
            j = right_index.get(w)
            if j is None:
                j = len(right_index)
                right_index[w] = j
            mask |= 1 << j
        return mask

    masks1 = [bitmask(g, ts.s1) for g in elements]
    masks2 = [bitmask(g, ts.s2) for g in elements]
    num_bits = len(right_index)
    num_bytes = max(1, (num_bits + 7) // 8)

    def to_row(mask: int) -> np.ndarray:
        return np.frombuffer(mask.to_bytes(num_bytes, "little"), dtype=np.uint8)

    rows1 = np.array([to_row(m) for m in masks1], dtype=np.uint8)
    rows2 = np.array([to_row(m) for m in masks2], dtype=np.uint8)

    def subset_unions(rows: np.ndarray) -> np.ndarray:
        unions = np.zeros((1 << n, num_bytes), dtype=np.uint8)
        for m in range(1, 1 << n):
            low = m & -m
            unions[m] = unions[m ^ low] | rows[low.bit_length() - 1]
        return unions

    unions1 = subset_unions(rows1)
    unions2 = subset_unions(rows2)
    sizes = np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.int64)

    best_total = None
    for m1 in range(1 << n):
        union_counts = _POPCOUNT[unions1[m1] | unions2].sum(axis=1, dtype=np.int64)
        violating = union_counts < sizes[m1] + sizes
        if violating.any():
            total = sizes[m1] + int(sizes[violating].min())
            if best_total is None or total < best_total:
                best_total = total

    if best_total is None:
        return _brute_force_certificate(spec, ts, elements)

    best_pair = None
    best_key = None
    for k1 in range(0, min(n, best_total) + 1):
        k2 = best_total - k1
        if k2 < 0 or k2 > n:
            continue
        combos2 = list(combinations(range(n), k2))
        idx2 = np.array(
            [sum(1 << i for i in combo) for combo in combos2], dtype=np.int64
        )
        block2 = unions2[idx2]
        for combo1 in combinations(range(n), k1):
            m1 = sum(1 << i for i in combo1)
            union_counts = _POPCOUNT[unions1[m1] | block2].sum(axis=1, dtype=np.int64)
            violating = np.flatnonzero(union_counts < k1 + k2)
            if violating.size == 0:
                continue
            combo2 = combos2[int(violating[0])]
            a1 = tuple(elements[i] for i in combo1)
            a2 = tuple(elements[i] for i in combo2)
            key = (
                tuple(spec.element_sort_key(g) for g in a1),
                tuple(spec.element_sort_key(g) for g in a2),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (a1, a2)
            break  # later combo1 of this size are lexicographically larger
    assert best_pair is not None
    a1, a2 = best_pair
    return Violator(a1, a2, union_product_count(spec, a1, ts.s1, a2, ts.s2))


def _brute_force_certificate(
    spec: GroupSpec, ts: TranslatingSets, elements: Sequence[Element]
) -> Certificate:
    """Kuhn's augmenting-path matching; exhaustive scan showed Hall holds,
    so the matching saturates the left side."""
    lefts, rows = hall_graph_oracle(spec, ts, [elements])
    right_index: dict[Element, int] = {}
    adjacency = [
        [right_index.setdefault(w, len(right_index)) for w in row] for row in rows
    ]
    right_elements = list(right_index)
    pair_right = [UNMATCHED] * len(right_elements)
    pair_left = [UNMATCHED] * len(lefts)

    def augment(u: int, visited: list[bool]) -> bool:
        for v in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            if pair_right[v] == UNMATCHED or augment(pair_right[v], visited):
                pair_left[u] = v
                pair_right[v] = u
                return True
        return False

    for u in range(len(lefts)):
        if not augment(u, [False] * len(right_elements)):
            raise AssertionError("Hall condition held but matching failed")
    # the translator of each matched image: its place in the row, which
    # lists g·s in S_copy order
    used: tuple[list, list] = ([], [])
    for (copy, _), row, j in zip(lefts, rows, pair_left):
        translators = ts.s1 if copy == 1 else ts.s2
        used[copy - 1].append(translators[row.index(right_elements[j])])
    return Certificate(tuple(elements), (tuple(used[0]), tuple(used[1])))


def hall_graph_oracle(spec, ts, batches):
    """The Hall graph built row by row: the reference for
    ``paradec.doubling._HallGraph``, which builds it by translator columns.

    Each batch appends copy 1 of its elements, then copy 2, and each left
    vertex (copy, g) forms g·s for every s of S_copy in order, taking g
    itself for the identity.  Returns ``(lefts, rows)`` with each row as
    its list of right elements.
    """
    identity = spec.identity()
    lefts: list[tuple[int, Element]] = []
    rows: list[list[Element]] = []
    for elements in batches:
        for copy, translators in ((1, ts.s1), (2, ts.s2)):
            for g in elements:
                row = []
                for s in translators:
                    row.append(g if s == identity else spec.multiply(g, s))
                lefts.append((copy, g))
                rows.append(row)
    return lefts, rows


def bucket_by_division_oracle(spec, pairs, translators):
    """Pieces of one certificate family by division: each target g·s goes to
    the piece of s = g⁻¹·target, which must be a translator."""
    pieces = {s: set() for s in translators}
    for g, target in pairs:
        s = spec.multiply(spec.invert(g), target)
        if s not in pieces:
            raise CertificateError(
                f"image {spec.format_element(target)} is not a translate "
                f"of {spec.format_element(g)} by a translator"
            )
        pieces[s].add(target)
    return pieces


def hopcroft_karp_layered_oracle(adjacency, num_right, start=None):
    """Hopcroft-Karp with every phase layered, the first one included: the
    reference for ``paradec.matching.hopcroft_karp``, whose first phase is a
    greedy pass.  From an empty start the two return the same matching."""
    num_left = len(adjacency)
    pair_left = [UNMATCHED] * num_left
    pair_right = [UNMATCHED] * num_right
    if start is not None:
        pair_left[: len(start[0])] = start[0]
        pair_right[: len(start[1])] = start[1]
    unreached = -1
    dist = [unreached] * num_left

    def bfs_layers() -> bool:
        queue: deque[int] = deque()
        for u in range(num_left):
            if pair_left[u] == UNMATCHED:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = unreached
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = pair_right[v]
                if w == UNMATCHED:
                    found_free = True
                elif dist[w] == unreached:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found_free

    def try_augment(root: int) -> bool:
        frames: list[list[int]] = [[root, 0]]
        chosen: list[int] = []
        while frames:
            frame = frames[-1]
            u, cursor = frame
            if cursor < len(adjacency[u]):
                frame[1] += 1
                v = adjacency[u][cursor]
                w = pair_right[v]
                if w == UNMATCHED:
                    chosen.append(v)
                    for (left, _), right in zip(frames, chosen):
                        pair_left[left] = right
                        pair_right[right] = left
                    return True
                if dist[w] == dist[u] + 1:
                    chosen.append(v)
                    frames.append([w, 0])
            else:
                dist[u] = unreached
                frames.pop()
                if chosen:
                    chosen.pop()
        return False

    while bfs_layers():
        for u in range(num_left):
            if pair_left[u] == UNMATCHED:
                try_augment(u)
    return pair_left, pair_right


def hopcroft_karp_scan_oracle(adjacency, num_right, start=None):
    """Hopcroft-Karp as a greedy pass, then the phases of
    :func:`hopcroft_karp_layered_oracle`, which scan every left vertex
    twice, seed the breadth-first search from a deque and step each row's
    DFS through a cursor: the reference for
    ``paradec.matching.hopcroft_karp``, which works on the list of free
    left vertices and walks each row with one iterator.  Both visit the
    same roots, layers and rows in the same order, so they return the
    same pairing arrays."""
    pair_left = [UNMATCHED] * len(adjacency)
    pair_right = [UNMATCHED] * num_right
    if start is not None:
        pair_left[: len(start[0])] = start[0]
        pair_right[: len(start[1])] = start[1]
    for u, row in enumerate(adjacency):
        if pair_left[u] == UNMATCHED:
            for v in row:
                if pair_right[v] == UNMATCHED:
                    pair_left[u] = v
                    pair_right[v] = u
                    break
    return hopcroft_karp_layered_oracle(adjacency, num_right, (pair_left, pair_right))


def alternating_reachable_oracle(adjacency, pair_left, pair_right):
    """Alternating reach from the unmatched left vertices, with a deque
    seeded by a scan of every left vertex: the reference for
    ``paradec.matching.alternating_reachable``."""
    reach_left = [False] * len(adjacency)
    reach_right = [False] * len(pair_right)
    queue: deque[int] = deque()
    for u in range(len(adjacency)):
        if pair_left[u] == UNMATCHED:
            reach_left[u] = True
            queue.append(u)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not reach_right[v]:
                reach_right[v] = True
                w = pair_right[v]
                if w != UNMATCHED and not reach_left[w]:
                    reach_left[w] = True
                    queue.append(w)
    return reach_left, reach_right


def overlaps_oracle(spec, pd):
    """Elements in more than one piece of ``pd``, counted element by element
    over every piece, in element order."""
    counts = {}
    for _, piece in pd.pieces1 + pd.pieces2:
        for x in piece:
            counts[x] = counts.get(x, 0) + 1
    return tuple(
        sorted((x for x, c in counts.items() if c > 1), key=spec.element_sort_key)
    )


FIRST_LETTER_TRANSLATORS = TranslatingSets(s1=((), (1,)), s2=((), (2,)))


def hand_built_decomposition(spec, ts, pieces1, pieces2, domain):
    """A decomposition built by hand from piece mappings: each family's
    pieces in S_i order, a translator without a key getting the empty
    piece, and the distinct domain elements in element order."""
    return PartialDecomposition(
        pieces1=tuple((s, frozenset(pieces1.get(s, ()))) for s in ts.s1),
        pieces2=tuple((s, frozenset(pieces2.get(s, ()))) for s in ts.s2),
        domain=tuple(sorted(set(domain), key=spec.element_sort_key)),
    )


def first_letter_pieces(rank, domain):
    """The classical decomposition of a free group of rank >= 2 for the
    translating sets {1, a}, {1, b} (:data:`FIRST_LETTER_TRANSLATORS`),
    built by hand on ``domain``: the reference that
    ``paradec.verify_decomposition`` must accept.

    In the right-product convention the first-letter classes become
    last-letter classes: with V(x) the reduced words ending in the letter
    x, the pieces are V(a⁻¹) and V(a) for family 1 (and b likewise),
    because any word not ending in a⁻¹ gains a final a when multiplied by
    a.  Letters beyond the first two are ignored, so the construction is
    the same for every rank above 2."""
    if rank < 2:
        raise ValueError("a non-abelian free group needs rank >= 2")
    spec = free_group(rank)
    domain = frozenset(domain)
    for w in domain:
        spec.validate_element(w)
    last = {letter: frozenset(w for w in domain if w and w[-1] == letter)
            for letter in (-2, -1, 1, 2)}
    return hand_built_decomposition(
        spec,
        FIRST_LETTER_TRANSLATORS,
        {(): last[-1], (1,): last[1]},
        {(): last[-2], (2,): last[2]},
        domain,
    )


# -- row-by-row products: the references for the column-wise library code -----


def product_set_rows_oracle(spec, elements, translators):
    """{a·s : a ∈ A, s ∈ S} one product at a time, row by row: the reference
    for ``paradec.cayley.product_set``, the union of one column per s."""
    translators = tuple(translators)
    return frozenset(spec.multiply(a, s) for a in elements for s in translators)


def shrink_violator_rows_oracle(spec, ts, a1, a2):
    """The greedy shrink of ``paradec.doubling._shrink_violator`` with each
    element's products formed as one row, the reference for its column
    build.  Product multiplicities are counted, so a candidate removal
    shrinks the union by the products whose count drops to zero; the
    :class:`Violator` carries the union size so tracked."""
    a1 = sorted(a1, key=spec.element_sort_key)
    a2 = sorted(a2, key=spec.element_sort_key)
    sides = [
        [(g, [spec.multiply(g, s) for s in translators]) for g in which]
        for which, translators in ((a1, ts.s1), (a2, ts.s2))
    ]
    counts = Counter(w for side in sides for _, row in side for w in row)
    union_size = len(counts)
    size = len(a1) + len(a2)
    kept: tuple[list, list] = ([], [])
    for side, keep in zip(sides, kept):
        for g, row in side:
            counts.subtract(row)
            lost = sum(1 for w in row if counts[w] == 0)
            if union_size - lost < size - 1:
                union_size -= lost
                size -= 1
            else:
                counts.update(row)
                keep.append(g)
    return Violator(tuple(kept[0]), tuple(kept[1]), union_size)


def translates_oracle(spec, elements, s):
    """The column ``[x·s for x in elements]``, one ``multiply`` per element
    in element order: the reference for ``GroupSpec.translates``."""
    return [spec.multiply(x, s) for x in elements]


def star_oracle(spec, steps, x):
    """The star ``[x·s for s in steps]``, one ``multiply`` per step in step
    order: the reference for the callable of ``GroupSpec.star``."""
    return [spec.multiply(x, s) for s in steps]


def verify_decomposition_oracle(spec, pd):
    """``paradec.verify_decomposition`` element by element: each domain
    element's translates are formed in translator order up to the first
    that lands in its own translator's piece, and an element that none
    covers is indeterminate when one of its translates leaves the domain,
    else uncovered.  Overlaps come from :func:`overlaps_oracle`."""
    domain = set(pd.domain)
    lists = []
    for pieces in (pd.pieces1, pd.pieces2):
        piece_of = dict(pieces)
        uncovered, indeterminate = [], []
        for g in pd.domain:
            translates = []
            for s, _ in pieces:
                target = spec.multiply(g, s)
                if target in piece_of[s]:
                    break
                translates.append(target)
            else:
                if all(target in domain for target in translates):
                    uncovered.append(g)
                else:
                    indeterminate.append(g)
        lists.append((tuple(uncovered), tuple(indeterminate)))
    overlaps = overlaps_oracle(spec, pd)
    (uncovered1, indeterminate1), (uncovered2, indeterminate2) = lists
    return DecompositionReport(
        disjoint=not overlaps,
        overlaps=overlaps,
        uncovered1=uncovered1,
        uncovered2=uncovered2,
        indeterminate1=indeterminate1,
        indeterminate2=indeterminate2,
    )


# -- forest audit: the element-level reference for the table reads ------------


def audit_counting_argument_oracle(patch, forest, a1, a2, ts):
    """The forest counting chain of ``paradec.forest.audit_counting_argument``
    worked in the group: each A2 star and A1 a-translate formed by
    ``multiply``, Λ's vertices as the product sets A1S1 ∪ A2S2, and every
    element looked up in a fresh vertex index.  Same checks, messages and
    error order, and the same :class:`ForestAudit`."""
    from paradec.cayley import product_set
    from paradec.errors import PatchEscapeError
    from paradec.forest import ForestAudit, InequalityCheck, identify_triple

    spec, gens = patch.spec, patch.gens
    key = spec.element_sort_key
    fmt = spec.format_element
    a_sym = identify_triple(spec, gens, ts)
    a_elem = gens.element(a_sym)
    index = {v: i for i, v in enumerate(patch.vertices)}
    a1 = sorted(set(a1), key=key)
    a2 = sorted(set(a2), key=key)
    for g in a1 + a2:
        if g not in index:
            raise PatchEscapeError(f"element {fmt(g)} is not a patch vertex")
    view = gens.symmetrized(spec)
    stars = []
    for g in a2:
        stars.append([spec.multiply(g, t) for _, _, t in view])
        if any(target not in index for target in stars[-1]):
            raise PatchEscapeError(
                f"{fmt(g)} is not interior: its star leaves the patch; "
                "shrink A2 or grow the patch"
            )
    if not a1 and not a2:
        raise ValueError("A1 and A2 must not both be empty")
    for g in a1:
        if spec.multiply(g, a_elem) not in index:
            raise PatchEscapeError(f"a-translate of {fmt(g)} leaves the patch")

    s_elements = {el for _, el in gens.pairs}
    s_diff_sinv = {el for el in s_elements if spec.invert(el) not in s_elements}
    bc_elements = {s for s in ts.s2 if s != spec.identity()}

    forest_edges = set(forest.edges)

    def in_forest(g, target):
        i, j = index[g], index[target]
        return (min(i, j), max(i, j)) in forest_edges

    e_edges = [
        (g, sym, sign, t, target)
        for g, star in zip(a2, stars)
        for (sym, sign, t), target in zip(view, star)
        if target != g and in_forest(g, target)
    ]
    e1_edges = [edge for edge in e_edges if edge[3] in s_diff_sinv]
    e2_edges = [edge for edge in e_edges if edge[3] in bc_elements and edge[3] in s_diff_sinv]
    e3_edges = []
    for g in a1:
        target = spec.multiply(g, a_elem)
        if not in_forest(g, target):
            raise ValueError(
                f"forest is missing the a-edge at {fmt(g)}; "
                "sample with the a-edge constraint first"
            )
        e3_edges.append((g, a_sym, 1, a_elem, target))

    lambda_vertices = sorted(
        product_set(spec, a1, ts.s1) | product_set(spec, a2, ts.s2), key=key
    )
    directed2 = {(g, target) for g, _, _, _, target in e2_edges}
    directed3 = {(g, target) for g, _, _, _, target in e3_edges}
    lambda_edges = sorted(
        {tuple(sorted(edge, key=key)) for edge in directed2 | directed3},
        key=lambda e: tuple(map(key, e)),
    )
    opposite_pairs = sum(
        1
        for g, target in directed2 | directed3
        if (target, g) in directed2 or (target, g) in directed3
    ) // 2
    # components of Λ by repeated relabelling, no union-find
    label = {v: v for v in lambda_vertices}
    for u, v in lambda_edges:
        old, new = label[v], label[u]
        label = {w: new if lab == old else lab for w, lab in label.items()}
    lambda_components = len(set(label.values()))

    n_e, n_e1, n_e2, n_e3 = len(e_edges), len(e1_edges), len(e2_edges), len(e3_edges)
    n_v, n_le = len(lambda_vertices), len(lambda_edges)
    size_s = len(gens.pairs)
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

    def strip(edges):
        return tuple((g, sym, sign, target) for g, sym, sign, _, target in edges)

    return ForestAudit(
        a1=tuple(a1),
        a2=tuple(a2),
        e=strip(e_edges),
        e1=strip(e1_edges),
        e2=strip(e2_edges),
        e3=strip(e3_edges),
        lambda_vertices=tuple(lambda_vertices),
        lambda_edges=tuple(lambda_edges),
        ledger=tuple(checks),
    )
