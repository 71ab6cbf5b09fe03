"""Independent oracles used to derive expected values.

Deliberately naive and separate from the library's code paths: the ball
oracle is a plain frontier expansion without sorting or indexing, and the
spanning-tree count is Kirchhoff's matrix-tree determinant evaluated with
exact integer (Bareiss) elimination.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Counts of elements at each exact word length 0..radius."""
    sizes = [1]
    previous = ball_oracle(spec, generators, 0)
    for r in range(1, radius + 1):
        current = ball_oracle(spec, generators, r)
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


def minimal_violating_radius_oracle(spec, gens, ts, max_radius, vertex_budget=None):
    """Per-radius violator search: a fresh ball and a fresh matching
    (``check_domain``) at every radius 0..max_radius in turn."""
    from paradec.cayley import enumerate_ball
    from paradec.doubling import Violator, check_domain

    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    for radius in range(max_radius + 1):
        patch = enumerate_ball(spec, gens, radius, vertex_budget)
        verdict = check_domain(spec, ts, patch.vertices)
        if isinstance(verdict, Violator):
            return radius, verdict
    return None


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


def sample_with_required_edges_oracle(num_vertices, edges, required, seed):
    """Conditioned spanning tree with the contraction rebuilt on every call:
    union-find over the required edges, the block map, the contracted edge
    list and its connectivity check, then one Wilson walk on it, even when
    the contraction is already a tree."""
    import random

    from paradec.errors import DisconnectedGraphError, RequiredEdgesCycleError
    from paradec.forest import _make_sample, _wilson

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    required = [(min(u, v), max(u, v)) for u, v in required]
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
    chosen = _wilson(len(roots), contracted, random.Random(seed))
    return _make_sample(num_vertices, [originals[i] for i in chosen] + required, seed)
