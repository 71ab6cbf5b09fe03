"""Bipartite maximum matching (Hopcroft-Karp) and deficiency extraction.

Vertices are integer indices: left vertices 0..len(adjacency)-1, right
vertices 0..num_right-1.  Traversal follows adjacency-list order and queue
order only, so identical inputs always produce the identical matching.
"""

from __future__ import annotations

from typing import Sequence

UNMATCHED = -1
_UNREACHED = -1


def hopcroft_karp(
    adjacency: Sequence[Sequence[int]],
    num_right: int,
    start: "tuple[Sequence[int], Sequence[int]] | None" = None,
) -> tuple[list[int], list[int]]:
    """Maximum matching in O(sqrt(V)) phases of O(E) work each.

    Returns ``(pair_left, pair_right)`` with UNMATCHED (-1) for unsaturated
    vertices.  ``start`` is an optional valid matching ``(pair_left,
    pair_right)`` on a prefix of the left and right vertices, for instance
    the result of an earlier call before vertices were appended; the search
    then augments from the vertices it leaves unmatched.  ``start`` itself
    is not modified.

    The first phase is a greedy pass: each unmatched left vertex, in index
    order, takes its first free right vertex in adjacency order.  From an
    empty matching this is exactly the first layered phase, since every
    left vertex then sits in layer 0 and the DFS never descends, so it
    skips that phase's breadth-first search and returns the same matching.
    From a warm start it is a valid pre-pass that may end in a different
    maximum matching; the alternating reach of the unmatched left vertices
    (Dulmage-Mendelsohn) is the same for all of them.

    Each later phase works on the list of left vertices still free, in
    index order: an augmenting path only passes through matched left
    vertices, so a free vertex stays free until its own turn.  The
    breadth-first search runs over a plain list, forming each vertex's
    next layer once, and visits every layer to the end.  The augmenting
    DFS is iterative, so deep layered paths cannot hit the recursion
    limit, and walks each row with one iterator.  Roots, layers and rows
    are visited in the order of the scan over every left vertex that
    ``tests/oracles.py:hopcroft_karp_scan_oracle`` keeps, so both return
    the same pairing arrays.
    """
    num_left = len(adjacency)
    pair_left = [UNMATCHED] * num_left
    pair_right = [UNMATCHED] * num_right
    if start is not None:
        pair_left[: len(start[0])] = start[0]
        pair_right[: len(start[1])] = start[1]
    free = []
    for u, row in enumerate(adjacency):
        if pair_left[u] == UNMATCHED:
            for v in row:
                if pair_right[v] == UNMATCHED:
                    pair_left[u] = v
                    pair_right[v] = u
                    break
            else:
                free.append(u)
    while free:
        dist = [_UNREACHED] * num_left
        for u in free:
            dist[u] = 0
        queue = free[:]
        found_free = False
        for u in queue:  # grows while it is read: a FIFO queue
            layer = dist[u] + 1
            for v in adjacency[u]:
                w = pair_right[v]
                if w == UNMATCHED:
                    found_free = True
                elif dist[w] == _UNREACHED:
                    dist[w] = layer
                    queue.append(w)
        if not found_free:
            break
        for root in free:
            # path holds the left vertices of the path from root, rows the
            # iterators over their rows, chosen the right vertex taken from
            # each row but the last; path[i] sits in layer i
            path = [root]
            rows = [iter(adjacency[root])]
            chosen: list[int] = []
            while path:
                for v in rows[-1]:
                    w = pair_right[v]
                    if w == UNMATCHED:
                        chosen.append(v)
                        for left, right in zip(path, chosen):
                            pair_left[left] = right
                            pair_right[right] = left
                        path.clear()
                        break
                    if dist[w] == len(path):
                        chosen.append(v)
                        path.append(w)
                        rows.append(iter(adjacency[w]))
                        break
                else:
                    dist[path.pop()] = _UNREACHED  # dead end for this phase
                    rows.pop()
                    if chosen:
                        chosen.pop()
        free = [u for u in free if pair_left[u] == UNMATCHED]
    return pair_left, pair_right


def alternating_reachable(
    adjacency: Sequence[Sequence[int]],
    pair_left: Sequence[int],
    pair_right: Sequence[int],
) -> tuple[list[bool], list[bool]]:
    """Vertices reachable from unmatched left vertices by alternating paths
    (unmatched edge left->right, matched edge right->left).

    With a maximum matching, the reachable left set Z violates Hall's
    condition whenever some left vertex is unmatched: N(Z) is the reachable
    right set and |N(Z)| < |Z|.
    """
    reach_left = [False] * len(adjacency)
    reach_right = [False] * len(pair_right)
    queue = [u for u in range(len(adjacency)) if pair_left[u] == UNMATCHED]
    for u in queue:
        reach_left[u] = True
    for u in queue:  # grows while it is read: a FIFO queue
        for v in adjacency[u]:
            if not reach_right[v]:
                reach_right[v] = True
                w = pair_right[v]
                if w != UNMATCHED and not reach_left[w]:
                    reach_left[w] = True
                    queue.append(w)
    return reach_left, reach_right
