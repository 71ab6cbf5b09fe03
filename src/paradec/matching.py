"""Bipartite maximum matching (Hopcroft-Karp) and deficiency extraction.

Vertices are integer indices: left vertices 0..len(adjacency)-1, right
vertices 0..num_right-1.  Traversal follows adjacency-list order and queue
order only, so identical inputs always produce the identical matching.
"""

from __future__ import annotations

from collections import deque
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
    then augments from the vertices it leaves unmatched.  The augmenting
    DFS is iterative so deep layered paths cannot hit the recursion limit.

    The first phase is a greedy pass: each unmatched left vertex, in index
    order, takes its first free right vertex in adjacency order.  From an
    empty matching this is exactly the first layered phase, since every
    left vertex then sits in layer 0 and the DFS never descends, so it
    skips that phase's breadth-first search and returns the same matching.
    From a warm start it is a valid pre-pass that may end in a different
    maximum matching; the alternating reach of the unmatched left vertices
    (Dulmage-Mendelsohn) is the same for all of them.
    """
    num_left = len(adjacency)
    pair_left = [UNMATCHED] * num_left
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
    dist = [_UNREACHED] * num_left

    def bfs_layers() -> bool:
        queue: deque[int] = deque()
        for u in range(num_left):
            if pair_left[u] == UNMATCHED:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _UNREACHED
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = pair_right[v]
                if w == UNMATCHED:
                    found_free = True
                elif dist[w] == _UNREACHED:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found_free

    def try_augment(root: int) -> bool:
        # frames[i] = [left vertex, cursor into its adjacency list];
        # chosen[i] = right vertex picked at frame i (len == len(frames)-1).
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
                dist[u] = _UNREACHED  # dead end for this phase
                frames.pop()
                if chosen:
                    chosen.pop()
        return False

    while bfs_layers():
        for u in range(num_left):
            if pair_left[u] == UNMATCHED:
                try_augment(u)
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
    num_right = len(pair_right)
    reach_left = [False] * len(adjacency)
    reach_right = [False] * num_right
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
