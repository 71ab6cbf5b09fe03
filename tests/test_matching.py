import random
from itertools import combinations

from paradec.matching import UNMATCHED, alternating_reachable, hopcroft_karp


def exhaustive_max_matching(adjacency, num_right):
    """Oracle: try every subset of left vertices, largest first, and look
    for a perfect assignment on the subset by backtracking."""

    def assignable(lefts):
        used = set()

        def place(position):
            if position == len(lefts):
                return True
            for v in adjacency[lefts[position]]:
                if v not in used:
                    used.add(v)
                    if place(position + 1):
                        return True
                    used.remove(v)
            return False

        return place(0)

    for size in range(len(adjacency), -1, -1):
        for lefts in combinations(range(len(adjacency)), size):
            if assignable(list(lefts)):
                return size
    return 0


def matching_size(pair_left):
    return sum(1 for p in pair_left if p != UNMATCHED)


def test_small_random_graphs_match_oracle():
    rng = random.Random(99)
    for _ in range(60):
        num_left = rng.randint(1, 6)
        num_right = rng.randint(1, 6)
        adjacency = [
            sorted(
                {rng.randrange(num_right) for _ in range(rng.randint(0, num_right))}
            )
            for _ in range(num_left)
        ]
        pair_left, pair_right = hopcroft_karp(adjacency, num_right)
        assert matching_size(pair_left) == exhaustive_max_matching(
            adjacency, num_right
        )
        # consistency of the two pairing arrays
        for u, v in enumerate(pair_left):
            if v != UNMATCHED:
                assert pair_right[v] == u


def test_matching_edges_exist_in_graph():
    adjacency = [[0, 1], [1], [1, 2]]
    pair_left, _ = hopcroft_karp(adjacency, 3)
    for u, v in enumerate(pair_left):
        if v != UNMATCHED:
            assert v in adjacency[u]


def test_deterministic():
    rng = random.Random(5)
    adjacency = [
        sorted({rng.randrange(8) for _ in range(4)}) for _ in range(8)
    ]
    assert hopcroft_karp(adjacency, 8) == hopcroft_karp(adjacency, 8)


def test_deficiency_witness_is_hall_violator():
    # K_{3,1} blown up: three left vertices all pointing at one right vertex
    adjacency = [[0], [0], [0]]
    pair_left, pair_right = hopcroft_karp(adjacency, 1)
    assert matching_size(pair_left) == 1
    reach_left, reach_right = alternating_reachable(adjacency, pair_left, pair_right)
    z = [u for u in range(3) if reach_left[u]]
    neighbourhood = {v for u in z for v in adjacency[u]}
    assert len(neighbourhood) < len(z)
    assert all(reach_right[v] for v in neighbourhood)


def test_saturated_side_has_no_unmatched_reachable():
    adjacency = [[0], [1]]
    pair_left, pair_right = hopcroft_karp(adjacency, 2)
    assert matching_size(pair_left) == 2
    reach_left, _ = alternating_reachable(adjacency, pair_left, pair_right)
    assert not any(reach_left)


def kuhn_matching_size(adjacency, num_right):
    """Independent augmenting-path implementation for size cross-checks."""
    pair_right = [UNMATCHED] * num_right

    def augment(u, visited):
        for v in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            if pair_right[v] == UNMATCHED or augment(pair_right[v], visited):
                pair_right[v] = u
                return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if augment(u, [False] * num_right):
            size += 1
    return size


def test_medium_random_graphs_match_kuhn():
    rng = random.Random(424242)
    for _ in range(20):
        num_left = rng.randint(20, 120)
        num_right = rng.randint(20, 120)
        adjacency = [
            sorted({rng.randrange(num_right) for _ in range(rng.randint(0, 5))})
            for _ in range(num_left)
        ]
        pair_left, _ = hopcroft_karp(adjacency, num_right)
        assert matching_size(pair_left) == kuhn_matching_size(adjacency, num_right)


def test_long_alternating_chain():
    # path-shaped graph whose only maximum matching needs repeated
    # augmentation along long alternating paths; exercises the iterative DFS
    n = 400
    adjacency = []
    for u in range(n):
        row = [u]
        if u + 1 < n:
            row.append(u + 1)
        adjacency.append(row)
    # force long augmentations: connect left u to rights {u, u+1} but run
    # vertices in reverse preference by reversing adjacency rows
    adjacency = [list(reversed(row)) for row in adjacency]
    pair_left, _ = hopcroft_karp(adjacency, n)
    assert matching_size(pair_left) == n


def test_empty_adjacency_rows():
    adjacency = [[], [0], []]
    pair_left, pair_right = hopcroft_karp(adjacency, 1)
    assert matching_size(pair_left) == 1
    reach_left, _ = alternating_reachable(adjacency, pair_left, pair_right)
    assert reach_left[0] and reach_left[2]


def test_warm_start_from_a_prefix_matching():
    """Growing a graph in batches and passing each matching on as the start
    of the next call gives a valid maximum matching whose alternating
    reach from unmatched left vertices is that of a matching computed from
    scratch (the Dulmage-Mendelsohn invariant the warm violator relies on)."""
    rng = random.Random("warm-start")
    for _ in range(40):
        adjacency: list[list[int]] = []
        num_right = 0
        start = None
        for _ in range(rng.randint(1, 5)):
            num_right += rng.randint(0, 12)
            for _ in range(rng.randint(0, 12)):
                width = rng.randint(0, min(3, num_right))
                adjacency.append(sorted(rng.sample(range(num_right), width)))
            pair_left, pair_right = hopcroft_karp(adjacency, num_right, start)
            for u, v in enumerate(pair_left):
                if v != UNMATCHED:
                    assert v in adjacency[u] and pair_right[v] == u
            cold_left, cold_right = hopcroft_karp(adjacency, num_right)
            assert matching_size(pair_left) == kuhn_matching_size(adjacency, num_right)
            assert matching_size(pair_left) == matching_size(cold_left)
            assert (
                alternating_reachable(adjacency, pair_left, pair_right)[0]
                == alternating_reachable(adjacency, cold_left, cold_right)[0]
            )
            start = (pair_left, pair_right)


def test_warm_start_does_not_modify_its_input():
    start = ([0], [0])
    pair_left, pair_right = hopcroft_karp([[0], [0, 1]], 2, start)
    assert start == ([0], [0])
    assert pair_left == [0, 1] and pair_right == [0, 1]
