import random
from itertools import combinations

import pytest

from paradec import (
    TranslatingSets,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    matrix_group,
    spec_to_string,
)
from paradec.cayley import ball_levels
from paradec.doubling import _HallGraph
from paradec.matching import UNMATCHED, alternating_reachable, hopcroft_karp

from helpers import all_model_specs, amenable_bench_graphs, standard_gens
from oracles import (
    alternating_reachable_oracle,
    hopcroft_karp_layered_oracle,
    hopcroft_karp_scan_oracle,
)


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


def _translators(spec):
    """{1, x} and {1, y, z} over the first standard generators."""
    e = spec.identity()
    gens = [el for _, el in spec.standard_generators()]
    return TranslatingSets(s1=(e, gens[0]), s2=(e,) + tuple(gens[1:3] or [gens[0]]))


def test_cold_start_equals_the_layered_oracle_on_random_graphs():
    """From an empty matching the greedy first phase is the layered first
    phase, so both pairing arrays agree entry by entry."""
    rng = random.Random("greedy-first-phase")
    for _ in range(200):
        num_left = rng.randint(0, 40)
        num_right = rng.randint(1, 40)
        adjacency = [
            rng.sample(range(num_right), rng.randint(0, min(4, num_right)))
            for _ in range(num_left)
        ]
        assert hopcroft_karp(adjacency, num_right) == hopcroft_karp_layered_oracle(
            adjacency, num_right
        )


_HALL_CASES = [
    (free_group(2), 4),
    (free_group(3), 4),
    (free_abelian_group(2), 6),
    (cyclic_group(7), 3),
    (matrix_group(), 3),
]


@pytest.mark.parametrize(
    "spec,radius", _HALL_CASES, ids=[spec_to_string(s) for s, _ in _HALL_CASES]
)
def test_cold_start_equals_the_layered_oracle_on_hall_graphs(spec, radius):
    ts = _translators(spec)
    for r in range(radius + 1):
        graph = _HallGraph(spec, ts)
        graph.extend(enumerate_ball(spec, standard_gens(spec), r).vertices)
        num_right = len(graph.right_index)
        assert hopcroft_karp(graph.adjacency, num_right) == (
            hopcroft_karp_layered_oracle(graph.adjacency, num_right)
        )


@pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
def test_warm_start_agrees_with_the_layered_oracle_level_by_level(spec):
    """Grown a ball level at a time, each side warm-started from its own
    previous matching: the greedy pre-pass may pick another maximum
    matching, but its size and the alternating reach of its unmatched left
    vertices are the oracle's."""
    ts = _translators(spec)
    graph = _HallGraph(spec, ts)
    ours = layered = None
    for sphere in ball_levels(spec, standard_gens(spec), 3):
        graph.extend(sphere)
        num_right = len(graph.right_index)
        ours = hopcroft_karp(graph.adjacency, num_right, ours)
        layered = hopcroft_karp_layered_oracle(graph.adjacency, num_right, layered)
        assert matching_size(ours[0]) == matching_size(layered[0])
        assert (
            alternating_reachable(graph.adjacency, *ours)[0]
            == alternating_reachable(graph.adjacency, *layered)[0]
        )


# -- the free-list phases against the scan they replaced -----------------------


def assert_equals_the_scan_oracle(adjacency, num_right, start=None):
    """Both pairing arrays and both reach arrays equal the scan oracle's,
    entry by entry, and ``start`` is left as it was.  Returns the
    matching."""
    before = None if start is None else (list(start[0]), list(start[1]))
    ours = hopcroft_karp(adjacency, num_right, start)
    if start is not None:
        assert (list(start[0]), list(start[1])) == before
    assert ours == hopcroft_karp_scan_oracle(adjacency, num_right, before)
    assert alternating_reachable(adjacency, *ours) == alternating_reachable_oracle(
        adjacency, *ours
    )
    return ours


def random_rows(rng, num_left, num_right):
    return [
        rng.sample(range(num_right), rng.randint(0, min(4, num_right)))
        for _ in range(num_left)
    ]


def test_cold_start_equals_the_scan_oracle_on_random_graphs():
    rng = random.Random("free-list-cold")
    for _ in range(200):
        num_right = rng.randint(1, 40)
        assert_equals_the_scan_oracle(
            random_rows(rng, rng.randint(0, 40), num_right), num_right
        )


def test_warm_start_equals_the_scan_oracle_on_random_prefixes():
    """A prefix's maximum matching, sometimes with some of its pairs
    dropped so that earlier left vertices start unmatched, then the whole
    graph warm-started from it."""
    rng = random.Random("free-list-warm")
    for _ in range(200):
        num_right = rng.randint(1, 40)
        adjacency = random_rows(rng, rng.randint(0, 40), num_right)
        prefix_left = rng.randint(0, len(adjacency))
        prefix_right = max([v + 1 for row in adjacency[:prefix_left] for v in row] or [0])
        pair_left, pair_right = hopcroft_karp_scan_oracle(
            adjacency[:prefix_left], prefix_right
        )
        if rng.random() < 0.5:
            for u, v in enumerate(pair_left):
                if v != UNMATCHED and rng.random() < 0.3:
                    pair_left[u] = pair_right[v] = UNMATCHED
        assert_equals_the_scan_oracle(adjacency, num_right, (pair_left, pair_right))


@pytest.mark.parametrize(
    "spec,radius", _HALL_CASES, ids=[spec_to_string(s) for s, _ in _HALL_CASES]
)
def test_level_by_level_equals_the_scan_oracle_on_hall_graphs(spec, radius):
    ts = _translators(spec)
    graph = _HallGraph(spec, ts)
    matching = None
    for sphere in ball_levels(spec, standard_gens(spec), radius):
        graph.extend(sphere)
        matching = assert_equals_the_scan_oracle(
            graph.adjacency, len(graph.right_index), matching
        )


def test_the_amenable_bench_graphs_equal_the_scan_oracle():
    """The radius-16 graph from a cold start, and the powers graph warm
    started level by level up to its violator at radius 12, as
    ``violate`` solves it."""
    for _, _, graph, batches in amenable_bench_graphs():
        matching = None
        for num_left, num_right in batches:
            matching = assert_equals_the_scan_oracle(
                graph.adjacency[:num_left], num_right, matching
            )
        assert UNMATCHED in matching[0]
