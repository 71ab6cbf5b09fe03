"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expected values tagged as derived were computed with the
independent oracles in oracles.py and frozen here.
"""

import json
import math
import random
import time
from collections import Counter

import pytest

from paradec import (
    Certificate,
    TranslatingSets,
    Violator,
    a_edge_contraction,
    audit_counting_argument,
    check_domain,
    cyclic_group,
    enumerate_ball,
    free_abelian_group,
    free_group,
    free_up_to_length,
    matrix_group,
    minimal_violating_radius,
    pieces_from_certificate,
    sample_forest_containing_a_edges,
    sample_spanning_tree_with_required_edges,
    tarski_bound_report,
    verify_certificate,
    verify_decomposition,
    verify_violator,
)
from paradec.cli import main as cli_main

from helpers import (
    certificate_pairs,
    degree_sum,
    ledger_entry,
    random_element,
    standard_gens,
)
from oracles import (
    ball_oracle,
    brute_force_check,
    kirchhoff_count,
    union_product_count,
)


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def ball(spec, radius):
    return enumerate_ball(spec, standard_gens(spec), radius)


def test_criterion_1_lemma_equivalence_small_scale():
    started = time.perf_counter()
    models = [free_group(2), free_abelian_group(1), free_abelian_group(2), cyclic_group(6)]
    rng = random.Random(20240)
    agreements = 0
    for i in range(50):
        spec = models[i % len(models)]
        s1 = tuple({random_element(spec, rng, 2) for _ in range(rng.randint(1, 2))})
        s2 = tuple({random_element(spec, rng, 2) for _ in range(rng.randint(1, 3))})
        ts = TranslatingSets(s1=s1, s2=s2)
        pool = list({random_element(spec, rng, 3) for _ in range(12)})[:10]
        domain = pool if pool else [spec.identity()]
        fast = check_domain(spec, ts, domain)
        slow = brute_force_check(spec, ts, domain)
        assert isinstance(fast, Violator) == isinstance(slow, Violator)
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 50
    assert elapsed < 10.0
    report(1, f"check_domain and brute_force_check agree 50/50 in {elapsed:.2f}s")


def test_criterion_2_free2_certificates_all_radii():
    started = time.perf_counter()
    spec = free_group(2)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b")
    entries = []
    for radius in range(1, 7):
        domain = ball(spec, radius).vertices
        verdict = check_domain(spec, ts, domain)
        assert isinstance(verdict, Certificate), f"violator at radius {radius}"
        assert verify_certificate(spec, ts, *certificate_pairs(spec, verdict)) == verdict
        pd, _ = pieces_from_certificate(spec, verdict, ts)
        assert set(pd.domain) == set(domain)
        assert verify_decomposition(spec, pd).passed
        entries.append((ts, verdict))
    freeness = free_up_to_length(spec, (1,), (2,), 6)
    bounds = tarski_bound_report(entries, freeness)
    assert bounds.upper == 4
    assert bounds.lower == 4
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        2,
        "free(2) {1,a},{1,b}: certificates and verified pieces at radii 1..6, "
        f"m+n = 4 reported, {elapsed:.2f}s",
    )


def test_criterion_3_free3_prop2_translating_sets():
    started = time.perf_counter()
    spec = free_group(3)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    for radius in range(1, 6):
        patch = ball(spec, radius)
        verdict = check_domain(spec, ts, patch.vertices)
        assert isinstance(verdict, Certificate), f"violator at radius {radius}"
        pd, _ = pieces_from_certificate(spec, verdict, ts)
        assert set(pd.domain) == set(patch.vertices)
        assert verify_decomposition(spec, pd).passed
        assert ts.total_size() == 5
        assert pd.nonempty_piece_count() <= 5
    # independent count of the radius-5 ball
    gens = [el for _, el in spec.standard_generators()]
    oracle_count = len(ball_oracle(spec, gens, 5))
    assert oracle_count == 1 + 6 * (5**5 - 1) // 4 == 4687
    assert len(ball(spec, 5).vertices) == 4687
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        3,
        "free(3) {1,a},{1,b,c}: 5-translator decomposition verified at radii "
        f"1..5, radius-5 ball has 4687 vertices, {elapsed:.2f}s",
    )


def test_criterion_4_amenable_violators():
    line = free_abelian_group(1)
    ts_line = TranslatingSets.from_words(line, "1,a", "1,a")
    verdict = brute_force_check(line, ts_line, [(0,), (1,), (2,)])
    assert verdict == Violator(a1=((0,), (1,)), a2=((0,), (1,)), union_size=3)
    assert union_product_count(line, verdict.a1, ts_line.s1, verdict.a2, ts_line.s2) == 3
    ball2 = ball(line, 2).vertices
    matched = check_domain(line, ts_line, ball2)
    assert isinstance(matched, Violator)
    verify_violator(line, ts_line, matched)

    plane = free_abelian_group(2)
    ts_plane = TranslatingSets.from_words(plane, "1,a", "1,b,a b")
    found = minimal_violating_radius(plane, standard_gens(plane), ts_plane, 6)
    assert found is not None and found[0] <= 6
    verify_violator(plane, ts_plane, found[1])
    box = [(x, y) for x in range(3) for y in range(3)]
    box_union = union_product_count(plane, box, ts_plane.s1, box, ts_plane.s2)
    assert box_union == 16
    assert box_union < len(box) + len(box) == 18
    report(
        4,
        "free-abelian violators: line gives {0,1},{0,1} with union 3 < 4; "
        f"plane violator at radius {found[0]} and 3x3 box recount 16 < 18",
    )


def test_criterion_5_forest_audit_on_free3_ball4():
    spec = free_group(3)
    patch = ball(spec, 4)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    interior = [w for w in patch.vertices if len(w) <= 3]
    assert len(interior) == 187
    rng = random.Random(9001)
    contraction = a_edge_contraction(patch, "a")
    passes = 0
    for index in range(100):
        forest = sample_forest_containing_a_edges(contraction, index)
        while True:
            k1, k2 = rng.randint(0, 6), rng.randint(0, 6)
            if k1 + k2 > 0:
                break
        a1 = rng.sample(interior, k1)
        a2 = rng.sample(interior, k2)
        audit = audit_counting_argument(patch, forest, a1, a2, ts)
        for name in (
            "degree_sum",
            "e1_lower",
            "e1_at_least_twice_a2",
            "e2_lower",
            "e2_at_least_a2",
            "e2_e3_disjoint",
            "no_opposite_pairs",
            "lambda_forest",
            "vertices_exceed_edges",
            "doubling_conclusion",
        ):
            assert ledger_entry(audit, name).passed, f"{name} failed on audit {index}"
        assert len(audit.lambda_vertices) >= len(a1) + len(a2)
        passes += 1
    assert passes == 100
    e = spec.identity()
    single = audit_counting_argument(
        patch, sample_forest_containing_a_edges(contraction, 0), [e], [e], ts
    )
    assert (
        len(single.e),
        len(single.e1),
        len(single.e2),
        len(single.e3),
    ) == (6, 3, 2, 1)
    assert len(single.lambda_vertices) == 4 > 3 == len(single.lambda_edges)
    report(
        5,
        "100/100 random interior audits pass the full inequality chain; "
        "single-point ledger is (6, 3, 2, 1, 4 > 3)",
    )


def test_criterion_6_degree_threshold():
    spec = free_group(3)
    patch = ball(spec, 4)
    ts = TranslatingSets.from_words(spec, "1,a", "1,b,c")
    interior = [w for w in patch.vertices if len(w) <= 3]
    rng = random.Random(606)
    contraction = a_edge_contraction(patch, "a")
    for _ in range(100):
        a2 = rng.sample(interior, rng.randint(1, 8))
        for seed in range(1, 4):
            forest = sample_forest_containing_a_edges(contraction, seed)
            audit = audit_counting_argument(patch, forest, [], a2, ts)
            entry = ledger_entry(audit, "degree_sum")
            assert entry.lhs == 6 * len(a2) and entry.rhs == 5 * len(a2)
            assert entry.passed
    plane = free_abelian_group(2)
    grid = ball(plane, 3)
    grid_interior = [v for v in grid.vertices if abs(v[0]) + abs(v[1]) <= 2]
    grid_contraction = a_edge_contraction(grid, "a")
    for case in range(100):
        a2 = rng.sample(grid_interior, rng.randint(1, 6))
        for seed in range(case, case + 3):
            forest = sample_forest_containing_a_edges(grid_contraction, seed)
            assert degree_sum(forest, grid, a2) <= 4 * len(a2) < 5 * len(a2)
    report(
        6,
        "free(3) audit ledger records |E| = 6|A2| >= 5|A2| in 100/100 cases; "
        "grid degree sum stays <= 4|A2| < 5|A2| in 100/100",
    )


def test_criterion_7_sampler_uniformity():
    started = time.perf_counter()
    triangle_edges = [(0, 1), (1, 2), (0, 2)]
    square_edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert kirchhoff_count(3, triangle_edges) == 3
    assert kirchhoff_count(4, square_edges) == 4
    for num_vertices, edges, count in (
        (3, triangle_edges, 3),
        (4, square_edges, 4),
    ):
        frequencies = Counter()
        for seed in range(10_000):
            sample = sample_spanning_tree_with_required_edges(
                num_vertices, edges, (), seed
            )
            frequencies[sample.edges] += 1
        assert len(frequencies) == count
        expected = 10_000 / count
        sigma = math.sqrt(10_000 * (1 / count) * (1 - 1 / count))
        for freq in frequencies.values():
            assert abs(freq - expected) < 4 * sigma
    included = 0
    for seed in range(10_000):
        sample = sample_spanning_tree_with_required_edges(
            4, square_edges, [(0, 1)], seed
        )
        if (0, 1) in sample.edges:
            included += 1
    assert included == 10_000
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        7,
        "triangle and 4-cycle frequencies within 4 sigma of uniform over "
        f"10000 samples each; conditional sampler kept the pinned edge in "
        f"10000/10000 samples; {elapsed:.2f}s",
    )


def test_criterion_8_freeness_evidence():
    started = time.perf_counter()
    matrices = matrix_group()
    result = free_up_to_length(matrices, (1, 2, 0, 1), (1, 0, 2, 1), 8)
    elapsed = time.perf_counter() - started
    assert result.free
    assert elapsed < 10.0
    plane = free_abelian_group(2)
    commuting = free_up_to_length(plane, (1, 0), (0, 1), 4)
    assert not commuting.free
    assert len(commuting.witness) == 4
    assert commuting.witness_text() == "g h g^-1 h^-1"
    report(
        8,
        f"matrix pair free up to length 8 in {elapsed:.2f}s; commuting pair "
        "fails with the length-4 witness g h g^-1 h^-1",
    )


def test_criterion_9_deterministic_json_reports(capsys):
    pipelines = [
        (
            "decompose",
            "--group", "free:2", "--s1", "1,a", "--s2", "1,b",
            "--radius", "6", "--format", "json",
        ),
        (
            "decompose",
            "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c",
            "--radius", "5", "--format", "json",
        ),
        (
            "forest-audit",
            "--group", "free:3", "--radius", "4", "--samples", "5",
            "--seed", "3", "--format", "json",
        ),
    ]
    for argv in pipelines:
        code_first = cli_main(list(argv))
        first = capsys.readouterr().out
        code_second = cli_main(list(argv))
        second = capsys.readouterr().out
        assert code_first == code_second == 0
        assert first == second
        json.loads(first)  # well-formed
    report(9, "repeated runs of the three pipelines emit byte-identical JSON")
