"""Mutants of ``src/paradec`` that the tests must kill, kept so that they
can be rerun: ``python tests/run_mutants.py`` applies each one to a copy
of the sources and runs its named tests there.

Each mutant replaces ``old``, a text that occurs exactly once in ``file``,
by ``new``; at least one of ``tests`` must then fail.  An equivalent mutant
changes no behaviour; it names no tests and says why in ``equivalent``.
``tests/test_mutants.py`` checks that every old text still occurs once,
so a refactor that moves the code must move its mutants too.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest node ids
    equivalent: str = ""


CAYLEY = "src/paradec/cayley.py"
DOUBLING = "src/paradec/doubling.py"
TREE = "tests/test_tree_numbering.py::"
NUMBERED = "tests/test_numbered_ball.py::"

MUTANTS = [
    # -- the tree numbering of the Hall graph ----------------------------------
    Mutant(
        "tree-child-offset",
        CAYLEY,
        "starts = range(after, after + len(sphere) * k, k)",
        "starts = range(after + 1, after + 1 + len(sphere) * k, k)",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_tree_graph_matches_like_the_interning_graph",
            TREE + "test_known_verdicts_on_the_tree[free:3[1,a|1,b,c]]",
        ),
    ),
    Mutant(
        "tree-child-slot-skips-x",
        CAYLEY,
        "slot = {x: rank[t] - (rank[t] > rank[-x]) for x in self.letters}",
        "slot = {x: rank[t] - (rank[t] > rank[x]) for x in self.letters}",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_known_verdicts_on_the_tree[free:1[1,a|1,a^-1]]",
        ),
    ),
    Mutant(
        "tree-parent-place-skips-y",
        CAYLEY,
        "j = q * k + place[y]",
        "j = q * k + place[-y]",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_each_input_takes_its_path[free:3[a=a,b=a^-1|1,a|a^-1]]",
        ),
    ),
    Mutant(
        "tree-level-1-parent-dropped",
        CAYLEY,
        "values[self.rank[-t]] = 0",
        "pass",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_right_side_of_a_high_rank_ball_stays_within_its_translators[300]",
        ),
    ),
    Mutant(
        "tree-level-1-parent-in-the-general-loop",
        CAYLEY,
        "above = list(map(itemgetter(-2), sphere[::k])) if level > 1 else []",
        "above = list(map(itemgetter(-2), sphere[::k])) if level >= 1 else []",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_tree_graph_forms_no_product",
        ),
    ),
    Mutant(
        "tree-dense-slot-off-by-one",
        DOUBLING,
        "return range(after + i, after + len(sphere) * width, width)",
        "return range(after + i + 1, after + len(sphere) * width + 1, width)",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_warm_start_on_a_high_rank_ball_equals_the_oracle",
        ),
    ),
    Mutant(
        "tree-dense-slot-0-for-every-letter",
        DOUBLING,
        "i = self.outside.index(t)",
        "i = 0",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_known_verdicts_on_the_tree[free:3[1,a|1,b,c]]",
        ),
    ),
    Mutant(
        "tree-warm-start-without-pair-right",
        DOUBLING,
        "pair_right[v] = u",
        "pass",
        (
            TREE + "test_tree_graph_matches_like_the_interning_graph",
            TREE + "test_minimal_violating_radius_on_the_tree_equals_the_oracle",
            TREE + "test_warm_start_on_a_high_rank_ball_equals_the_oracle",
        ),
    ),
    Mutant(
        "tree-warm-start-without-pair-left",
        DOUBLING,
        "v = pair_left[u] = moved[v - n]",
        "v = moved[v - n]",
        (
            TREE + "test_tree_graph_matches_like_the_interning_graph",
        ),
    ),
    Mutant(
        "tree-last-level-rows-not-moved",
        DOUBLING,
        "self.adjacency[first : first + size] = zip(",
        "_ = zip(",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_minimal_violating_radius_on_the_tree_equals_the_oracle",
        ),
    ),
    Mutant(
        "tree-num-right-by-all-letters",
        DOUBLING,
        "self.num_right = offsets[-1] + size * width",
        "self.num_right = offsets[-1] + size * len(self.tree.letters)",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_right_side_of_a_high_rank_ball_stays_within_its_translators[300]",
        ),
    ),
    Mutant(
        "tree-ball-without-length-check",
        CAYLEY,
        "if set(map(len, sphere)) != {level}:",
        "if False:",
        (
            NUMBERED + "test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path[longer-word]",
        ),
    ),
    Mutant(
        "tree-ball-without-order-check",
        CAYLEY,
        "if not all(map(lt, sphere, islice(sphere, 1, None))):",
        "if False:",
        (
            TREE + "test_a_patch_out_of_shortlex_order_takes_the_interning_path[middle-words-swapped]",
        ),
    ),
    Mutant(
        "tree-ball-without-last-letter-check",
        CAYLEY,
        "if lasts != letters:",
        "if False:",
        (
            NUMBERED + "test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path[foreign-letter]",
            NUMBERED + "test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path[unreduced-word]",
        ),
    ),
    Mutant(
        "tree-ball-without-first-prefix-check",
        CAYLEY,
        "all(map(eq, map(prefix, sphere[::k]), before))",
        "True",
        (
            NUMBERED + "test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path[zero-letter-prefix]",
        ),
    ),
    Mutant(
        "tree-ball-without-last-prefix-check",
        CAYLEY,
        "and all(map(eq, map(prefix, sphere[k - 1 :: k]), before))",
        "and True",
        (
            NUMBERED + "test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path[unreduced-prefix]",
        ),
    ),
    Mutant(
        "tree-empty-batch-unguarded",
        DOUBLING,
        "        if not elements:\n            return {s: [] for s in translators}\n",
        "",
        (
            TREE + "test_an_empty_batch_keeps_the_tree_graph",
        ),
    ),
    Mutant(
        "tree-child-slot-skip-at-ge",
        CAYLEY,
        "(rank[t] > rank[-x])",
        "(rank[t] >= rank[-x])",
        equivalent=(
            "it differs only at x = t^-1, where g·t is g's parent: the parent "
            "loop overwrites that child value and reads slot(t^-1) only at "
            "y != t, and the texts read slot(y) at y alone"
        ),
    ),
    # -- the neighbour table and the texts of a ball of the free tree ---------
    Mutant(
        "numbered-parent-place-off-by-one",
        CAYLEY,
        "return [p for p in range(offsets[-2], offsets[-1]) for _ in range(k)]",
        "return [p + 1 for p in range(offsets[-2], offsets[-1]) for _ in range(k)]",
        (
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
        ),
    ),
    Mutant(
        "numbered-last-level-child-not-none",
        CAYLEY,
        "blank = (None,) * len(view)",
        "blank = (-1,) * len(view)",
        (
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            "tests/test_cayley.py::TestEnumerateBall::test_interior_matches_multiply_definition[free3-r3]",
        ),
    ),
    Mutant(
        "numbered-view-order-swapped",
        CAYLEY,
        "view = [s[0] for _, _, s in self.gens.symmetrized(self.spec)]",
        "view = sorted(s[0] for _, _, s in self.gens.symmetrized(self.spec))",
        (
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            "tests/test_golden.py::test_stdout_matches_its_digest[forest_audit_free3_r5_json]",
        ),
    ),
    Mutant(
        "stepped-text-exponent-sign",
        CAYLEY,
        "exponent = (1 if run == name else int(run[len(name) + 1 :])) + (\n                    1 if y > 0 else -1\n                )",
        "exponent = (1 if run == name else int(run[len(name) + 1 :])) + 1",
        (
            NUMBERED + "test_stepped_texts_equal_format_element",
            "tests/test_golden.py::test_stdout_matches_its_digest[check_free3_r6_json]",
        ),
    ),
    Mutant(
        "stepped-text-head-dropped",
        CAYLEY,
        'stepped[q * k + same[y]] = f"{head} {run}" if head else run',
        "stepped[q * k + same[y]] = run",
        (
            NUMBERED + "test_stepped_texts_equal_format_element",
            "tests/test_codec.py::test_certificate_writer_formats_only_its_sources",
        ),
    ),
    Mutant(
        "writer-texts-of-another-domain",
        DOUBLING,
        "if ball is not None and ball.spec == spec and ball.vertices == domain:",
        "if ball is not None:",
        (
            NUMBERED + "test_writers_read_the_ball_only_for_its_own_domain",
        ),
    ),
    # -- the certificate as its domain and translator record -------------------
    Mutant(
        "certificate-sigma-from-the-wrong-place",
        DOUBLING,
        "translators[row.index(j)]",
        "translators[row.index(j) - 1]",
        (
            "tests/test_tree_numbering.py::test_check_domain_on_the_tree_equals_the_hand_given_domain",
            "tests/test_decomposition.py::test_a_certificate_round_trips_through_its_file",
            "tests/test_doubling.py::test_oracle_equivalence_random_instances[free3]",
            "tests/test_golden.py::test_stdout_matches_its_digest[check_free3_r6_json]",
        ),
    ),
    Mutant(
        "certificate-family-2-not-reordered",
        DOUBLING,
        "if sources2 != domain:",
        "if False:",
        (
            "tests/test_decomposition.py::test_a_certificate_round_trips_through_its_file",
        ),
    ),
    Mutant(
        "certificate-domain-check-dropped",
        DOUBLING,
        "if domains[0] != domains[1]:",
        "if False:",
        (
            "tests/test_cli.py::TestMalformedReportInput::test_phi2_domain_differs_exit_one[first]",
            "tests/test_cli.py::TestMalformedReportInput::test_phi2_domain_differs_exit_one[last]",
            "tests/test_decomposition.py::TestOnePassCertificate::test_tampered_certificates_keep_their_messages",
        ),
    ),
]
