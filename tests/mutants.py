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
DECOMPOSITION = "src/paradec/decomposition.py"
DOUBLING = "src/paradec/doubling.py"
FOREST = "src/paradec/forest.py"
GROUPS = "src/paradec/groups.py"
CODEC = "tests/test_codec.py::"
TREE = "tests/test_tree_numbering.py::"
NUMBERED = "tests/test_numbered_ball.py::"
FORESTS = "tests/test_forest.py::"
COLUMNS = "tests/test_columns.py::"
CLI = "tests/test_cli.py::TestDeterminismAndErrors::"

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
        "values[q * k + place[y]] = parent + q",
        "values[q * k + place[-y]] = parent + q",
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
        "return range(after + i, after + size * width, width)",
        "return range(after + i + 1, after + size * width + 1, width)",
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
        "tree-last-ignored",
        DOUBLING,
        "if last and done == len(elements):",
        "if done == len(elements):",
        (
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
            TREE + "test_minimal_violating_radius_on_the_tree_equals_the_oracle",
            TREE + "test_warm_start_on_a_high_rank_ball_equals_the_oracle",
        ),
    ),
    Mutant(
        "tree-ended-ball-unguarded",
        DOUBLING,
        "        if self.ended:\n            raise ValueError(\"the ball ended with an earlier batch\")\n",
        "",
        (
            TREE + "test_no_batch_skips_a_level_or_follows_the_last",
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
        "parent = self.offset(level - 1)\n",
        "parent = self.offset(level - 1) + 1\n",
        (
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
        ),
    ),
    Mutant(
        "numbered-last-level-child-not-none",
        CAYLEY,
        "outside = (lambda t: repeat(None, size)) if level == last else None",
        "outside = (lambda t: repeat(-1, size)) if level == last else None",
        (
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            "tests/test_cayley.py::TestEnumerateBall::test_interior_matches_multiply_definition[free3-r3]",
        ),
    ),
    Mutant(
        "numbered-view-order-swapped",
        CAYLEY,
        "return [s[0] for _, _, s in self.gens.symmetrized(self.spec)]",
        "return sorted(s[0] for _, _, s in self.gens.symmetrized(self.spec))",
        (
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            "tests/test_golden.py::test_stdout_matches_its_digest[forest_audit_free3_r5_json]",
        ),
    ),
    # -- one row, one place and the interior, read off the numbering ----------
    Mutant(
        "row-parent-place-off-by-one",
        CAYLEY,
        "above = self.offset(level - 1) + j // k if",
        "above = self.offset(level - 1) + j // k + 1 if",
        (
            NUMBERED + "test_rows_and_interior_read_off_the_numbering_equal_the_oracles",
            "tests/test_golden.py::test_stdout_matches_its_digest[forest_audit_free3_r5_json]",
        ),
    ),
    Mutant(
        "row-level-1-parent-not-the-identity",
        CAYLEY,
        "j // k if level > 1 else 0",
        "j // k if level > 1 else 1",
        (
            NUMBERED + "test_rows_and_interior_read_off_the_numbering_equal_the_oracles",
            "tests/test_golden.py::test_stdout_matches_golden[forest_audit_free3_r3_json]",
        ),
    ),
    Mutant(
        "row-child-offset-off-by-one",
        CAYLEY,
        "first = self.offset(level + 1) + j * k\n",
        "first = self.offset(level + 1) + j * k + 1\n",
        (
            NUMBERED + "test_rows_and_interior_read_off_the_numbering_equal_the_oracles",
            "tests/test_golden.py::test_stdout_matches_its_digest[forest_audit_free3_r5_json]",
        ),
    ),
    Mutant(
        "row-last-level-children-not-none",
        CAYLEY,
        "        if level == last:\n",
        "        if level > last:\n",
        (
            NUMBERED + "test_rows_and_interior_read_off_the_numbering_equal_the_oracles",
            FORESTS + "test_audit_equals_the_element_level_oracle[free:3[standard]-r3]",
        ),
    ),
    Mutant(
        "row-radius-0-children-not-none",
        CAYLEY,
        "1 + self.rank[t] if last else None",
        "1 + self.rank[t]",
        (
            NUMBERED + "test_rows_and_interior_read_off_the_numbering_equal_the_oracles",
        ),
    ),
    Mutant(
        "place-word-unchecked",
        CAYLEY,
        "return place if self.vertices[place] == element else None",
        "return place",
        (
            NUMBERED + "test_index_of_and_in_read_off_the_numbering_agree_with_a_dict",
            NUMBERED + "test_index_of_rejects_words_next_to_the_ball[unreduced-on-a-vertex]",
        ),
    ),
    Mutant(
        "place-past-the-end-unchecked",
        CAYLEY,
        "if place is None or place >= len(self.vertices):",
        "if place is None:",
        (
            NUMBERED + "test_index_of_rejects_words_next_to_the_ball[unreduced-past-the-end]",
        ),
    ),
    Mutant(
        "interior-the-whole-ball",
        CAYLEY,
        "return self.vertices[: self.tree.offset(len(self.level_sizes) - 1)]",
        "return self.vertices[: self.tree.offset(len(self.level_sizes))]",
        (
            NUMBERED + "test_rows_and_interior_read_off_the_numbering_equal_the_oracles",
            NUMBERED + "test_the_numbered_ball_forms_no_product",
            "tests/test_golden.py::test_stdout_matches_its_digest[forest_audit_free3_r5_json]",
        ),
    ),
    Mutant(
        "offset-a-level-late",
        CAYLEY,
        "offsets.append(offsets[-1] + self.level_size(len(offsets) - 1))",
        "offsets.append(offsets[-1] + self.level_size(len(offsets)))",
        (
            NUMBERED + "test_offsets_are_the_sums_of_the_level_sizes",
            TREE + "test_tree_rows_equal_the_row_by_row_oracle",
        ),
    ),
    Mutant(
        "audit-reads-the-whole-table",
        FOREST,
        "neighbours = {i: patch.row(i) for i in ids1 + ids2}",
        "neighbours = {i: patch.neighbours[i] for i in ids1 + ids2}",
        (
            NUMBERED + "test_forest_audit_builds_no_table_or_index_on_a_numbered_ball[free:3-r5]",
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
    # -- the searched ball and its neighbour table -----------------------------
    Mutant(
        "searched-budget-checked-per-level",
        CAYLEY,
        "                    discovered.append(v)\n"
        "            if len(seen) * width > budget:\n"
        "                raise _over_budget(level, budget, width)\n",
        "                    discovered.append(v)\n"
        "        if len(seen) * width > budget:\n"
        "            raise _over_budget(level, budget, width)\n",
        (
            "tests/test_cayley.py::TestEnumerateBall::test_budget_error_comes_one_star_past_the_budget",
        ),
    ),
    Mutant(
        "searched-steps-reversed",
        CAYLEY,
        "            for s in steps:\n                v = multiply(u, s)",
        "            for s in steps[::-1]:\n                v = multiply(u, s)",
        (
            CLI + "test_first_overflowing_ball_product_is_named[search]",
        ),
    ),
    Mutant(
        "star-rows-steps-reversed",
        CAYLEY,
        "tuple([lookup(multiply(u, s)) for s in steps])",
        "tuple([lookup(multiply(u, s)) for s in steps[::-1]][::-1])",
        (
            "tests/test_cayley.py::test_searched_neighbours_equal_the_per_product_oracle",
            CLI + "test_first_overflowing_ball_product_is_named[neighbour-table]",
        ),
    ),
    # -- the numbering that a generated ball keeps ------------------------------
    Mutant(
        "numbering-a-plain-field",
        CAYLEY,
        'numbering: InitVar["ShortlexTree | None"] = None\n\n    def __post_init__(self, numbering):\n',
        'numbering: "ShortlexTree | None" = None\n\n    def __post_init__(self):\n'
        "        numbering = self.numbering\n",
        (
            TREE + "test_a_patch_out_of_shortlex_order_takes_the_interning_path[level-1-swapped]",
            NUMBERED + "test_a_reordered_patch_takes_the_star_path[longer-word]",
            NUMBERED + "test_a_patch_of_other_words_in_shortlex_order_takes_the_star_path[foreign-letter]",
        ),
    ),
    Mutant(
        "numbering-of-a-searched-ball",
        CAYLEY,
        "return None, _searched_levels(spec, steps, radius, budget, width)",
        "return ShortlexTree(()), _searched_levels(spec, steps, radius, budget, width)",
        (
            NUMBERED + "test_a_searched_ball_takes_the_star_path[abelian:2[None]]",
            NUMBERED + "test_a_searched_ball_takes_the_star_path[free:2[a=a,b=b,c=a b]]",
        ),
    ),
    # -- the a-edge contraction of a free tree ball and the union-find ---------
    Mutant(
        "tree-a-edge-one-direction",
        FOREST,
        "    a_letters |= {-x for x in a_letters}\n",
        "",
        (
            FORESTS + "test_a_edges_and_contraction_equal_the_edge_list_oracles[free:2[a=a,b=a^-1,c=b]-r1]",
            FORESTS + "test_tree_contraction_equals_the_general_path",
        ),
    ),
    Mutant(
        "tree-a-edge-child-opens-a-block",
        FOREST,
        "block_of[v] = block_of[u]",
        "block_of[v] = len(originals) + 1",
        (
            FORESTS + "test_a_edges_and_contraction_equal_the_edge_list_oracles[free:3[standard]-r3]",
            FORESTS + "test_tree_contraction_equals_the_general_path",
        ),
    ),
    Mutant(
        "tree-parent-pairs-a-level-late",
        CAYLEY,
        "(u for u in count(1) for _ in range(m - 1))",
        "(u for u in count(1 + m) for _ in range(m - 1))",
        (
            FORESTS + "test_tree_contraction_equals_the_general_path",
            NUMBERED + "test_numbered_neighbours_equal_the_star_oracle",
            "tests/test_golden.py::test_stdout_matches_golden[forest_audit_free3_permuted_r4_json]",
        ),
    ),
    Mutant(
        "union-links-the-other-way",
        FOREST,
        "        parent[y] = x\n",
        "        parent[x] = y\n",
        (
            FORESTS + "test_a_edges_and_contraction_equal_the_edge_list_oracles[abelian:2[standard]-r3]",
            FORESTS + "test_tree_contraction_equals_the_general_path",
            "tests/test_golden.py::test_stdout_matches_golden[forest_audit_abelian3_r4_json]",
        ),
    ),
    Mutant(
        "graph-edge-range-check-negative-side-dropped",
        FOREST,
        "if key[0] < 0 or key[1] >= num_vertices:",
        "if key[1] >= num_vertices:",
        (
            FORESTS + "TestContraction::test_graph_edge_outside_the_vertices_rejected[negative]",
        ),
    ),
    # -- the Hall graph's copies, its warm start and the shrink -----------------
    Mutant(
        "copy-2-read-from-copy-1s-start",
        DOUBLING,
        "twos = chain.from_iterable(values[s + n : s + 2 * n] for s, n in batches)",
        "twos = chain.from_iterable(values[s : s + n] for s, n in batches)",
        (
            "tests/test_doubling.py::TestCheckDomain::test_abelian_line_violator",
            "tests/test_doubling.py::test_oracle_equivalence_random_instances[ab2]",
            TREE + "test_tree_graph_matches_like_the_interning_graph",
        ),
    ),
    Mutant(
        "copy-2-before-copy-1",
        DOUBLING,
        "for translators in (self.ts.s1, self.ts.s2):",
        "for translators in (self.ts.s2, self.ts.s1):",
        (
            "tests/test_doubling.py::test_hall_graph_equals_the_row_by_row_oracle[no-shared-neither]",
            "tests/test_golden.py::test_stdout_matches_its_digest[check_free3_r6_json]",
        ),
    ),
    Mutant(
        "warm-start-cold-restart-per-level",
        DOUBLING,
        "self.matching = hopcroft_karp(self.adjacency, self.num_right, self.matching)",
        "self.matching = hopcroft_karp(self.adjacency, self.num_right, None)",
        (
            "tests/test_doubling.py::TestMinimalViolatingRadius::test_warm_matching_never_restarts",
            TREE + "test_no_index_moves_as_the_ball_grows[3-5-1,a-1,b,c]",
        ),
    ),
    Mutant(
        "shrink-keeps-a-removal-at-equality",
        DOUBLING,
        "if union_size - lost < size - 1:",
        "if union_size - lost <= size - 1:",
        (
            "tests/test_doubling.py::test_incremental_shrink_matches_recount_oracle[ab2]",
            "tests/test_columns.py::test_shrink_equals_the_row_oracle_on_the_bench_sets",
        ),
    ),
    Mutant(
        "shrink-a2-before-a1",
        DOUBLING,
        "for side, keep in zip(sides, kept):",
        "for side, keep in reversed(list(zip(sides, kept))):",
        (
            "tests/test_doubling.py::test_incremental_shrink_matches_recount_oracle[ab2]",
            "tests/test_columns.py::test_shrink_equals_the_row_oracle_on_the_bench_sets",
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
    # -- the certificate reader ------------------------------------------------
    Mutant(
        "reader-reuses-other-sources",
        DOUBLING,
        "same = [g for g, _ in pairs2] == [g for g, _ in pairs1]",
        "same = len(pairs2) == len(pairs1)",
        (
            CODEC + "test_certificate_reader_parses_no_text_whose_element_is_at_hand",
            CODEC + "test_certificate_reader_names_the_first_malformed_text[phi2-source-of-other-sources]",
            "tests/test_cli.py::TestMalformedReportInput::test_phi2_domain_differs_exit_one[first]",
        ),
    ),
    Mutant(
        "reader-parses-shared-sources-again",
        DOUBLING,
        "[g for g, _ in phi1] if same else None",
        "None",
        (
            CODEC + "test_certificate_reader_parses_no_text_whose_element_is_at_hand",
        ),
    ),
    Mutant(
        "reader-image-always-its-source",
        DOUBLING,
        "phi.append((source, source if w == g else parse(w)))",
        "phi.append((source, source))",
        (
            CODEC + "test_certificate_reader_parses_no_text_whose_element_is_at_hand",
            "tests/test_decomposition.py::test_a_certificate_round_trips_through_its_file",
        ),
    ),
    Mutant(
        "reader-parses-images-equal-to-their-source",
        DOUBLING,
        "source if w == g else parse(w)",
        "parse(w)",
        (
            CODEC + "test_certificate_reader_parses_no_text_whose_element_is_at_hand",
        ),
    ),
    # -- the coverage check of a decomposition ----------------------------------
    Mutant(
        "escape-read-off-the-first-translator",
        DECOMPOSITION,
        "                for s, _ in pieces\n",
        "                for s, _ in pieces[:1]\n",
        (
            COLUMNS + "test_verify_decomposition_equals_the_element_oracle",
            COLUMNS + "test_verify_decomposition_forms_escapes_for_the_uncovered_alone[boundary, dropped]",
        ),
    ),
    Mutant(
        "escape-inverted",
        DECOMPOSITION,
        "                if target not in domain\n",
        "                if target in domain\n",
        (
            COLUMNS + "test_verify_decomposition_equals_the_element_oracle",
            COLUMNS + "test_verify_decomposition_equals_the_oracle_on_tampered_pieces[free3-boundary]",
        ),
    ),
    Mutant(
        "escape-formed-for-the-whole-domain",
        DECOMPOSITION,
        "                for g, target in zip(pending, spec.translates(pending, s))\n"
        "                if target not in domain\n",
        "                for g, target in zip(pd.domain, spec.translates(pd.domain, s))\n"
        "                if target not in domain\n",
        (
            COLUMNS + "test_verify_decomposition_forms_escapes_for_the_uncovered_alone[boundary, dropped]",
        ),
    ),
    Mutant(
        "escape-asked-of-every-element",
        DECOMPOSITION,
        "        if pending:\n            domain = set(pd.domain)\n",
        "        if True:\n            domain = set(pd.domain)\n",
        (
            COLUMNS + "test_verify_decomposition_forms_escapes_for_the_uncovered_alone[none]",
        ),
    ),
    # -- the text step and the batch parser ------------------------------------
    Mutant(
        "text-step-exponent-sign",
        GROUPS,
        "step = 1 if t > 0 else -1",
        "step = -1 if t > 0 else 1",
        (
            CODEC + "test_text_translates_is_the_formatted_column",
            "tests/test_golden.py::test_stdout_matches_golden[check_free3_r4_json]",
        ),
    ),
    Mutant(
        "text-step-empty-head-not-1",
        GROUPS,
        'append(head or "1")',
        "append(head)",
        (
            CODEC + "test_text_translates_is_the_formatted_column",
            "tests/test_decomposition.py::test_a_certificate_round_trips_through_its_file",
            "tests/test_decomposition.py::TestOnePassCertificate::test_pieces_match_division_oracle",
        ),
    ),
    Mutant(
        "text-step-first-run",
        GROUPS,
        'head, _, last = text.rpartition(" ")',
        'head, _, last = text.partition(" ")',
        (
            CODEC + "test_text_translates_is_the_formatted_column",
            "tests/test_golden.py::test_stdout_matches_golden[check_free3_r4_json]",
        ),
    ),
    Mutant(
        "parser-no-cancellation",
        GROUPS,
        "                        while k < len(run) and k < len(word) and word[-1 - k] == -run[k]:\n"
        "                            k += 1\n",
        "",
        (
            CODEC + "test_parser_reads_non_canonical_text[a a^-1]",
            CODEC + "test_parser_reads_non_canonical_text[c^-1 c^2]",
            CODEC + "test_free_words_with_runs_and_unreduced_letters",
        ),
    ),
    Mutant(
        "parser-token-run-sign",
        GROUPS,
        "return (letter if exponent > 0 else -letter,) * abs(exponent)",
        "return (-letter if exponent > 0 else letter,) * abs(exponent)",
        (
            CODEC + "test_parser_matches_parse_element[free:3]",
            CODEC + "test_report_parses_through_the_codec",
        ),
    ),
]
