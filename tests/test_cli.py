import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from paradec import (
    CayleyPatch,
    GeneratingSet,
    TranslatingSets,
    cli,
    decomposition,
    enumerate_ball,
    errors,
    forest,
    parse_group_spec,
    spec_to_string,
    verdict_from_jsonable,
    verify_certificate,
)
from paradec.cayley import format_label
from paradec.cli import main
from paradec.decomposition import freeness_from_jsonable, verify_freeness
from paradec.doubling import Certificate, Violator

from helpers import all_model_specs, record_products
from oracles import ball_edges_oracle, simple_edges_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBall:
    def test_radius_zero(self, capsys):
        code, out, _ = run(capsys, "ball", "--group", "free:2", "--radius", "0")
        assert code == 0
        assert "1 vertices" in out

    def test_json_summary(self, capsys):
        code, data, _ = run_json(
            capsys, "ball", "--group", "free:3", "--radius", "2"
        )
        assert code == 0
        assert data["vertices"] == 37
        assert data["sphere_sizes"] == [1, 6, 30]

    def test_saturated_ball_lists_no_empty_sphere(self, capsys):
        code, out, _ = run(
            capsys, "ball", "--group", "cyclic:7", "--radius", "1000000",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["sphere_sizes"] == [1, 2, 2, 2]
        assert data["radius"] == 1000000
        assert len(out) < 1000

    def test_dump_json(self, capsys, tmp_path):
        target = tmp_path / "patch.json"
        code, _, err = run(
            capsys,
            "ball",
            "--group",
            "cyclic:3",
            "--radius",
            "1",
            "--dump",
            str(target),
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["group"] == "cyclic:3"
        assert len(data["vertices"]) == 3

    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_dump_is_the_ball(self, capsys, tmp_path, spec):
        target = tmp_path / "patch.json"
        code, _, _ = run(
            capsys, "ball", "--group", spec_to_string(spec), "--radius", "2",
            "--dump", str(target),
        )
        assert code == 0
        data = json.loads(target.read_text())
        patch = enumerate_ball(spec, GeneratingSet.standard(spec), 2)
        assert [spec.parse_element(v) for v in data["vertices"]] == list(patch.vertices)
        assert data["distances"] == list(patch.distances)
        assert data["edges"] == [
            [u, format_label(sym, sign), v] for u, sym, sign, v in patch.edges
        ]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("spec", all_model_specs(), ids=spec_to_string)
    def test_counts_read_the_table_not_the_labeled_edges(
        self, capsys, monkeypatch, spec, fmt
    ):
        patches = []

        def recording(*args):
            patches.append(enumerate_ball(*args))
            return patches[-1]

        monkeypatch.setattr(cli, "enumerate_ball", recording)
        code, out, _ = run(
            capsys, "ball", "--group", spec_to_string(spec), "--radius", "3",
            "--format", fmt,
        )
        assert code == 0
        (patch,) = patches
        assert "edges" not in vars(patch)
        edges = ball_edges_oracle(patch)
        if fmt == "json":
            data = json.loads(out)
            assert data["edges"] == len(edges)
            assert data["simple_edges"] == len(simple_edges_oracle(edges))
        else:
            assert f" {len(edges)} labeled edges," in out

    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        # the text line reads the vertex, labeled-edge and sphere counts;
        # only --format json builds the context block and the simple graph
        context = count_calls(monkeypatch, cli, "_context")
        patches = []

        def recording(*args):
            patches.append(enumerate_ball(*args))
            return patches[-1]

        monkeypatch.setattr(cli, "enumerate_ball", recording)
        code, out, _ = run(capsys, "ball", "--group", "free:3", "--radius", "2")
        assert code == 0 and out == (
            "ball radius 2 of free:3: 37 vertices, 72 labeled edges, "
            "sphere sizes [1, 6, 30]\n"
        )
        assert context == [] and "simple_edges" not in vars(patches[0])
        code, data, _ = run_json(capsys, "ball", "--group", "free:3", "--radius", "2")
        assert code == 0 and data["simple_edges"] == 36
        assert len(context) == 1 and "simple_edges" in vars(patches[1])

    def test_generator_overrides(self, capsys):
        code, data, _ = run_json(
            capsys,
            "ball",
            "--group",
            "abelian:2",
            "--gens",
            "a=a,d=a b",
            "--radius",
            "1",
        )
        assert code == 0
        assert data["vertices"] == 5  # identity, ±a, ±(a+b)


class TestCheck:
    def test_free3_certificate_exit_zero(self, capsys):
        code, data, _ = run_json(
            capsys,
            "check",
            "--group",
            "free:3",
            "--s1",
            "1,a",
            "--s2",
            "1,b,c",
            "--radius",
            "3",
        )
        assert code == 0
        assert data["verdict"]["kind"] == "certificate"
        spec = parse_group_spec(data["group"])
        ts = TranslatingSets.from_jsonable(spec, data)
        verdict = verify_certificate(spec, ts, *verdict_from_jsonable(spec, data["verdict"]))
        assert isinstance(verdict, Certificate)
        assert len(verdict.domain) == data["domain_size"]

    def test_abelian_violator_exit_one(self, capsys):
        code, data, _ = run_json(
            capsys,
            "check",
            "--group",
            "abelian:1",
            "--s1",
            "1,a",
            "--s2",
            "1,a",
            "--radius",
            "2",
        )
        assert code == 1
        assert data["verdict"]["kind"] == "violator"
        spec = parse_group_spec(data["group"])
        verdict = verdict_from_jsonable(spec, data["verdict"])
        assert isinstance(verdict, Violator)
        assert verdict.union_size < len(verdict.a1) + len(verdict.a2)

    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        # the text line is formatted from the verdict; only --format json
        # builds the verdict document
        built = count_calls(monkeypatch, cli, "verdict_to_jsonable")
        certificate = ("check", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c",
                       "--radius", "3")
        violator = ("check", "--group", "abelian:1", "--s1", "1,a", "--s2", "1,a",
                    "--radius", "2")
        code, out, _ = run(capsys, *certificate)
        assert code == 0 and out.startswith("certificate: ")
        code, out, _ = run(capsys, *violator)
        assert code == 1
        assert built == []
        code, data, _ = run_json(capsys, *violator)
        assert code == 1 and len(built) == 1
        verdict = data["verdict"]
        assert out == "violator: A1 = {%s}, A2 = {%s}, union size %d < %d\n" % (
            ", ".join(verdict["a1"]),
            ", ".join(verdict["a2"]),
            verdict["union_size"],
            len(verdict["a1"]) + len(verdict["a2"]),
        )


class TestBracketedTranslators:
    """--s1/--s2 cut only at commas outside square brackets."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_vector_literal_matches_word(self, capsys, fmt):
        common = ("--s2", "1,b,a b", "--radius", "2", "--format", fmt)
        argv = ("check", "--group", "abelian:2", "--s1")
        assert run(capsys, *argv, "1,[1,0]", *common) == run(
            capsys, *argv, "1,a", *common
        )

    def test_matrix_literal_matches_word(self, capsys):
        common = ("--s2", "1,B", "--radius", "2")
        argv = ("check", "--group", "sl2z", "--s1")
        literal = run(capsys, *argv, "1,[[1,2],[0,1]]", *common)
        assert literal[0] == 0
        assert literal == run(capsys, *argv, "1,A", *common)

    @pytest.mark.parametrize("s1", ["1,[1,0", "1,1,0]", "[1,[0,0]"])
    def test_unbalanced_bracket_exit_two(self, capsys, s1):
        code, out, err = run(
            capsys, "check", "--group", "abelian:2", "--s1", s1,
            "--s2", "1,b", "--radius", "1",
        )
        assert code == 2 and out == ""
        assert f"in translator list {s1!r}" in err

    def test_forest_audit_accepts_literals(self, capsys):
        argv = ("forest-audit", "--group", "abelian:3", "--radius", "3",
                "--samples", "3", "--seed", "5", "--format", "json")
        literal = run(
            capsys, *argv, "--s1", "[0,0,0],[1,0,0]", "--s2", "1,[0,1,0],[0,0,1]"
        )
        assert literal[0] in (0, 1) and literal[2] == ""
        assert literal == run(capsys, *argv, "--s1", "1,a", "--s2", "1,b,c")


class TestViolate:
    def test_found(self, capsys):
        code, data, _ = run_json(
            capsys,
            "violate",
            "--group",
            "abelian:2",
            "--s1",
            "1,a",
            "--s2",
            "1,b,a b",
            "--max-radius",
            "6",
        )
        assert code == 0
        assert data["found"] and data["radius"] <= 6

    def test_absent_exit_one(self, capsys):
        code, data, _ = run_json(
            capsys,
            "violate",
            "--group",
            "free:2",
            "--s1",
            "1,a",
            "--s2",
            "1,b",
            "--max-radius",
            "3",
        )
        assert code == 1
        assert not data["found"]

    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        # the text line reads the radius and two sizes; only --format json
        # builds the violator document and the context block
        built = count_calls(monkeypatch, cli, "verdict_to_jsonable")
        context = count_calls(monkeypatch, cli, "_context")
        found = ("violate", "--group", "abelian:2", "--s1", "1,a", "--s2", "1,b,a b",
                 "--max-radius", "6")
        absent = ("violate", "--group", "free:2", "--s1", "1,a", "--s2", "1,b",
                  "--max-radius", "2")
        code, out, _ = run(capsys, *found)
        assert code == 0 and out.startswith("violator at radius ")
        code, out, _ = run(capsys, *absent)
        assert code == 1 and out == "no violator up to radius 2\n"
        assert built == [] and context == []
        code, _, _ = run_json(capsys, *found)
        assert code == 0 and len(built) == 1 and len(context) == 1
        code, _, _ = run_json(capsys, *absent)
        assert code == 1 and len(built) == 1 and len(context) == 2


class TestDecompose:
    def test_free2_passes(self, capsys):
        code, data, _ = run_json(
            capsys,
            "decompose",
            "--group",
            "free:2",
            "--s1",
            "1,a",
            "--s2",
            "1,b",
            "--radius",
            "3",
        )
        assert code == 0
        assert data["verification"]["passed"]
        assert data["nonempty_pieces"] == 4

    def test_violating_domain_exits_one(self, capsys):
        code, data, _ = run_json(
            capsys,
            "decompose",
            "--group",
            "cyclic:6",
            "--s1",
            "1,a",
            "--s2",
            "1,a",
            "--radius",
            "3",
        )
        assert code == 1
        assert data["verdict"]["kind"] == "violator"

    def test_pieces_come_from_the_matching_record(self, capsys, monkeypatch):
        # the translators are not searched again; the printed pieces are
        # still verified once
        searched = count_calls(monkeypatch, cli, "verify_certificate")
        verified = count_calls(monkeypatch, decomposition, "verify_decomposition")
        code, data, _ = run_json(
            capsys, "decompose", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c",
            "--radius", "3",
        )
        assert code == 0 and data["verification"]["passed"]
        assert len(searched) == 0 and len(verified) == 1

    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        # text mode prints the pieces document through report_to_text, but
        # builds no verification block, violator document or context block
        names = ("verification_to_jsonable", "verdict_to_jsonable", "_context")
        built = {name: count_calls(monkeypatch, cli, name) for name in names}
        pieces = count_calls(monkeypatch, cli, "decomposition_to_jsonable")
        certificate = ("decompose", "--group", "free:2", "--s1", "1,a", "--s2", "1,b",
                       "--radius", "2")
        violator = ("decompose", "--group", "cyclic:6", "--s1", "1,a", "--s2", "1,a",
                    "--radius", "3")
        code, out, _ = run(capsys, *certificate)
        assert code == 0 and out.startswith("4 nonempty pieces over 4 translators")
        code, out, _ = run(capsys, *violator)
        assert code == 1 and out == "no decomposition: the domain admits a violator\n"
        assert all(calls == [] for calls in built.values()) and len(pieces) == 1
        run_json(capsys, *certificate)
        run_json(capsys, *violator)
        assert {name: len(calls) for name, calls in built.items()} == {
            "verification_to_jsonable": 1, "verdict_to_jsonable": 1, "_context": 2
        }
        assert len(pieces) == 2


class TestForestAudit:
    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        built = count_calls(monkeypatch, forest.ForestAudit, "to_jsonable")
        argv = ("forest-audit", "--group", "free:3", "--radius", "3", "--samples", "3",
                "--seed", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == 3
        assert built == []
        code, _, _ = run_json(capsys, *argv)
        assert code == 0 and len(built) == 3

    def test_free3_all_pass(self, capsys):
        code, data, _ = run_json(
            capsys,
            "forest-audit",
            "--group",
            "free:3",
            "--radius",
            "3",
            "--samples",
            "5",
            "--seed",
            "11",
        )
        assert code == 0
        assert data["all_passed"]
        assert len(data["audits"]) == 5

    def test_explicit_translators(self, capsys):
        code, data, _ = run_json(
            capsys,
            "forest-audit",
            "--group",
            "free:3",
            "--s1",
            "1,a",
            "--s2",
            "1,b,c",
            "--radius",
            "3",
            "--samples",
            "3",
            "--seed",
            "2",
        )
        assert code == 0
        assert data["all_passed"]

    def test_a_symbol_taken_from_s1(self, capsys):
        # S1 = {1, b}: the forests must contain every b-edge, and the
        # audit's E3 edges are b-edges; the degree hypothesis fails honestly
        # in Z^3, so the run is a negative, not an error
        code, data, err = run_json(
            capsys,
            "forest-audit",
            "--group",
            "abelian:3",
            "--radius",
            "4",
            "--samples",
            "5",
            "--seed",
            "3",
            "--s1",
            "1,b",
            "--s2",
            "1,a,c",
        )
        assert code == 1 and err == ""
        for audit in data["audits"]:
            assert audit["e3"] and {sym for _, sym, _, _ in audit["e3"]} == {"b"}
            passed = {c["name"]: c["passed"] for c in audit["ledger"]}
            assert passed["e3_counts_a1"] and passed["lambda_forest"]
            assert not passed["degree_sum"]

    @pytest.mark.parametrize(
        "option,message",
        [
            ("--samples", "sample count must be at least 1"),
            # zero once drew empty A1 and A2 forever
            ("--max-set-size", "max set size must be at least 1"),
        ],
    )
    def test_nonpositive_count_exit_two(self, capsys, option, message):
        code, out, err = run(
            capsys, "forest-audit", "--group", "free:3", "--radius", "2", option, "0"
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("given", ["--s1", "--s2"])
    def test_one_translating_set_alone_exit_two(self, capsys, given):
        code, out, err = run(
            capsys,
            "forest-audit",
            "--group",
            "free:3",
            "--radius",
            "2",
            given,
            "1,a",
        )
        assert code == 2 and out == ""
        assert err == "error: --s1 and --s2 must be given together\n"

    @pytest.mark.parametrize(
        "gens", ["a=a,b=b,c=b", "a=a,b=b,c=1"], ids=["repeated", "identity"]
    )
    def test_degenerate_triple_named_before_default_translators(self, capsys, gens):
        # the default S2 = {1, b, c} would repeat a translator; the error
        # names the generators the user gave instead
        code, out, err = run(
            capsys, "forest-audit", "--group", "free:3", "--gens", gens, "--radius", "3",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: generating triple must be three distinct non-identity elements\n"
        )

    def test_torsion_generator_exit_two(self, capsys):
        # a has order 7, so the a-edges of the ball close a cycle; the
        # contraction, built before the first sample, refuses them
        code, out, err = run(
            capsys, "forest-audit", "--group", "cyclic:7", "--gens", "a=a,b=a^2,c=a^3",
            "--radius", "3", "--samples", "2",
        )
        assert code == 2 and out == ""
        assert err == "error: required edges close a cycle at (5, 6)\n"


class TestFreeCheck:
    def test_matrix_pair(self, capsys):
        code, data, _ = run_json(
            capsys,
            "free-check",
            "--group",
            "sl2z",
            "--g",
            "A",
            "--h",
            "B",
            "--max-length",
            "6",
        )
        assert code == 0
        assert data["free"] and data["witness"] is None

    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        context = count_calls(monkeypatch, cli, "_context")
        free = ("free-check", "--group", "sl2z", "--g", "A", "--h", "B",
                "--max-length", "6")
        related = ("free-check", "--group", "abelian:2", "--g", "a", "--h", "b",
                   "--max-length", "4")
        code, out, _ = run(capsys, *free)
        assert code == 0 and out == (
            "no relation of length <= 6: the pair generates freely at this scale\n"
        )
        code, out, _ = run(capsys, *related)
        assert code == 1 and out.startswith("relation found: ")
        assert context == []
        run_json(capsys, *free)
        run_json(capsys, *related)
        assert len(context) == 2

    def test_commuting_pair(self, capsys):
        code, data, _ = run_json(
            capsys,
            "free-check",
            "--group",
            "abelian:2",
            "--g",
            "a",
            "--h",
            "b",
            "--max-length",
            "4",
        )
        assert code == 1
        assert data["witness"] == "g h g^-1 h^-1"

    def test_budget_bounds_stored_half_words(self, capsys):
        argv = ["free-check", "--group", "free:2", "--g", "a", "--h", "b"]
        code, _, _ = run(capsys, *argv, "--max-length", "2", "--budget", "5")
        assert code == 0
        code, out, err = run(capsys, *argv, "--max-length", "3", "--budget", "5")
        assert code == 2 and out == ""
        assert err == (
            "error: relations up to length 3 need 2*3^2 - 1 stored half-words "
            "of up to 2 letters each, over the vertex budget 5\n"
        )

    def test_budget_counts_the_letters_of_long_generators(self, capsys):
        argv = ["free-check", "--group", "free:2", "--max-length", "10"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--g", "a^20000", "--h", "b^20000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: relations up to length 10 need 2*3^5 - 1 stored half-words "
            "of up to 100000 letters each, over the vertex budget 5000000\n"
        )
        # 485 half-words of up to 5 * 2000 letters fit the default budget.
        code, out, _ = run(capsys, *argv, "--g", "a^2000", "--h", "b^2000")
        assert code == 0
        assert out == (
            "no relation of length <= 10: the pair generates freely at this scale\n"
        )

    def test_huge_max_length_exits_two_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "free-check", "--group", "free:2", "--g", "a", "--h", "b",
            "--max-length", "2000",
        )
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error: relations up to length 2000 need ")

    def test_overflow_beyond_half_length_is_not_reached(self, capsys):
        # products of three letters leave the 64-bit range; those of two
        # do not, and they are all a length-4 search forms
        code, data, _ = run_json(
            capsys, "free-check", "--group", "sl2z", "--g", "A^1000000000",
            "--h", "B^1000000000", "--max-length", "4",
        )
        assert code == 0 and data["free"]


class TestReport:
    def test_aggregation_pipeline(self, capsys, tmp_path, monkeypatch):
        specs = [
            ("free:3", "1,a", "1,b", "4.json"),
            ("free:3", "1,a", "1,b,c", "5.json"),
        ]
        paths = []
        for group, s1, s2, name in specs:
            code, data, _ = run_json(
                capsys,
                "check",
                "--group",
                group,
                "--s1",
                s1,
                "--s2",
                s2,
                "--radius",
                "2",
            )
            assert code == 0
            path = tmp_path / name
            path.write_text(json.dumps(data))
            paths.append(str(path))
        code, data, _ = run_json(
            capsys,
            "free-check",
            "--group",
            "free:3",
            "--g",
            "a",
            "--h",
            "b",
            "--max-length",
            "5",
        )
        free_path = tmp_path / "free.json"
        free_path.write_text(json.dumps(data))
        searched = count_calls(monkeypatch, cli, "verify_certificate")
        code, report, _ = run_json(
            capsys,
            "report",
            "--inputs",
            *paths,
            "--freeness",
            str(free_path),
        )
        assert code == 0
        assert report["upper"] == 4
        assert report["lower"] == 4
        assert any("free subgroup" in note for note in report["justification"])
        # a certificate read from a file is a claim, verified once
        assert len(searched) == len(paths)

    def test_text_mode_builds_no_json_document(self, capsys, monkeypatch):
        built = count_calls(monkeypatch, decomposition.TarskiBoundReport, "to_jsonable")
        golden = Path(__file__).resolve().parent / "golden"
        argv = ("report", "--inputs", str(golden / "check_free3_r2_json.out"),
                "--freeness", str(golden / "free_check_free3_json.out"))
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0 and out == (golden / "report_free3_text.out").read_text()
        assert built == []
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and out == (golden / "report_free3_json.out").read_text()
        assert len(built) == 1


    @pytest.mark.parametrize("big_first,expect", [(False, 0), (True, 2)])
    def test_sl2z_overflow_after_the_match(self, capsys, tmp_path, big_first, expect):
        """The translate of A by S1 = {1, M} that matches is A·1, so A·M,
        whose entry 2 + (2^63 - 2) leaves the 64-bit range, is not formed
        and the certificate is accepted.  Listed first, M is still
        multiplied out, and the overflow is a usage error."""
        big = "[[1, 9223372036854775806], [0, 1]]"
        s1 = [big, "1"] if big_first else ["1", big]
        data = {
            "group": "sl2z",
            "s1": s1,
            "s2": ["1", "B"],
            "verdict": {
                "kind": "certificate",
                "phi1": [["A", "[[1, 2], [0, 1]]"]],
                "phi2": [["A", "[[5, 2], [2, 1]]"]],
            },
        }
        path = tmp_path / "sl2z.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--inputs", str(path), "--format", "json")
        assert code == expect
        if expect == 0:
            assert json.loads(out)["upper"] == 4
        else:
            assert err == "error: matrix entry 9223372036854775808 exceeds the signed 64-bit range\n"

    def test_sl2z_first_unmatched_pair_fails_before_a_later_overflow(
        self, capsys, tmp_path
    ):
        """The pairs are checked in pair order: the identity's image
        [[1, 5], [0, 1]] is neither 1·A nor 1·1, so verification fails
        there, before the product M·A of the second pair, whose entry
        2 + (2^63 - 2) leaves the 64-bit range, is formed."""
        big = "[[1, 9223372036854775806], [0, 1]]"
        data = {
            "group": "sl2z",
            "s1": ["A", "1"],
            "s2": ["1", "B"],
            "verdict": {
                "kind": "certificate",
                "phi1": [["1", "[[1, 5], [0, 1]]"], [big, big]],
                "phi2": [["1", "1"], [big, big]],
            },
        }
        path = tmp_path / "sl2z.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--inputs", str(path), "--format", "json")
        assert code == 1
        assert out == ""
        assert err == (
            f"verification failed: {path}: "
            "[[1, 5], [0, 1]] is not a translate of [[1, 0], [0, 1]]\n"
        )


def test_cli_import_leaves_numpy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, paradec.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


class TestDeterminismAndErrors:
    def test_byte_identical_json(self, capsys):
        argv = (
            "forest-audit",
            "--group",
            "free:3",
            "--radius",
            "3",
            "--samples",
            "4",
            "--seed",
            "7",
            "--format",
            "json",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_bad_group_exit_two(self, capsys):
        code, _, err = run(capsys, "ball", "--group", "nope:3", "--radius", "1")
        assert code == 2
        assert "error" in err

    def test_bad_word_exit_two(self, capsys):
        code, _, err = run(
            capsys,
            "check",
            "--group",
            "free:2",
            "--s1",
            "1,q!",
            "--s2",
            "1,b",
            "--radius",
            "1",
        )
        assert code == 2

    def test_boolean_literal_exit_two(self, capsys):
        argv = ["check", "--group", "abelian:1", "--s2", "1,[2]", "--radius", "1",
                "--format", "json"]
        code, out, _ = run(capsys, *argv, "--s1", "1,[1]")
        assert code == 1 and '"[1]"' in out
        code, out, err = run(capsys, *argv, "--s1", "1,[true]")
        assert code == 2 and out == ""
        assert err == "error: expected 1 integers in brackets, got '[true]'\n"

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_exit_two(self, capsys, budget):
        code, out, err = run(
            capsys, "ball", "--group", "free:2", "--radius", "3", "--budget", budget
        )
        assert code == 2 and out == ""
        assert err == "error: vertex budget must be positive\n"

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--group", "free:2"])
        assert info.value.code == 2

    @staticmethod
    def parsed(capsys, parse, argv):
        """Exit code, stdout and stderr of a parse that is meant to exit."""
        with pytest.raises(SystemExit) as info:
            parse(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["check", "--help"],
            ["nosuch"],
            [],
            ["check", "--group", "free:2"],
            ["check", "--group", "free:2", "--s1", "1,a", "--s2", "1,b", "--radius", "1",
             "--bogus"],
            ["report", "--inputs"],
        ],
        ids=["help", "check-help", "typo", "none", "missing", "unrecognized", "report"],
    )
    def test_one_subcommand_parser_prints_as_the_full_parser(self, capsys, argv):
        """``main`` builds the parser of the named subcommand alone; its
        help, usage errors and exit codes are the full parser's."""
        ours = self.parsed(capsys, main, argv)
        assert ours == self.parsed(capsys, cli.build_parser().parse_args, argv)

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_ball", broken)
        code, out, err = run(capsys, "ball", "--group", "free:2", "--radius", "1")
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err == "error: internal: RuntimeError: boom\n"

    def test_every_error_type_is_a_paradec_error(self):
        types = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        assert errors.ViolatorError in types
        assert all(issubclass(t, errors.ParadecError) for t in types)

    def test_matrix_overflow_exit_two(self, capsys):
        code, out, err = run(
            capsys,
            "free-check",
            "--group",
            "sl2z",
            "--g",
            "A^10000000000000000000",
            "--h",
            "B",
            "--max-length",
            "2",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "64-bit" in err

    @pytest.mark.parametrize(
        "word",
        ["a^99999999999", " ".join(["a^9999 b^9999"] * 60)],
        ids=["power", "tokens"],
    )
    def test_overlong_free_word_exits_two_at_once(self, capsys, word):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "free-check", "--group", "free:3", "--g", word, "--h", "b",
            "--max-length", "2",
        )
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error: free-group word of ")
        assert "exceeds the bound 1000000" in err

    def test_budget_error_before_the_level_is_built(self, capsys):
        # radius 8 of free:3 has 586k elements of up to 8 letters; the
        # radius-7 ball (117,187) fits 120,000 such vertices, and the error
        # no longer waits for the whole eighth level
        start = time.perf_counter()
        code, out, err = run(
            capsys, "check", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c",
            "--radius", "8", "--budget", str(120_000 * 8), "--format", "json",
        )
        assert time.perf_counter() - start < 3
        assert code == 2 and out == ""
        assert err == (
            "error: ball of radius 8 exceeds the vertex budget 960000 "
            "at 8 letters per vertex\n"
        )

    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_long_translators_count_their_letters(self, capsys, monkeypatch, command):
        # Each vertex counts 200000 units, so the default budget holds 25 of
        # them and the radius-3 ball of free:2 (53) is refused before any
        # product with the long translator is formed.
        def short_factors_only(y):
            if len(y) > 1000:
                raise AssertionError("a product with the long translator was formed")

        record_products(monkeypatch, short_factors_only)
        start = time.perf_counter()
        code, out, err = run(
            capsys, command, "--group", "free:2", "--s1", "1,a^200000", "--s2", "1,b",
            "--radius", "6",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: ball of radius 3 exceeds the vertex budget 5000000 "
            "at 200000 letters per vertex\n"
        )

    def test_violate_counts_the_letters_of_long_translators(self, capsys, monkeypatch):
        # violate grows the ball level by level, so the levels that fit the
        # budget (17 vertices, 3,400,000 letters of products with the long
        # translator) are matched before the third is refused
        formed = []

        def counted(y):
            if len(y) > 1000:
                formed.append(len(y))
                if sum(formed) > 5_000_000:
                    raise AssertionError("products beyond the budget were formed")

        record_products(monkeypatch, counted)
        code, out, err = run(
            capsys, "violate", "--group", "free:2", "--s1", "1,a^200000", "--s2", "1,b",
            "--max-radius", "6",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: ball of radius 3 exceeds the vertex budget 5000000 "
            "at 200000 letters per vertex\n"
        )

    @pytest.mark.parametrize(
        "s1,fits,refused",
        [("1,a", 34, 33), ("1,a^2", 34, 33), ("1,a^-3", 51, 50)],
        ids=["letter", "square", "cube"],
    )
    def test_budget_units_per_vertex(self, capsys, s1, fits, refused):
        # the radius-2 ball of free:2 has 17 vertices of up to 2 letters,
        # and a translator longer than that sets the count
        argv = ["check", "--group", "free:2", "--s1", s1, "--s2", "1,b", "--radius", "2"]
        code, _, _ = run(capsys, *argv, "--budget", str(fits))
        assert code == 0
        code, out, err = run(capsys, *argv, "--budget", str(refused))
        assert code == 2 and out == ""
        letters = f" at {fits // 17} letters per vertex"
        assert err == f"error: ball of radius 2 exceeds the vertex budget {refused}{letters}\n"

    def test_single_letters_count_the_letters_of_a_radius(self, capsys):
        # a vertex of the radius-4000 ball of free:1 is a word of up to 4000
        # letters, so 1,249 vertices fit and the 1,251 of radius 625 do not
        start = time.perf_counter()
        code, out, err = run(capsys, "ball", "--group", "free:1", "--radius", "4000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: ball of radius 625 exceeds the vertex budget 5000000 "
            "at 4000 letters per vertex\n"
        )

    def test_generators_count_their_letters(self, capsys):
        argv = ["check", "--group", "free:2", "--gens", "a=a b a,b=b", "--s1", "1,a",
                "--s2", "1,b", "--radius", "1"]
        assert run(capsys, *argv, "--budget", "15")[0] == 0
        code, _, err = run(capsys, *argv, "--budget", "14")
        assert code == 2
        assert err == (
            "error: ball of radius 1 exceeds the vertex budget 14 at 3 letters per vertex\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["ball", "--radius", "5"],
            ["check", "--s1", "1,a", "--s2", "1,b", "--radius", "5"],
            ["violate", "--s1", "1,a", "--s2", "1,b", "--max-radius", "5"],
        ],
        ids=["ball", "check", "violate"],
    )
    def test_long_generators_count_the_letters_of_a_radius(self, capsys, argv):
        # a vertex of the radius-5 ball is a product of up to 5 generators of
        # 8000 letters: 40,000 units, so 125 vertices fit and the 161 of
        # radius 4 do not
        start = time.perf_counter()
        code, out, err = run(
            capsys, argv[0], "--group", "free:2", "--gens", "a=a^8000,b=b", *argv[1:]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: ball of radius 4 exceeds the vertex budget 5000000 "
            "at 40000 letters per vertex\n"
        )

    def test_products_outside_the_ball_are_not_formed(self, capsys):
        # entries of the radius-3 ball fit in 64 bits, those one step
        # further do not; with S1 = S2 = {1} only the ball itself is
        # multiplied, so the violator is reported instead of an overflow
        code, data, _ = run_json(
            capsys, "check", "--group", "sl2z:1,1048576,0,1,1,0,1048576,1",
            "--s1", "1", "--s2", "1", "--radius", "3",
        )
        assert code == 1 and data["verdict"]["kind"] == "violator"

    def test_certificate_chain_never_reads_edges(self, capsys, monkeypatch):
        def unread(patch):
            raise AssertionError("edges read")

        monkeypatch.setattr(CayleyPatch, "edges", property(unread))
        group = ["--group", "free:3", "--s1", "1,a", "--s2", "1,b,c"]
        assert run(capsys, "check", *group, "--radius", "2")[0] == 0
        assert run(capsys, "decompose", *group, "--radius", "2")[0] == 0
        assert run(capsys, "violate", *group, "--max-radius", "2")[0] == 1


class TestCollectorPause:
    """``main`` runs a command with the cyclic garbage collector paused and
    hands the caller back the collector state it had, on every exit."""

    ARGV = {
        0: ["ball", "--group", "free:2", "--radius", "1"],
        1: ["check", "--group", "abelian:1", "--s1", "1,a", "--s2", "1,a", "--radius", "2"],
        2: ["check", "--group", "free:x", "--s1", "1", "--s2", "1", "--radius", "1"],
        3: ["ball", "--group", "free:2", "--radius", "1"],
    }

    @staticmethod
    def call(monkeypatch, argv, enabled, fail=None):
        """main(argv) from a caller whose collector is ``enabled``; returns
        the exit code (or the exception raised), the collector state seen
        inside the command and the state after it."""
        group = cli._group
        inside = []

        def observed(args):
            inside.append(gc.isenabled())
            if fail is not None:
                raise fail
            return group(args)

        monkeypatch.setattr(cli, "_group", observed)
        caller = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                outcome = main(argv)
            except BaseException as exc:
                outcome = exc
            after = gc.isenabled()
        finally:
            (gc.enable if caller else gc.disable)()
        return outcome, inside, after

    @pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_state_restored_on_every_exit_code(self, capsys, monkeypatch, code, enabled):
        fail = RuntimeError("boom") if code == 3 else None
        outcome, inside, after = self.call(monkeypatch, self.ARGV[code], enabled, fail)
        capsys.readouterr()
        assert outcome == code
        assert inside == [False]
        assert after is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
    def test_state_restored_when_an_interrupt_escapes(self, monkeypatch, enabled):
        outcome, inside, after = self.call(
            monkeypatch, self.ARGV[0], enabled, KeyboardInterrupt()
        )
        assert isinstance(outcome, KeyboardInterrupt)
        assert inside == [False]
        assert after is enabled

    CHECK = ["check", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c", "--radius", "2"]
    FREE_CHECK = ["free-check", "--group", "free:3", "--g", "a", "--h", "b", "--max-length", "5"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ball", "--group", "free:2", "--radius", "2"],
            CHECK,
            ["violate", "--group", "abelian:2", "--s1", "1,a", "--s2", "1,b",
             "--max-radius", "3"],
            ["decompose", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c",
             "--radius", "2"],
            ["forest-audit", "--group", "free:3", "--radius", "3", "--samples", "4"],
            ["forest-audit", "--group", "abelian:3", "--radius", "3", "--samples", "4"],
            FREE_CHECK,
            ["report", "--inputs", "check.json", "--freeness", "free.json"],
        ],
        ids=["ball", "check", "violate", "decompose", "forest-audit-tree",
             "forest-audit-walks", "free-check", "report"],
    )
    def test_commands_leave_no_reference_cycle(self, capsys, tmp_path, argv):
        """The pause costs nothing only while paradec's data hold no
        reference cycle: after any command, the collector finds no paradec
        object that reference counting left behind."""
        for name, command in (("check.json", self.CHECK), ("free.json", self.FREE_CHECK)):
            main([*command, "--format", "json"])
            (tmp_path / name).write_text(capsys.readouterr().out)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        gc.collect()
        gc.garbage.clear()
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            main([*argv, "--format", "json"])
            gc.collect()
            left = sorted(
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.startswith("paradec")
            )
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        capsys.readouterr()
        assert left == []

    def test_usage_error_leaves_the_state_alone(self, capsys, monkeypatch):
        outcome, inside, after = self.call(monkeypatch, ["check", "--group", "free:2"], True)
        capsys.readouterr()
        assert isinstance(outcome, SystemExit) and outcome.code == 2
        assert inside == [] and after is True


class TestMalformedReportInput:
    @pytest.fixture
    def check_output(self, capsys):
        code, data, _ = run_json(
            capsys,
            "check",
            "--group",
            "free:2",
            "--s1",
            "1,a",
            "--s2",
            "1,b",
            "--radius",
            "1",
        )
        assert code == 0
        return data

    def test_missing_key_exit_two(self, capsys, tmp_path, check_output):
        del check_output["s1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: missing key 's1'\n"

    def test_mistyped_key_exit_two(self, capsys, tmp_path, check_output):
        check_output["verdict"] = ["certificate"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(check_output))
        code, _, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: malformed input: ")

    def test_freeness_missing_key_exit_two(self, capsys, tmp_path, check_output):
        good = tmp_path / "check.json"
        good.write_text(json.dumps(check_output))
        free = tmp_path / "free.json"
        free.write_text(json.dumps({"free": True, "witness": None}))
        code, _, err = run(
            capsys, "report", "--inputs", str(good), "--freeness", str(free)
        )
        assert code == 2
        assert err == f"error: {free}: missing key 'max_length'\n"

    def test_boolean_union_size_exit_two(self, capsys, tmp_path):
        # cyclic:1 with S1 = S2 = {1}: the union has size 1, which true
        # would pass for
        code, data, _ = run_json(
            capsys, "check", "--group", "cyclic:1", "--s1", "1", "--s2", "1",
            "--radius", "1",
        )
        assert code == 1 and data["verdict"]["union_size"] == 1
        data["verdict"]["union_size"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: union_size True is not an integer\n"

    @pytest.fixture
    def free_output(self, capsys):
        code, data, _ = run_json(
            capsys, "free-check", "--group", "free:2", "--g", "a", "--h", "b",
            "--max-length", "4",
        )
        assert code == 0
        return data

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("max_length", True, "max_length True is not an integer >= 1"),
            ("max_length", 0, "max_length 0 is not an integer >= 1"),
            ("max_length", "12", "max_length '12' is not an integer >= 1"),
            ("witness", ["g"], "witness ['g'] is neither null nor a word"),
            ("free", False, "free False disagrees with witness None"),
            ("free", 1, "free 1 disagrees with witness None"),
        ],
        ids=["length-true", "length-zero", "length-text", "witness-list",
             "free-false", "free-one"],
    )
    def test_malformed_freeness_exit_two(
        self, capsys, tmp_path, check_output, free_output, key, value, message
    ):
        good = tmp_path / "check.json"
        good.write_text(json.dumps(check_output))
        free_output[key] = value
        free = tmp_path / "free.json"
        free.write_text(json.dumps(free_output))
        code, out, err = run(
            capsys, "report", "--inputs", str(good), "--freeness", str(free)
        )
        assert code == 2 and out == ""
        assert err == f"error: {free}: {message}\n"

    def test_freeness_relation_is_read(self, capsys, tmp_path, check_output):
        good = tmp_path / "check.json"
        good.write_text(json.dumps(check_output))
        code, freeness, _ = run_json(
            capsys, "free-check", "--group", "free:2", "--g", "a", "--h", "a",
            "--max-length", "4",
        )
        assert code == 1 and freeness["witness"] == "g h^-1"
        free = tmp_path / "free.json"
        free.write_text(json.dumps(freeness))
        code, report, _ = run_json(
            capsys, "report", "--inputs", str(good), "--freeness", str(free)
        )
        assert code == 0
        assert "> 4 not certified" in report["justification"]

    @pytest.mark.parametrize(
        "witness,reason",
        [
            ("zz q^-1", "witness letter 'zz' is not g, g^-1, h or h^-1"),
            ("g h", "witness 'g h' is not the identity on g = a, h = b"),
            ("g h h^-1 g^-1", "witness 'g h h^-1 g^-1' is not freely reduced"),
            ("g h g^-1 h^-1 g", "witness of 5 letters is not within the length bound 1 to 4"),
            ("", "witness of 0 letters is not within the length bound 1 to 4"),
        ],
        ids=["letters", "not-identity", "unreduced", "too-long", "empty"],
    )
    def test_wrong_witness_exit_one(
        self, capsys, tmp_path, check_output, free_output, witness, reason
    ):
        good = tmp_path / "check.json"
        good.write_text(json.dumps(check_output))
        free_output.update(free=False, witness=witness)
        free = tmp_path / "free.json"
        free.write_text(json.dumps(free_output))
        code, out, err = run(
            capsys, "report", "--inputs", str(good), "--freeness", str(free)
        )
        assert code == 1 and out == ""
        assert err == f"verification failed: {free}: {reason}\n"

    def test_golden_witnesses_verify(self, capsys):
        """Each free-check golden file, relation or freeness claim, passes
        its check again, and one of them in a whole report."""
        golden = Path(__file__).parent / "golden"
        for path in sorted(golden.glob("free_check_*_json.out")):
            data = json.loads(path.read_text())
            spec = parse_group_spec(data["group"])
            verify_freeness(
                spec,
                spec.parse_element(data["g"]),
                spec.parse_element(data["h"]),
                freeness_from_jsonable(data),
            )
        code, out, _ = run(
            capsys, "report",
            "--inputs", str(golden / "check_abelian2_r16_json.out"),
            "--freeness", str(golden / "free_check_abelian2_json.out"),
        )
        assert code == 0 and "> 4 not certified" in out

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"group": ', "Expecting value: line 1 column 11 (char 10)"),
            (
                json.dumps({"group": "free:2", "s1": ["1", "a^^2"]}),
                "bad word token 'a^^2' (at position 0)",
            ),
            (
                json.dumps({"group": "free:2", "s1": ["a^9999999"]}),
                "free-group word of 9999999 letters exceeds the bound 1000000",
            ),
            (json.dumps({"group": "free:0"}), "rank must be positive"),
        ],
        ids=["truncated", "token", "overflow", "group"],
    )
    def test_malformed_input_names_the_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_failed_verification_exit_one(self, capsys, tmp_path, check_output):
        phi1 = check_output["verdict"]["phi1"]
        phi1[0][1], phi1[1][1] = phi1[1][1], phi1[0][1]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 1
        assert out == ""
        assert err == f"verification failed: {path}: b^-1 a is not a translate of 1\n"

    @pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
    def test_phi2_domain_differs_exit_one(self, capsys, tmp_path, check_output, row):
        # phi2's domain text is read, not taken from phi1: a row naming
        # another element (with a translate of it) no longer covers phi1's
        # domain
        phi2 = check_output["verdict"]["phi2"]
        phi2[row] = ["a^7", "a^7"]
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 1 and out == ""
        assert err == (
            f"verification failed: {path}: the two assignments cover different domains\n"
        )

    @pytest.mark.parametrize(
        "family,row,image,message",
        [
            # a·1 = a is 1·a, phi1's image of 1
            ("phi1", 3, "a", "assignment is not injective"),
            # 1·b = b is b·1, phi1's image of b
            ("phi2", 0, "b", "images of the two assignments intersect"),
        ],
        ids=["not-injective", "intersect"],
    )
    def test_retargeted_image_exit_one(
        self, capsys, tmp_path, check_output, family, row, image, message
    ):
        """Each image is still a translate of its element, so only the
        images as a whole fail."""
        pair = check_output["verdict"][family][row]
        assert pair[1] != image
        pair[1] = image
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 1 and out == ""
        assert err == f"verification failed: {path}: {message}\n"

    def test_parse_error_comes_before_a_failed_verification(
        self, capsys, tmp_path, check_output
    ):
        """Every file is read before any is verified: a file that would
        fail verification, listed first, does not hide a malformed one."""
        phi1 = check_output["verdict"]["phi1"]
        phi1[0][1], phi1[1][1] = phi1[1][1], phi1[0][1]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(check_output))
        del check_output["s1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(tampered), str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {bad}: missing key 's1'\n"

    def test_group_mismatch_comes_before_a_failed_verification(
        self, capsys, tmp_path, check_output, monkeypatch
    ):
        verified = count_calls(monkeypatch, cli, "verify_certificate")
        phi1 = check_output["verdict"]["phi1"]
        phi1[0][1], phi1[1][1] = phi1[1][1], phi1[0][1]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(check_output))
        _, data, _ = run_json(
            capsys, "check", "--group", "abelian:1", "--s1", "1,a", "--s2", "1,a",
            "--radius", "2",
        )
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--inputs", str(tampered), str(other))
        assert code == 2 and out == ""
        assert err == f"error: {other}: group abelian:1 differs from free:2 in {tampered}\n"
        assert verified == []

    @pytest.mark.parametrize(
        "row,message",
        [
            (7, "phi2 is not a list of [element, image] text pairs"),
            (["a", "b", "c"], "phi2 is not a list of [element, image] text pairs"),
            (["a", "q"], "unknown generator symbol 'q'"),
            ([7, "a"], "phi2 is not a list of [element, image] text pairs"),
        ],
        ids=["int", "triple", "symbol", "int-text"],
    )
    def test_malformed_phi2_row_exit_two(self, capsys, tmp_path, check_output, row, message):
        check_output["verdict"]["phi2"][1] = row
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith(f"{message}\n")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(s1="1a", s2="1b"), "s1 is not a list of element texts"),
            (lambda d: d.update(s2=["1", 2]), "s2 is not a list of element texts"),
            (lambda d: d["verdict"].update(phi1=["ab"] * len(d["verdict"]["phi1"])),
             "phi1 is not a list of [element, image] text pairs"),
            (lambda d: d["verdict"].update(phi1="ab"),
             "phi1 is not a list of [element, image] text pairs"),
            (lambda d: d["verdict"].update(phi2={"1": "b"}),
             "phi2 is not a list of [element, image] text pairs"),
            (lambda d: d["verdict"]["phi1"][0].append("a"),
             "phi1 is not a list of [element, image] text pairs"),
        ],
        ids=["s-strings", "s2-int", "phi1-pair-strings", "phi1-string", "phi2-dict",
             "phi1-triple"],
    )
    def test_certificate_shape_exit_two(self, capsys, tmp_path, check_output, edit, message):
        """A string where a list belongs is not read one character at a
        time: with s1 = "1a" and s2 = "1b" the certificate would verify
        and bound the Tarski number by 4."""
        edit(check_output)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "key,value",
        [("a1", "ab"), ("a2", "a"), ("a1", ["a", None]), ("a2", {"a": 1})],
        ids=["a1-string", "a2-string", "a1-null", "a2-dict"],
    )
    def test_violator_shape_exit_two(self, capsys, tmp_path, key, value):
        code, data, _ = run_json(
            capsys, "check", "--group", "abelian:1", "--s1", "1,a", "--s2", "1,a",
            "--radius", "2",
        )
        assert code == 1 and data["verdict"]["kind"] == "violator"
        data["verdict"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {key} is not a list of element texts\n"

    def test_repeated_domain_element_exit_one(self, capsys, tmp_path, check_output):
        """b·a is a translate of b and in no image, so only the repeated
        domain element b keeps phi1 from being a function."""
        check_output["verdict"]["phi1"].append(["b", "b a"])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 1 and out == ""
        assert err == f"verification failed: {path}: phi1 assigns b more than once\n"

    def test_empty_domain_exit_one(self, capsys, tmp_path, check_output):
        check_output["verdict"].update(phi1=[], phi2=[])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(check_output))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 1 and out == ""
        assert err == f"verification failed: {path}: the domain is empty\n"

    def test_tampered_violator_exit_one(self, capsys, tmp_path):
        code, data, _ = run_json(
            capsys, "check", "--group", "abelian:1", "--s1", "1,a", "--s2", "1,a",
            "--radius", "2",
        )
        assert code == 1 and data["verdict"]["kind"] == "violator"
        data["verdict"]["a1"] = ["a^7"]
        data["verdict"]["union_size"] = 0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "report", "--inputs", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"verification failed: {path}: recorded union size 0")

    def test_violator_input_is_reported(self, capsys, tmp_path):
        _, data, _ = run_json(
            capsys, "check", "--group", "abelian:1", "--s1", "1,a", "--s2", "1,a",
            "--radius", "2",
        )
        path = tmp_path / "violator.json"
        path.write_text(json.dumps(data))
        code, report, _ = run_json(capsys, "report", "--inputs", str(path))
        assert code == 0 and report["upper"] is None

    def test_mixed_groups_exit_two(self, capsys, tmp_path, check_output):
        good = tmp_path / "check.json"
        good.write_text(json.dumps(check_output))
        _, freeness, _ = run_json(
            capsys, "free-check", "--group", "abelian:2", "--g", "a", "--h", "b",
            "--max-length", "4",
        )
        free = tmp_path / "free.json"
        free.write_text(json.dumps(freeness))
        code, out, err = run(
            capsys, "report", "--inputs", str(good), "--freeness", str(free)
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {free}: group abelian:2 differs from free:2 in {good}\n"
        )


class TestFreenessClaims:
    """``report`` decides a ``"free": true`` file instead of taking it on
    trust; the input beside it is a violator on the radius-1 ball of the
    same group with S1 = S2 = {1}."""

    @staticmethod
    def report(capsys, tmp_path, group, g, h, length, *options):
        code, data, _ = run_json(
            capsys, "check", "--group", group, "--s1", "1", "--s2", "1", "--radius", "1"
        )
        assert code == 1
        check = tmp_path / "check.json"
        check.write_text(json.dumps(data))
        free = tmp_path / "free.json"
        free.write_text(json.dumps({
            "group": group, "g": g, "h": h, "max_length": length,
            "free": True, "witness": None,
        }))
        code, out, err = run(
            capsys, "report", "--inputs", str(check), "--freeness", str(free), *options
        )
        return code, out, err, free

    @pytest.mark.parametrize(
        "group,g,h,length,reason",
        [
            ("free:3", "a", "a", 6,
             "free claimed up to length 6, but g = a and h = a commute, "
             "so g h g^-1 h^-1 is a relation"),
            ("free:2", "a b", "a b a b", 4,
             "free claimed up to length 4, but g = a b and h = a b a b commute, "
             "so g h g^-1 h^-1 is a relation"),
            ("abelian:3", "[1,0,0]", "[0,1,0]", 6,
             "free claimed up to length 6, but g = [1, 0, 0] and h = [0, 1, 0] "
             "commute, so g h g^-1 h^-1 is a relation"),
            ("cyclic:12", "a", "a^5", 4,
             "free claimed up to length 4, but g = a and h = a^5 commute, "
             "so g h g^-1 h^-1 is a relation"),
            ("free:2", "a", "a^2", 3,
             "free claimed up to length 3, but 'g g h^-1' is the identity on "
             "g = a, h = a^2"),
            ("sl2z:0,-1,1,0,1,1,0,1", "[[0,-1],[1,0]]", "[[1,1],[0,1]]", 8,
             "free claimed up to length 8, but 'g g g g' is the identity on "
             "g = [[0, -1], [1, 0]], h = [[1, 1], [0, 1]]"),
            ("sl2z", "[[1,2],[0,1]]", "[[1,4],[0,1]]", 4,
             "free claimed up to length 4, but g = [[1, 2], [0, 1]] and "
             "h = [[1, 4], [0, 1]] commute, so g h g^-1 h^-1 is a relation"),
        ],
        ids=["free-equal", "free-powers", "abelian", "cyclic", "commuting-below-4",
             "sl2z-torsion", "sl2z-commuting"],
    )
    def test_refuted_claim_exit_one(self, capsys, tmp_path, group, g, h, length, reason):
        code, out, err, free = self.report(capsys, tmp_path, group, g, h, length)
        assert code == 1 and out == ""
        assert err == f"verification failed: {free}: {reason}\n"

    @pytest.mark.parametrize(
        "group,g,h,length",
        [
            ("free:2", "a", "a^2", 2),
            ("abelian:2", "a", "b", 3),
            ("free:3", "a b", "b a", 40),
            ("sl2z", "[[1,2],[0,1]]", "[[1,0],[2,1]]", 6),
        ],
        ids=["commuting-short", "abelian-short", "free-noncommuting", "sl2z-sanov"],
    )
    def test_true_claim_is_kept(self, capsys, tmp_path, group, g, h, length):
        code, out, _, _ = self.report(capsys, tmp_path, group, g, h, length)
        assert code == 0
        assert f"freeness evidence true up to length {length}" in out

    def test_recount_budget_names_the_file(self, capsys, tmp_path):
        """``--budget`` bounds the recount as it bounds ``free-check``'s
        search; a recount over it is a resource error on that file."""
        sanov = ("sl2z", "[[1,2],[0,1]]", "[[1,0],[2,1]]", 6)
        code, out, err, free = self.report(capsys, tmp_path, *sanov, "--budget", "10")
        assert code == 2 and out == ""
        assert err == (
            f"error: {free}: relations up to length 6 need 2*3^3 - 1 stored "
            "half-words, over the vertex budget 10\n"
        )
        code, out, _, _ = self.report(capsys, tmp_path, *sanov, "--budget", "1000")
        assert code == 0
        assert "freeness evidence true up to length 6" in out

    @pytest.mark.parametrize(
        "options,message",
        [
            (("--budget", "0"), "vertex budget must be positive"),
            (("--budget", "-3"), "vertex budget must be positive"),
        ],
    )
    def test_nonpositive_recount_budget_exit_two(self, capsys, tmp_path, options, message):
        code, out, err, _ = self.report(capsys, tmp_path, "free:2", "a", "b", 4, *options)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_budget_without_freeness_exit_two(self, capsys):
        golden = Path(__file__).parent / "golden"
        code, out, err = run(
            capsys, "report", "--inputs", str(golden / "check_free3_r2_json.out"),
            "--budget", "1000",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --budget bounds the recount of a --freeness claim; give --freeness\n"
        )

    def test_free_model_claim_runs_no_search(self, capsys, monkeypatch):
        """In a free group one commutator decides the claim, so the bench's
        report forms two products and no relation search."""
        import paradec.decomposition as decomposition

        def forbidden(*args, **kwargs):
            raise AssertionError("free_up_to_length called")

        monkeypatch.setattr(decomposition, "free_up_to_length", forbidden)
        golden = Path(__file__).parent / "golden"
        code, out, _ = run(
            capsys, "report",
            "--inputs", str(golden / "check_free3_r2_json.out"),
            "--freeness", str(golden / "free_check_free3_json.out"),
        )
        assert code == 0
        assert out == (golden / "report_free3_text.out").read_text()
