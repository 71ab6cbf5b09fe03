"""Golden stdout: fixed CLI calls must print the same bytes as when frozen.

Each case is (name, expected exit code, argv); its stdout is stored as
``tests/golden/<name>.out``.  ``DUMPS`` cases compare a file that a
command writes, byte for byte.  The ``report`` cases read earlier cases' JSON
files as their inputs, so cases are frozen in list order.  A JSON case that
differs names the first key path whose value differs, or says the
difference is in the layout only.  ``DIGESTS`` cases, the radius-6 chain
that is too large to keep as files, are compared by the sha256 digest of
their stdout, listed in ``tests/golden/free3_r6.sha256``.  ``DUMP_DIGESTS``
cases, radius-5 ball dumps that pin the vertex order of a free basis, are
compared by the digest of the file written, listed in
``tests/golden/ball_r5_dumps.sha256``.  To refreeze every golden file and
digest after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from paradec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_A_POWERS = ",".join(["1", "a"] + [f"a^{k}" for k in range(2, 9)])
_B_POWERS = ",".join(["1", "b"] + [f"b^{k}" for k in range(2, 9)])
_FREE3 = ["--group", "free:3", "--s1", "1,a", "--s2", "1,b,c", "--radius", "3"]
_ABELIAN2_R16 = ["check", "--group", "abelian:2", "--s1", "1,a", "--s2", "1,b,a b",
                 "--radius", "16"]
_VIOLATE_POWERS = ["violate", "--group", "abelian:2", "--s1", _A_POWERS, "--s2",
                   _B_POWERS, "--max-radius", "16"]
_BALL = ["ball", "--group", "free:3", "--radius", "3"]
_AUDIT = ["forest-audit", "--group", "free:3", "--radius", "3", "--samples", "4",
          "--seed", "7"]
# Cayley graphs with cycles, so every sample runs Wilson's walk.
_AUDIT_ABELIAN3 = ["forest-audit", "--group", "abelian:3", "--radius", "4", "--samples",
                   "5", "--seed", "3"]
_AUDIT_TRIANGLES = ["forest-audit", "--group", "free:2", "--gens", "a=a,b=b,c=a b",
                    "--radius", "4", "--samples", "5", "--seed", "2"]
_FREE_CHECK = ["free-check", "--group", "free:3", "--g", "a", "--h", "b",
               "--max-length", "6"]
_FREE_CHECK_COMMUTING = ["free-check", "--group", "abelian:2", "--g", "a", "--h", "b",
                         "--max-length", "6"]
_FREE_CHECK_TORSION = ["free-check", "--group", "sl2z:0,-1,1,0,1,1,0,1", "--g", "A",
                       "--h", "B", "--max-length", "8"]
_FREE_CHECK_INVERSE = ["free-check", "--group", "free:2", "--g", "a b", "--h", "b^-1 a^-1",
                       "--max-length", "4"]
_VIOLATE_NONE = ["violate", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c",
                 "--max-radius", "3"]
_VIOLATE_EARLY = ["violate", "--group", "abelian:2", "--s1", "1,a", "--s2", "1,b,a b",
                  "--max-radius", "16"]
_REPORT = ["report", "--inputs", str(GOLDEN / "check_free3_r2_json.out"),
           "--freeness", str(GOLDEN / "free_check_free3_json.out")]
# The m+n = 5 chain on the 937-element radius-4 ball: a certificate, its
# pieces and the report that re-verifies it from the written JSON.
_FREE3_R4 = ["--group", "free:3", "--s1", "1,a", "--s2", "1,b,c", "--radius", "4"]
_REPORT_R4 = ["report", "--inputs", str(GOLDEN / "check_free3_r4_json.out"),
              "--freeness", str(GOLDEN / "free_check_free3_json.out")]
_DECOMPOSE_SL2Z = ["decompose", "--group", "sl2z", "--s1", "1,A", "--s2", "1,B",
                   "--radius", "2"]
# Certificates whose images are not one letter from their sources: free
# translators of two letters, a derived generator c = a b, and an abelian
# certificate with translators up to a^8.
_DECOMPOSE_SQUARE = ["decompose", "--group", "free:2", "--s1", "1,a^2", "--s2",
                     "1,b,a b", "--radius", "4"]
_DECOMPOSE_INVERSES = ["decompose", "--group", "free:2", "--s1", "1,a^-1", "--s2",
                       "1,b^-1,a^-1 b", "--radius", "4"]
_DECOMPOSE_DERIVED = ["decompose", "--group", "free:2", "--gens", "a=a,b=b,c=a b",
                      "--s1", "1,a", "--s2", "1,b,c", "--radius", "4"]
_ABELIAN2_POWERS_R3 = ["--group", "abelian:2", "--s1", _A_POWERS, "--s2", _B_POWERS,
                       "--radius", "3"]
# Violators on the tree of a free basis: 1, a against 1, a^-1 fails on the
# radius-4 ball and first at radius 1; a against b, b^-1 first at radius 2.
_FREE2_INVERSE_PAIR = ["--group", "free:2", "--s1", "1,a", "--s2", "1,a^-1"]
_VIOLATE_FREE2_LETTERS = ["violate", "--group", "free:2", "--s1", "a", "--s2", "b,b^-1",
                          "--max-radius", "4"]
# A certificate over the basis letters in swapped order.
_CHECK_FREE2_SWAPPED = ["check", "--group", "free:2", "--gens", "a=b,b=a", "--s1", "1,a",
                        "--s2", "1,b,b^-1", "--radius", "3"]

CASES = [
    ("check_abelian2_r16_json", 1, [*_ABELIAN2_R16, "--format", "json"]),
    ("check_abelian2_r16_text", 1, [*_ABELIAN2_R16, "--format", "text"]),
    ("violate_abelian2_powers_json", 0, [*_VIOLATE_POWERS, "--format", "json"]),
    ("violate_abelian2_powers_text", 0, [*_VIOLATE_POWERS, "--format", "text"]),
    ("decompose_free3_r3_json", 0, ["decompose", *_FREE3, "--format", "json"]),
    ("decompose_free3_r3_text", 0, ["decompose", *_FREE3, "--format", "text"]),
    ("ball_free3_r3_json", 0, [*_BALL, "--format", "json"]),
    ("ball_free3_r3_text", 0, [*_BALL, "--format", "text"]),
    ("forest_audit_free3_r3_json", 0, [*_AUDIT, "--format", "json"]),
    ("forest_audit_free3_r3_text", 0, [*_AUDIT, "--format", "text"]),
    ("forest_audit_abelian3_r4_json", 1, [*_AUDIT_ABELIAN3, "--format", "json"]),
    ("forest_audit_abelian3_r4_text", 1, [*_AUDIT_ABELIAN3, "--format", "text"]),
    ("forest_audit_free2_triangles_r4_json", 1, [*_AUDIT_TRIANGLES, "--format", "json"]),
    ("free_check_free3_json", 0, [*_FREE_CHECK, "--format", "json"]),
    ("free_check_free3_text", 0, [*_FREE_CHECK, "--format", "text"]),
    (
        "check_free3_r2_json",
        0,
        ["check", "--group", "free:3", "--s1", "1,a", "--s2", "1,b,c", "--radius", "2",
         "--format", "json"],
    ),
    ("report_free3_json", 0, [*_REPORT, "--format", "json"]),
    ("report_free3_text", 0, [*_REPORT, "--format", "text"]),
    ("free_check_abelian2_json", 1, [*_FREE_CHECK_COMMUTING, "--format", "json"]),
    ("free_check_abelian2_text", 1, [*_FREE_CHECK_COMMUTING, "--format", "text"]),
    ("free_check_sl2z_torsion_json", 1, [*_FREE_CHECK_TORSION, "--format", "json"]),
    ("free_check_sl2z_torsion_text", 1, [*_FREE_CHECK_TORSION, "--format", "text"]),
    ("free_check_free2_inverse_json", 1, [*_FREE_CHECK_INVERSE, "--format", "json"]),
    ("free_check_free2_inverse_text", 1, [*_FREE_CHECK_INVERSE, "--format", "text"]),
    ("violate_free3_none_json", 1, [*_VIOLATE_NONE, "--format", "json"]),
    ("violate_free3_none_text", 1, [*_VIOLATE_NONE, "--format", "text"]),
    ("violate_abelian2_early_json", 0, [*_VIOLATE_EARLY, "--format", "json"]),
    ("violate_abelian2_early_text", 0, [*_VIOLATE_EARLY, "--format", "text"]),
    ("check_free3_r4_json", 0, ["check", *_FREE3_R4, "--format", "json"]),
    ("check_free3_r4_text", 0, ["check", *_FREE3_R4, "--format", "text"]),
    ("decompose_free3_r4_json", 0, ["decompose", *_FREE3_R4, "--format", "json"]),
    ("decompose_free3_r4_text", 0, ["decompose", *_FREE3_R4, "--format", "text"]),
    ("report_free3_r4_json", 0, [*_REPORT_R4, "--format", "json"]),
    ("report_free3_r4_text", 0, [*_REPORT_R4, "--format", "text"]),
    ("decompose_sl2z_r2_json", 0, [*_DECOMPOSE_SL2Z, "--format", "json"]),
    ("decompose_free2_square_r4_json", 0, [*_DECOMPOSE_SQUARE, "--format", "json"]),
    ("decompose_free2_inverses_r4_json", 0, [*_DECOMPOSE_INVERSES, "--format", "json"]),
    ("decompose_free2_derived_r4_json", 0, [*_DECOMPOSE_DERIVED, "--format", "json"]),
    ("check_abelian2_powers_r3_json", 0,
     ["check", *_ABELIAN2_POWERS_R3, "--format", "json"]),
    ("decompose_abelian2_powers_r3_json", 0,
     ["decompose", *_ABELIAN2_POWERS_R3, "--format", "json"]),
    ("check_free2_inverse_pair_r4_json", 1,
     ["check", *_FREE2_INVERSE_PAIR, "--radius", "4", "--format", "json"]),
    ("check_free2_inverse_pair_r4_text", 1,
     ["check", *_FREE2_INVERSE_PAIR, "--radius", "4", "--format", "text"]),
    ("violate_free2_inverse_pair_json", 0,
     ["violate", *_FREE2_INVERSE_PAIR, "--max-radius", "4", "--format", "json"]),
    ("violate_free2_inverse_pair_text", 0,
     ["violate", *_FREE2_INVERSE_PAIR, "--max-radius", "4", "--format", "text"]),
    ("violate_free2_letters_json", 0, [*_VIOLATE_FREE2_LETTERS, "--format", "json"]),
    ("violate_free2_letters_text", 0, [*_VIOLATE_FREE2_LETTERS, "--format", "text"]),
    ("check_free2_swapped_r3_json", 0, [*_CHECK_FREE2_SWAPPED, "--format", "json"]),
    ("check_free2_swapped_r3_text", 0, [*_CHECK_FREE2_SWAPPED, "--format", "text"]),
]

# Files written by a command rather than printed: (golden file name, argv
# without the output path).  The command writes to the path appended last.
DUMPS = [
    ("ball_free2_r2_dump.json", ["ball", "--group", "free:2", "--radius", "2", "--dump"]),
]


# The m+n = 5 chain on the 23,437-element radius-6 ball of free:3, the one
# the tarski-free3 benchmark replays; the check alone prints 2 MB, so each
# stdout is kept as its sha256 digest.  The report reads the check's output,
# written to the directory the cases run in ("{dir}" in its argv).
_FREE3_R6 = ["--group", "free:3", "--s1", "1,a", "--s2", "1,b,c"]
# The forest-free3 benchmark's audit, whose a-edge contraction is a tree,
# and one on free:2 with c = ab, whose contraction has cycles, so every
# sample is a walk; there the degree hypothesis fails (exit 1).
_FOREST_FREE3_R5 = ["--group", "free:3", "--radius", "5", "--samples", "40", "--seed", "1"]
_FOREST_FREE2_ABC_R6 = ["--group", "free:2", "--gens", "a=a,b=b,c=a b", "--radius", "6",
                        "--samples", "40", "--seed", "1"]
# Rank 30 names its generators g1 ... g30, so g1 is a prefix of g12; the
# check prints 217 KB and the decomposition 155 KB.
_FREE30_R2 = ["--group", "free:30", "--s1", "1,g1", "--s2", "1,g2,g12", "--radius", "2"]
DIGESTS = [
    ("check_free3_r6_json", 0, ["check", *_FREE3_R6, "--radius", "6", "--format", "json"]),
    ("decompose_free3_r6_json", 0,
     ["decompose", *_FREE3_R6, "--radius", "6", "--format", "json"]),
    ("violate_free3_r6_json", 1,
     ["violate", *_FREE3_R6, "--max-radius", "6", "--format", "json"]),
    ("report_free3_r6_json", 0,
     ["report", "--inputs", "{dir}/check_free3_r6_json.out",
      "--freeness", str(GOLDEN / "free_check_free3_json.out"), "--format", "json"]),
    ("forest_audit_free3_r5_json", 0,
     ["forest-audit", *_FOREST_FREE3_R5, "--format", "json"]),
    ("forest_audit_free2_abc_r6_text", 1, ["forest-audit", *_FOREST_FREE2_ABC_R6]),
    ("check_free30_r2_json", 0, ["check", *_FREE30_R2, "--format", "json"]),
    ("decompose_free30_r2_json", 0, ["decompose", *_FREE30_R2, "--format", "json"]),
]
DIGEST_FILE = GOLDEN / "free3_r6.sha256"

# Radius-5 ball dumps over a free basis, its letters in standard and in
# swapped order: the vertex order that every index in a certificate,
# decomposition and forest audit refers to.
DUMP_DIGESTS = [
    ("ball_free3_r5_dump.json", ["ball", "--group", "free:3", "--radius", "5", "--dump"]),
    ("ball_free2_swapped_r5_dump.json",
     ["ball", "--group", "free:2", "--gens", "a=b,b=a", "--radius", "5", "--dump"]),
]
DUMP_DIGEST_FILE = GOLDEN / "ball_r5_dumps.sha256"


def run_case(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def run_dump(argv, directory: Path, name: str) -> bytes:
    path = directory / name
    code, _ = run_case([*argv, str(path)])
    assert code == 0
    return path.read_bytes()


def digest_cases(directory: Path) -> dict:
    """Run the ``DIGESTS`` cases in list order, each stdout written to
    ``directory``; name -> (exit code, sha256 hex digest of stdout)."""
    found = {}
    for name, _, argv in DIGESTS:
        code, out = run_case([arg.replace("{dir}", str(directory)) for arg in argv])
        data = out.encode()
        (directory / f"{name}.out").write_bytes(data)
        found[name] = (code, hashlib.sha256(data).hexdigest())
    return found


def read_digests(path: Path = DIGEST_FILE) -> dict:
    """name -> sha256 hex digest, from ``sha256sum``-style lines."""
    digests = {}
    for line in path.read_text().splitlines():
        digest, name = line.split()
        digests[name.removesuffix(".out")] = digest
    return digests


def first_difference(expected, actual, path: str = "$") -> "str | None":
    """The key path of the first place, in sorted key order, where two
    parsed JSON values differ; None when they are equal."""
    if type(expected) is not type(actual):
        return path
    if isinstance(expected, dict):
        for key in sorted(expected.keys() | actual.keys()):
            inner = f"{path}.{key}"
            if key not in expected or key not in actual:
                return inner
            found = first_difference(expected[key], actual[key], inner)
            if found is not None:
                return found
        return None
    if isinstance(expected, list):
        for i, (want, got) in enumerate(zip(expected, actual)):
            found = first_difference(want, got, f"{path}[{i}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return f"{path}[{min(len(expected), len(actual))}]"
        return None
    return None if expected == actual else path


def assert_same_json_text(name: str, actual: str, expected: str) -> None:
    """Exact text equality, failing with where the JSON first differs, not
    with a string diff of a one-line document."""
    if actual == expected:
        return
    try:
        found = first_difference(json.loads(expected), json.loads(actual))
    except ValueError as exc:
        pytest.fail(f"{name}: output is not one JSON document: {exc}", pytrace=False)
    where = "layout only" if found is None else f"first difference at {found}"
    pytest.fail(f"{name} differs from its golden file: {where}", pytrace=False)


@pytest.mark.parametrize("name,expect_rc,argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(name, expect_rc, argv):
    code, out = run_case(argv)
    assert code == expect_rc
    expected = (GOLDEN / f"{name}.out").read_text()
    if name.endswith("_json"):
        assert_same_json_text(name, out, expected)
    else:
        assert out == expected


@pytest.mark.parametrize("name,argv", DUMPS, ids=[d[0] for d in DUMPS])
def test_dump_matches_golden(name, argv, tmp_path):
    out = run_dump(argv, tmp_path, name).decode()
    assert_same_json_text(name, out, (GOLDEN / name).read_text())


@pytest.fixture(scope="module")
def r6_digests(tmp_path_factory):
    return digest_cases(tmp_path_factory.mktemp("r6"))


@pytest.mark.parametrize("name,expect_rc", [(n, rc) for n, rc, _ in DIGESTS],
                         ids=[d[0] for d in DIGESTS])
def test_stdout_matches_its_digest(r6_digests, name, expect_rc):
    code, digest = r6_digests[name]
    assert code == expect_rc
    assert digest == read_digests()[name], f"{name} differs from its frozen digest"


@pytest.mark.parametrize("name,argv", DUMP_DIGESTS, ids=[d[0] for d in DUMP_DIGESTS])
def test_dump_matches_its_digest(name, argv, tmp_path):
    digest = hashlib.sha256(run_dump(argv, tmp_path, name)).hexdigest()
    assert digest == read_digests(DUMP_DIGEST_FILE)[name]


class _RecordingStdout(io.StringIO):
    """A stdout that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("slice_size", [None, 4096], ids=["default", "4096"])
def test_document_is_written_in_slices(monkeypatch, slice_size):
    """The r4 check's 61 KB document reaches stdout in writes of at most
    ``cli._WRITE_SLICE`` characters, not as one encoded whole, and its
    bytes are the golden file's."""
    from paradec import cli

    if slice_size is not None:
        monkeypatch.setattr(cli, "_WRITE_SLICE", slice_size)
    out = _RecordingStdout()
    with redirect_stdout(out):
        assert main(["check", *_FREE3_R4, "--format", "json"]) == 0
    assert max(out.sizes) <= cli._WRITE_SLICE
    if slice_size is not None:
        assert len(out.sizes) > 2
    assert out.getvalue().encode() == (GOLDEN / "check_free3_r4_json.out").read_bytes()


JSON_GOLDEN = [f"{name}.out" for name, _, _ in CASES if name.endswith("_json")] + [
    name for name, _ in DUMPS
]


@pytest.mark.parametrize("name", JSON_GOLDEN)
def test_json_golden_is_compact_and_sorted(name):
    """Every JSON document is one line with sorted keys and ASCII text: the
    standard encoder's default layout."""
    text = (GOLDEN / name).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_first_difference_names_the_key_path():
    old = {"verdict": {"pairs1": [["1", "a"], ["a", "a^2"]]}, "domain_size": 2}
    assert first_difference(old, json.loads(json.dumps(old, indent=2))) is None
    new = {"verdict": {"pairs1": [["1", "a"], ["a", "b"]]}, "domain_size": 2}
    assert first_difference(old, new) == "$.verdict.pairs1[1][1]"
    assert first_difference(old, {"verdict": old["verdict"]}) == "$.domain_size"
    assert first_difference([1, 2], [1]) == "$[1]"
    assert first_difference([1], ["1"]) == "$[0]"


def test_json_failure_says_layout_only():
    with pytest.raises(pytest.fail.Exception, match="layout only"):
        assert_same_json_text("case", '{"a": [1]}\n', '{\n  "a": [\n    1\n  ]\n}\n')
    with pytest.raises(pytest.fail.Exception, match=r"first difference at \$\.a\[0\]"):
        assert_same_json_text("case", '{"a": [2]}\n', '{"a": [1]}\n')


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, expect_rc, argv in CASES:
        code, out = run_case(argv)
        if code != expect_rc:
            sys.exit(f"{name}: exit {code}, expected {expect_rc}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out", file=sys.stderr)
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in DUMPS:
            (GOLDEN / name).write_bytes(run_dump(argv, Path(scratch), name))
            print(f"wrote {name}", file=sys.stderr)
        lines = []
        for (name, expect_rc, _), (code, digest) in zip(
            DIGESTS, digest_cases(Path(scratch)).values()
        ):
            if code != expect_rc:
                sys.exit(f"{name}: exit {code}, expected {expect_rc}")
            lines.append(f"{digest}  {name}.out\n")
        DIGEST_FILE.write_text("".join(lines))
        print(f"wrote {DIGEST_FILE.name}", file=sys.stderr)
        DUMP_DIGEST_FILE.write_text("".join(
            f"{hashlib.sha256(run_dump(argv, Path(scratch), name)).hexdigest()}  {name}\n"
            for name, argv in DUMP_DIGESTS
        ))
        print(f"wrote {DUMP_DIGEST_FILE.name}", file=sys.stderr)
