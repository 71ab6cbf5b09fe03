"""Property test of the exit-code contract over CLI argv drawn from small
grammars: group specs, words, translating sets, radii, lengths, budgets
and malformed ``report`` inputs.

Every call must exit 0, 1 or 2 (3 is an internal error, a bug); exit 1
must come with a well-formed negative payload; stderr must never hold a
traceback.  Sizes stay small (radius and max radius <= 3, max length <= 6)
so the whole run takes seconds.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from paradec.cli import main
from paradec.groups import GroupSpec

GOLDEN = Path(__file__).resolve().parent / "golden"

# group spec -> its generator names; each draw is rarely malformed
GROUPS = {
    "free:1": "a", "free:2": "ab", "free:3": "abc", "abelian:1": "a",
    "abelian:2": "ab", "abelian:3": "abc", "cyclic:1": "a", "cyclic:2": "a", "cyclic:7": "a",
    "sl2z": "AB", "sl2z:0,-1,1,0,1,1,0,1": "AB",
}
BAD_GROUPS = ["sl2z:1,1,1,1", "sl2z:1,2,3", "free:0", "cyclic:0", "abelian:x", "foo:2", ""]
BAD_TOKENS = ["q", "a^", "x^y", "[1, 0]", "[[1,2],[0,1]]", "a^99999999999", "a^64 b^-64"]
BAD_GENS = [["--gens", "a=a,d=a b"], ["--gens", "x=q"], ["--gens", "a"]]
BAD_BUDGETS = ["0", "1", "5", "40"]


def rarely(draw, bad: list, good):
    """``good`` nineteen times in twenty, otherwise one of ``bad``."""
    return draw(st.sampled_from(bad)) if draw(st.integers(0, 19)) == 0 else good


@st.composite
def words(draw, names: str) -> str:
    tokens = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from("1" + names))
        exponent = draw(st.sampled_from(["", "", "^-1", "^2", "^-2", "^0"]))
        tokens.append(name if name == "1" else name + exponent)
    return rarely(draw, BAD_TOKENS, " ".join(tokens))


FORMATS = st.sampled_from(["text", "json"])

REPORT_KEYS = ["group", "s1", "s2", "verdict", "kind", "phi1", "phi2", "a1", "a2",
               "union_size", "witness", "free", "g", "h"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.sampled_from(
        ["", "a", "1", "free:3", "free:2", "certificate", "violator", "[1, 0]", "g h"]
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(REPORT_KEYS), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def report_inputs(draw):
    """Text of a report input: a genuine ``check`` output, one whose
    certificate maps two elements to swapped images, one with a key dropped
    or a value replaced, arbitrary JSON, or not JSON at all."""
    base = json.loads((GOLDEN / "check_free3_r2_json.out").read_text())
    kind = draw(st.sampled_from(["valid", "tamper", "drop", "replace", "random", "broken"]))
    if kind == "tamper":
        pairs = base["verdict"][draw(st.sampled_from(["phi1", "phi2"]))]
        i = draw(st.integers(0, len(pairs) - 2))
        j = draw(st.integers(i + 1, len(pairs) - 1))
        pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    if kind == "broken":
        return draw(st.sampled_from(["", "{", "not json", "[1, 2"]))
    if kind == "random":
        return json.dumps(draw(JSON_VALUES))
    if kind in ("drop", "replace"):
        key = draw(st.sampled_from(sorted(base)))
        target = base
        if key == "verdict" and draw(st.booleans()):
            target = base["verdict"]
            key = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return json.dumps(base)


COMMANDS = ["ball", "check", "violate", "decompose", "free-check", "forest-audit", "report"]


@st.composite
def argvs(draw, commands=COMMANDS, groups=sorted(GROUPS)):
    """One CLI call, and the texts of the files it reads by name."""
    command = draw(st.sampled_from(commands))
    fmt = ["--format", draw(FORMATS)]
    if command == "report":
        files = {f"in{i}.json": draw(report_inputs()) for i in range(draw(st.integers(1, 2)))}
        argv = ["report", "--inputs", *files]
        if draw(st.booleans()):
            files["free.json"] = draw(st.sampled_from([
                (GOLDEN / "free_check_free3_json.out").read_text(),
                json.dumps(draw(JSON_VALUES)),
            ]))
            argv += ["--freeness", "free.json"]
        return argv + fmt, command, files
    group = draw(st.sampled_from(groups))
    names = GROUPS[group]
    argv = [command, "--group", rarely(draw, BAD_GROUPS, group)]
    argv += rarely(draw, BAD_GENS, [])
    argv += rarely(draw, [["--budget", b] for b in BAD_BUDGETS], [])
    sets = st.lists(words(names), min_size=1, max_size=3, unique=True).map(",".join)
    if command in ("check", "violate", "decompose") or (
        command == "forest-audit" and draw(st.integers(0, 3)) == 0
    ):
        argv += ["--s1", draw(sets), "--s2", draw(sets)]
    smallest = 1 if command == "forest-audit" else 0  # radius 0 has no interior
    radius = str(rarely(draw, [-1], draw(st.integers(smallest, 3))))
    if command == "violate":
        argv += ["--max-radius", radius]
    elif command == "free-check":
        argv += ["--g", draw(words(names)), "--h", draw(words(names)),
                 "--max-length", str(rarely(draw, [-1, 0], draw(st.integers(1, 6))))]
    else:
        argv += ["--radius", radius]
    if command == "forest-audit":
        argv += ["--samples", str(rarely(draw, [0], draw(st.integers(1, 2)))),
                 "--seed", str(draw(st.integers(0, 3))),
                 "--max-set-size", str(rarely(draw, [0], draw(st.integers(1, 3))))]
    return argv + fmt, command, {}


def run_in(directory: Path, argv: list, files: dict) -> tuple[int, str, str]:
    for name, text in files.items():
        (directory / name).write_text(text)
    argv = [str(directory / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_negative_payload(command: str, fmt: str, out: str, err: str) -> None:
    if command == "report":
        assert out == "" and err.startswith("verification failed: ")
        return
    assert out.strip()
    if fmt == "text":
        return
    data = json.loads(out)
    if command in ("check", "decompose"):
        assert data["verdict"]["kind"] == "violator"
        assert data["verdict"]["union_size"] < len(data["verdict"]["a1"]) + len(
            data["verdict"]["a2"]
        )
    elif command == "violate":
        assert (data["found"], data["radius"], data["violator"]) == (False, None, None)
    elif command == "free-check":
        assert data["free"] is False and isinstance(data["witness"], str)
    elif command == "forest-audit":
        assert data["all_passed"] is False
        assert not all(audit["all_passed"] for audit in data["audits"])
    else:
        raise AssertionError(f"{command} has no negative outcome")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call=argvs())
def test_exit_code_contract(call):
    argv, command, files = call
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = run_in(Path(directory), argv, files)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 1:
        assert_negative_payload(command, argv[-1], out, err)
    if code == 2:
        assert out == ""
        assert err


def translates_by_multiply(self, elements, s):
    return [self.multiply(x, s) for x in elements]


@pytest.mark.parametrize("model", ["free", "abelian", "cyclic", "sl2z"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_column_products_keep_the_output(model, data):
    """A call prints the same stdout and exits with the same code when every
    column is formed by ``multiply``, one element at a time."""
    groups = [group for group in sorted(GROUPS) if group.startswith(model)]
    argv, _, files = data.draw(argvs(["check", "decompose", "violate"], groups))
    with tempfile.TemporaryDirectory() as directory:
        code, out, _ = run_in(Path(directory), argv, files)
        with mock.patch.object(GroupSpec, "translates", translates_by_multiply):
            by_multiply = run_in(Path(directory), argv, files)
    assert (code, out) == by_multiply[:2], argv
