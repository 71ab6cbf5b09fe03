"""The JSON writer, ``paradec.jsonwriter.JsonWriter``, against the standard
library's encoder (``dumps_oracle``): the same text for every golden JSON
document, the ball dump and random JSON trees under any indented settings,
and the same errors."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from paradec import cli, enumerate_ball, free_group
from paradec.jsonwriter import JsonWriter

from helpers import standard_gens
from oracles import dumps_oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
DOCUMENTS = sorted(
    path for path in GOLDEN.iterdir() if path.name.endswith(("_json.out", ".json"))
)


def write(obj, **options) -> str:
    return json.dumps(obj, cls=JsonWriter, **{"indent": 2, "sort_keys": True, **options})


def test_documents_found():
    assert len(DOCUMENTS) == 20
    assert GOLDEN / "ball_free2_r2_dump.json" in DOCUMENTS


@pytest.mark.parametrize("path", DOCUMENTS, ids=[p.name for p in DOCUMENTS])
def test_golden_documents(path):
    text = path.read_text()
    data = json.loads(text)
    assert write(data) == dumps_oracle(data)
    assert write(data) + "\n" == text


def test_ball_dump_as_built():
    """The dump's payload holds tuples, which both write as lists."""
    spec = free_group(2)
    payload = enumerate_ball(spec, standard_gens(spec), 2).to_jsonable()
    assert write(payload) == dumps_oracle(payload)


def test_paradec_documents_never_defer(monkeypatch):
    """The writer itself writes every document paradec makes; a payload
    that would fall back to the standard encoder (a float, a non-str key)
    fails here."""
    spec = free_group(2)
    payloads = [json.loads(path.read_text()) for path in DOCUMENTS]
    payloads.append(enumerate_ball(spec, standard_gens(spec), 2).to_jsonable())
    expected = [dumps_oracle(payload) for payload in payloads]

    def deferred(self, o):
        raise AssertionError("the document was handed to the standard encoder")

    monkeypatch.setattr(json.JSONEncoder, "encode", deferred)
    assert [write(payload) for payload in payloads] == expected


def test_cli_writes_through_json_dumps(capsys, monkeypatch):
    """Every document goes through ``json.dumps`` of ``cli.json`` with the
    writer, so a wrapper around that function sees all of them."""
    seen = []

    class Recording:
        def __getattr__(self, name):
            return getattr(json, name)

        @staticmethod
        def dumps(obj, **options):
            seen.append(options)
            return json.dumps(obj, **options)

    monkeypatch.setattr(cli, "json", Recording())
    assert cli.main(["ball", "--group", "free:2", "--radius", "1", "--format", "json"]) == 0
    capsys.readouterr()
    assert seen == [{"cls": JsonWriter, "indent": 2, "sort_keys": True}]


_TEXT = st.text() | st.text(st.sampled_from('a"\\/\n\t\r\b\f\x00\x1f\x7f\xe9€\U0001f600'))
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
    | st.floats() | _TEXT
)


def _trees(keys):
    return st.recursive(
        _SCALARS,
        lambda children: st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5),
        max_leaves=40,
    )


_OPTIONS = [
    {},
    {"sort_keys": False},
    {"indent": 4},
    {"indent": 0},
    {"indent": "\t"},
    {"ensure_ascii": False},
    {"separators": (",", ":")},
]


@pytest.mark.parametrize("options", _OPTIONS, ids=[str(o) for o in _OPTIONS])
@settings(max_examples=60, deadline=None)
@given(tree=_trees(_TEXT))
def test_trees_with_string_keys(options, tree):
    assert write(tree, **options) == dumps_oracle(tree, **options)


@settings(max_examples=100, deadline=None)
@given(
    tree=st.one_of(
        _trees(st.integers()),
        _trees(st.floats(allow_nan=False)),
        _trees(st.booleans()),
        st.dictionaries(st.none(), _SCALARS),
    )
)
def test_trees_with_other_keys(tree):
    assert write(tree) == dumps_oracle(tree)


def test_without_indent_the_standard_encoder_writes():
    tree = {"b": [1, 2.5, None], "a": {"x": "\xe9"}}
    assert json.dumps(tree, cls=JsonWriter) == json.dumps(tree)


def test_skipped_keys_and_default():
    tree = {"a": 1, (1, 2): 2, "c": {3, 1}}
    options = {"skipkeys": True, "sort_keys": False, "default": sorted}
    assert write(tree, **options) == dumps_oracle(tree, **options)
    only_skipped = {"a": {(1,): 1}}
    assert write(only_skipped, skipkeys=True) == dumps_oracle(only_skipped, skipkeys=True)


@pytest.mark.parametrize(
    "tree,options",
    [
        ({"a": object()}, {}),
        ([1.0, float("nan")], {"allow_nan": False}),
        ({float("inf"): 1}, {"allow_nan": False}),
        ({(1, 2): 3}, {}),
        ({1: "a", "b": 2}, {}),
    ],
    ids=["default", "nan", "inf-key", "tuple-key", "mixed-keys"],
)
def test_errors_match(tree, options):
    with pytest.raises((TypeError, ValueError)) as expected:
        dumps_oracle(tree, **options)
    with pytest.raises(type(expected.value)) as got:
        write(tree, **options)
    assert str(got.value) == str(expected.value)


def test_cycles_are_reported_as_the_standard_encoder_reports_them():
    cyclic = [1]
    cyclic.append({"a": cyclic})
    with pytest.raises(ValueError) as expected:
        dumps_oracle(cyclic)
    with pytest.raises(ValueError) as got:
        write(cyclic)
    assert str(got.value) == str(expected.value) == "Circular reference detected"
