"""The bench tracer (``perfbench/tracer.py``) wraps paradec functions and
methods by name, swaps ``paradec.cli``'s module globals ``json`` and
``main``, and reads the matching's input by parameter name.  A rename that
breaks one of these must fail here rather than in every bench operation.
The tracer's tables are read from its source, not imported, so nothing
under ``perfbench/`` runs or changes.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()


def test_tables_found():
    assert TABLES["FUNCTIONS"] and TABLES["METHODS"]


@pytest.mark.parametrize(
    "module,attr", TABLES["FUNCTIONS"].values(), ids=list(TABLES["FUNCTIONS"])
)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module,cls,attr", TABLES["METHODS"].values(), ids=list(TABLES["METHODS"])
)
def test_traced_method_resolves(module, cls, attr):
    assert callable(getattr(getattr(importlib.import_module(module), cls), attr))


def test_cli_module_globals():
    cli = importlib.import_module("paradec.cli")
    assert cli.json is json
    assert callable(cli.main)


def test_cli_writes_through_json_dumps(capsys, monkeypatch, tmp_path):
    """Every document, printed or dumped, goes through ``json.dumps`` of
    ``cli.json``, so the tracer's ``cli.json_encode`` span times all of
    them."""
    cli = importlib.import_module("paradec.cli")
    seen = []

    class Recording:
        def __getattr__(self, name):
            return getattr(json, name)

        @staticmethod
        def dumps(obj, **options):
            seen.append(options)
            return json.dumps(obj, **options)

    monkeypatch.setattr(cli, "json", Recording())
    argv = ["ball", "--group", "free:2", "--radius", "1", "--format", "json",
            "--dump", str(tmp_path / "ball.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert seen == [{"sort_keys": True}] * 2


def test_matching_input_is_the_first_parameter_adjacency():
    """The tracer counts ``matching.left_vertices`` and
    ``matching.adjacency_entries`` from ``args[0]`` or
    ``kwargs["adjacency"]`` of each ``hopcroft_karp`` call; another name
    or position would count nothing."""
    matching = importlib.import_module("paradec.matching")
    first = next(iter(inspect.signature(matching.hopcroft_karp).parameters))
    assert first == "adjacency"
