"""The mutants of ``mutants.py`` still apply to the sources and name tests
that exist.

Only the texts and the test names are checked here, in milliseconds;
``run_mutants.py`` runs the tests under each mutant.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_old_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    # a mutant that can be killed names the tests that kill it
    assert bool(mutant.tests) != bool(mutant.equivalent)


def _defined_tests(path: Path) -> set[str]:
    """The node ids, after ``path::`` and without parameters, of the
    functions and the class methods defined in the test file ``path``."""
    defined = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.ClassDef):
            defined.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return defined


def test_every_named_test_is_defined():
    """A renamed or deleted test shows here, not only as a collection error
    when ``run_mutants.py`` runs the mutant."""
    unresolved = []
    for mutant in MUTANTS:
        for test in mutant.tests:
            file, _, name = test.partition("::")
            if name.split("[", 1)[0] not in _defined_tests(ROOT / file):
                unresolved.append(f"{mutant.name}: {test}")
    assert unresolved == []
