"""Every module-level import in the package is used by its module, every
module-level function and class is loaded somewhere in the package or
exported and is reachable from the command line or the documented library
entry points, every method of its classes is read somewhere, no module
reads a setting from the environment, ``object.__setattr__`` is called
only inside a ``__post_init__``, and no module touches another object's
private attributes.

A name counts as used when the module's code loads it, or when it appears
in an annotation, string annotations included.  ``__init__.py`` imports
only to re-export, and ``from __future__`` imports are directives, so
both are exempt.  A method or property counts as read when ``.name`` is
read anywhere in ``src/`` or ``perfbench/``; dunder methods, which Python
calls itself, are exempt.
"""

import ast
from pathlib import Path

import pytest

import paradec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paradec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def _loaded(node: ast.AST) -> set[str]:
    """Names and attribute names that ``node`` loads, annotations included."""
    return _used_names(node) | {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_definitions_are_loaded_or_exported():
    """A module-level function or class that no package code loads by name
    (as ``name`` or ``module.name``, annotations included) and that
    ``paradec.__all__`` does not export is dead code."""
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        loaded |= _loaded(ast.parse(path.read_text(), filename=str(path)))
    unloaded = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in loaded
        and node.name not in paradec.__all__
    ]
    assert unloaded == []


def _library_block() -> ast.Module:
    """The code block of README's ``## Library entry points`` section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library entry points\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    return ast.parse(code)


def test_definitions_are_reachable():
    """Every module-level function and class is reached from the names
    that ``cli.py`` loads or that README's library block names.  A reached
    definition reaches what its body, or a class's methods, load; a
    module-level assignment reaches what its value loads."""
    bodies: dict[str, list[ast.AST]] = {}
    definitions = []
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                definitions.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bodies.setdefault(name.id, []).append(node)
    library = _library_block()
    roots = _loaded(ast.parse((PACKAGE / "cli.py").read_text())) | _loaded(library)
    roots |= {
        alias.name
        for node in ast.walk(library)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reached, pending = set(), list(roots)
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for body in bodies.get(name, ()):
            pending.extend(_loaded(body) - reached)
    unreached = [f"{file}:{name}" for file, name in definitions if name not in reached]
    assert unreached == []


def _methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of each method or property defined in a class body."""
    return [
        (node.name, item.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def test_methods_are_read():
    """Tests exercise methods, so a read from a test does not count."""
    read = set()
    for directory in ("src", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            read.update(
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    unread = [
        f"{path.name}:{cls}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name in _methods(ast.parse(path.read_text(), filename=str(path)))
        if name not in read
    ]
    assert unread == []


_ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    """Settings reach the package through arguments and CLI options only."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [a.name for a in node.names]
            else:
                continue
            if _ENVIRONMENT_READS.intersection(names):
                readers.append(path.name)
    assert readers == []



def test_frozen_dataclasses_set_attributes_only_in_post_init():
    """A frozen dataclass sets its derived fields in ``__post_init__``; a
    fact built later, on first read, is a ``functools.cached_property``."""
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
            for node in ast.walk(function)
        }
        offenders.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"
            and id(node) not in allowed
        )
    assert offenders == []


def test_private_attributes_are_touched_only_through_self():
    """A ``_``-prefixed attribute is read or written only on ``self`` or
    ``cls``: a fact one object owns is not kept on another.  Dunder names,
    which Python defines for every object, are exempt."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders.extend(
            f"{path.name}:{node.lineno}:{ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        )
    assert offenders == []
