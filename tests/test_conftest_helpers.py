"""Every shared test helper is defined once, in `tests/conftest.py`, and used.

The test parses each module under tests/ with `ast`.  A name conftest
defines is one it binds at its top level by `def`, `class` or assignment.
No test module may bind such a name at its own top level, since a local
copy (a fixture, say) would shadow the shared one.  And each such name must
be referenced somewhere under tests/ other than at its definition: as a
name, an import from conftest, or a parameter, which is how a test
requests a fixture.  As in `test_no_unused_helpers.py`, the match is
by name only.  No module imports from a `test_*` module, at any depth of
its body: a helper two test modules share belongs in conftest.
"""

import ast
from pathlib import Path

TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(Path(__file__).parent.glob("*.py"))}


def _bound(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _referenced(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.ImportFrom) and node.module == "conftest":
            yield from (alias.name for alias in node.names)


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


SHARED = set(_bound(TREES["conftest.py"]))


def test_no_test_module_redefines_a_conftest_name():
    redefined = {
        (module, name) for module, tree in TREES.items() if module != "conftest.py" for name in _bound(tree)
    }
    assert {(module, name) for module, name in redefined if name in SHARED} == set()


def test_no_test_module_imports_another():
    imported = {
        (module, name)
        for module, tree in TREES.items()
        for name in _imported(tree)
        if any(part.startswith("test_") for part in name.split("."))
    }
    assert imported == set()


def test_every_conftest_helper_has_a_user():
    referenced = {name for tree in TREES.values() for name in _referenced(tree)}
    assert SHARED - referenced == set()
