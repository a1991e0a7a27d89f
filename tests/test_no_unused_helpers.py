"""Every helper in `src/rankmk` has a caller or is public.

The test parses each module with `ast` and lists every module-level
function and every method other than a dunder.  A definition passes when
its name is referenced somewhere in `src/rankmk`, as a name or as an
attribute, or when `rankmk/__init__.py` exports it.  The match is by name
only: `x.below(...)` counts for every method called `below`, and a
recursive call counts for its own function.  So the test catches dead
names, not dead call sites.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rankmk"

# Definitions kept without a caller in the package, each for its reason.
ALLOWED = {
    # The SplitMix64 contract's reference draw: `below_many` is tested
    # against it, word for word.
    "simulate.SplitMix64.below",
    # argparse calls it on a usage error; the override makes that exit 4.
    "cli._Parser.error",
    # The code-spec writer, the inverse of `code_spec_from_text`, which the
    # round-trip tests pin.
    "codes.code_spec_to_text",
    # rankbench/layers.py TARGETS rebinds it; delete it with ROADMAP item 1.
    "matrix.rref_with_transform",
}


def _definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_helper_has_a_caller_or_is_exported():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = {
        qualname
        for module, tree in trees.items()
        for qualname, name in _definitions(module, tree)
        if name not in referenced and name not in exported
    }
    assert unused - ALLOWED == set()
    assert ALLOWED <= unused, "an allowed name now has a caller: drop it from ALLOWED"
