"""Rules on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "taildep"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may be one
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names(node):
    """Every name the subtree of ``node`` refers to: bare names, attribute
    names and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_helper_is_used():
    # no helpers that nothing calls: each private module-level function or
    # class is referenced in the package somewhere besides its own body
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and used[node.name] == Counter(_names(node))[node.name]
    ]
    assert unused == []


def test_only_coeffs_names_the_subset_function_slots():
    # SubsetFn's stored form is private to coeffs; other modules read it
    # through _numerators(), so the choice of representation stays there
    slots = {"_nums", "_den", "_values"}
    found = [
        f"{path.name}:{sub.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "coeffs.py"
        for sub in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        # attribute names, bare names and strings such as getattr(fn, "_nums")
        for name in (
            getattr(sub, "attr", None), getattr(sub, "id", None), getattr(sub, "value", None)
        )
        if isinstance(name, str) and name in slots
    ]
    assert found == []


def test_no_package_relative_import_inside_a_function():
    # a deferred `from .x import` hides an import cycle; the layers import
    # each other at module level only, lowest first
    found = [
        f"{path.name}:{sub.lineno} from .{sub.module or ''}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.ImportFrom) and sub.level > 0
    ]
    assert found == []
