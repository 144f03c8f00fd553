"""Invariant checks must still run under `python -O`, which strips `assert`
statements; so the package raises explicit errors and holds no asserts."""

import ast
from pathlib import Path

import glstab


def test_package_has_no_assert_statements():
    root = Path(glstab.__file__).resolve().parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 10, f"expected the whole package under {root}"
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"
