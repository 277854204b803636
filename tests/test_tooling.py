"""Checks on the package source itself."""

import ast
import pathlib

import augbench

SRC = pathlib.Path(augbench.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so an invariant written as one
    # would silently stop being checked.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
