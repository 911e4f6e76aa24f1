"""The package's invariants are real checks, not ``assert`` statements,
which ``python -O`` strips."""

import ast
from pathlib import Path

import permotzkin

MODULES = sorted(Path(permotzkin.__file__).parent.glob("*.py"))


def test_no_module_of_the_package_asserts():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), path.name))
        if isinstance(node, ast.Assert)
    ]
    assert MODULES
    assert asserts == []
