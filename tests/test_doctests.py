import doctest
import importlib
import pkgutil

import pytest

import permotzkin

MODULES = ["permotzkin"] + [
    f"permotzkin.{info.name}" for info in pkgutil.iter_modules(permotzkin.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
