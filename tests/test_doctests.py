"""The docstring examples of every finsplice module, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import finsplice

# Importing `finsplice.__main__` runs the command line, so it is left out.
MODULES = sorted(
    f"finsplice.{info.name}" for info in pkgutil.iter_modules(finsplice.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["finsplice", *MODULES])
def test_docstring_examples(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
