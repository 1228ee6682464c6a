"""The docstring examples of every patlab module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import patlab

MODULES = ["patlab"] + sorted(
    info.name for info in pkgutil.iter_modules(patlab.__path__, "patlab."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
