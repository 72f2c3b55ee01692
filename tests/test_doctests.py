"""Run the doctests embedded in every module of the package."""

import doctest
import importlib
import pkgutil

import pytest

import swfloer

MODULES = ["swfloer"] + sorted(
    f"swfloer.{m.name}" for m in pkgutil.iter_modules(swfloer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
