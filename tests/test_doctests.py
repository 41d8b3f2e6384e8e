"""Run every docstring example in the library as a test."""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _iter_modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


@pytest.mark.parametrize("name", sorted(_iter_modules()))
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {name}"
