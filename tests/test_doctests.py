"""Run the docstring examples of every ``repro`` module as tests.

Keeps the documentation honest: a drifting API breaks the build, not just
the docs.  Modules are discovered by walking the package, so a new module
with ``>>>`` examples is covered without editing a list here.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro


def _has_examples(module) -> bool:
    return any(test.examples for test in doctest.DocTestFinder().find(module))


def _modules_with_examples() -> list[str]:
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    return sorted(
        name for name in names if _has_examples(importlib.import_module(name))
    )


MODULES_WITH_EXAMPLES = _modules_with_examples()


@pytest.mark.parametrize("module_name", MODULES_WITH_EXAMPLES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"


def test_every_listed_module_actually_has_examples():
    """Guard against discovery silently finding nothing (a broken walk)."""
    assert MODULES_WITH_EXAMPLES, "no repro module with doctest examples found"
    assert "repro.core.client" in MODULES_WITH_EXAMPLES
