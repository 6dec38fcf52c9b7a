"""Every name a ``repro`` module exports in ``__all__`` exists.

A deletion that forgets a re-export leaves a name that ``from m import *``
and the documentation promise but that raises on access.  Modules are
discovered by walking the package, as in ``test_doctests.py``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES_WITH_ALL = sorted(
    name
    for name in [
        "repro",
        *(info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")),
    ]
    if hasattr(importlib.import_module(name), "__all__")
)


def test_the_walk_finds_the_packages():
    assert {"repro", "repro.protocols", "repro.sim", "repro.baselines"} <= set(
        MODULES_WITH_ALL
    )


@pytest.mark.parametrize("module_name", MODULES_WITH_ALL)
def test_every_all_entry_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names missing attributes"
