"""Smoke tests for the example scripts: they must compile and expose main().

The examples simulate millions of users, so executing them is left to the
nightly ``examples`` CI job (each script run under a timeout); these tests
catch syntax errors, broken imports and missing entry points.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLE_FILES}
    assert "quickstart.py" in names
    assert len(names) >= 3  # the deliverable: at least three runnable examples


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda path: path.name)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    function_names = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert "main" in function_names, f"{path.name} must define main()"
    has_guard = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body
    )
    assert has_guard, f"{path.name} must have an __main__ guard"


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    """Importing the module (without running main) must succeed."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
