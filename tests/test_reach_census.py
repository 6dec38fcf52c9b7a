"""Tests for ``benchmarks/reach_census.py``, the stdlib reach census.

The census is a reading aid, not a gate, but its classification decides
which public names look dead, so the three buckets of its report and the
script runner are pinned here on small synthetic inputs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECEIVE = "src/repro/core/server.py:Server.receive"
ESTIMATE = "src/repro/core/server.py:Server.estimate"
ADVANCE = "src/repro/core/server.py:Server.advance_to"
REGISTER = "src/repro/core/server.py:Server.register"


@pytest.fixture
def census():
    """A fresh copy of the census module (it keeps one module-level state)."""
    path = os.path.join(ROOT, "benchmarks", "reach_census.py")
    spec = importlib.util.spec_from_file_location("reach_census_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = line[2:].rsplit(" (", 1)[0]
            sections[current] = []
        elif line and current is not None:
            sections[current].append(line.split("  <- ")[0])
    return sections


def test_defined_functions_are_named_src_functions(census):
    defined = census._defined_functions()
    assert {RECEIVE, ESTIMATE, ADVANCE, REGISTER} <= defined
    assert all(key.startswith("src/repro/") for key in defined)
    assert not [key for key in defined if key.rpartition(".")[2].startswith("<")]


def test_report_sorts_functions_into_the_three_buckets(census, tmp_path, capsys):
    path = tmp_path / "census.json"
    path.write_text(json.dumps({
        "script:examples/x.py": {ADVANCE: ["via_src"]},
        "test:tests/core/test_a.py": {
            RECEIVE: ["direct"], ESTIMATE: ["via_src"], ADVANCE: ["direct"],
        },
        "test:tests/core/test_b.py": {RECEIVE: ["direct"]},
    }))
    census.report([str(path)])
    sections = _sections(capsys.readouterr().out)
    own = sections["reached only by their own unit tests"]
    assert own.count(RECEIVE) == 1
    assert ESTIMATE in sections["reached by tests only through other src code"]
    assert REGISTER in sections["reached by nothing"]
    # A function some script reaches is production code: in no bucket.
    assert all(ADVANCE not in keys for keys in sections.values())


def test_report_lists_a_direct_call_even_when_src_also_calls_it(
    census, tmp_path, capsys
):
    """A test that calls a function itself and also reaches it through other
    src code still marks it as reached by its own unit test."""
    path = tmp_path / "census.json"
    path.write_text(json.dumps({
        "test:tests/core/test_a.py": {
            RECEIVE: ["direct", "via_src"], ESTIMATE: ["via_src"],
        },
        "test:tests/core/test_b.py": {ESTIMATE: ["via_src"]},
    }))
    census.report([str(path)])
    sections = _sections(capsys.readouterr().out)
    assert RECEIVE in sections["reached only by their own unit tests"]
    assert RECEIVE not in sections["reached by tests only through other src code"]
    assert ESTIMATE in sections["reached by tests only through other src code"]


def test_run_records_both_ways_a_function_is_entered(census, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = tmp_path / "probe.py"
    script.write_text(
        "from repro.dyadic.tree import DyadicTree\n"
        "from repro.utils.validation import check_power_of_two\n"
        "DyadicTree(8)\n"  # calls check_power_of_two from src
        "check_power_of_two(8, 'd')\n"
    )
    out = tmp_path / "out.json"
    outer = sys.getprofile()
    try:
        census.main(["run", str(out), str(script)])
    finally:
        sys.setprofile(outer)
    (seen,) = json.loads(out.read_text()).values()
    key = "src/repro/utils/validation.py:check_power_of_two"
    assert seen[key] == ["direct", "via_src"]


def test_run_records_a_script_under_its_own_context(
    census, tmp_path, monkeypatch
):
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = tmp_path / "probe.py"
    script.write_text(
        "from repro.dyadic.intervals import interval_set\ninterval_set(8)\n"
    )
    out = tmp_path / "out.json"
    outer = sys.getprofile()  # a census of this very suite must survive
    try:
        census.main(["run", str(out), str(script)])
        assert sys.getprofile() is None
    finally:
        sys.setprofile(outer)
    payload = json.loads(out.read_text())
    (context,) = payload
    assert context == f"script:{script}"
    assert payload[context]["src/repro/dyadic/intervals.py:interval_set"] == ["direct"]
