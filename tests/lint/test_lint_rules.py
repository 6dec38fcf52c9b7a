"""Per-rule fixture battery: every rule flags its bad snippet, passes its good one."""

from __future__ import annotations

import pytest

from repro.lint import RULES, get_rule, lint_source, register_rule
from repro.lint.checks_ast import SeedlessRngRule

#: (rule id, rel_path placing the snippet in scope, bad source, good source).
FIXTURES = [
    (
        "REP101",
        "src/repro/sim/fixture.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\ndef f(seed):\n    return np.random.default_rng(seed)\n",
    ),
    (
        "REP101",
        "src/repro/kernels/fixture.py",
        "import numpy as np\nx = np.random.normal(0.0, 1.0, 10)\n",
        "import numpy as np\ndef f(rng):\n    return rng.normal(0.0, 1.0, 10)\n",
    ),
    (
        "REP102",
        "src/repro/sim/fixture.py",
        "import numpy as np\ndef f(seed, k):\n"
        "    return np.random.default_rng(seed + k)\n",
        "import numpy as np\ndef f(root, k):\n"
        "    child = np.random.SeedSequence(\n"
        "        entropy=root.entropy, spawn_key=(*root.spawn_key, k)\n"
        "    )\n"
        "    return np.random.default_rng(child)\n",
    ),
    (
        "REP102",
        "src/repro/experiments/fixture.py",
        "import numpy as np\ndef f(seed):\n"
        "    return np.random.SeedSequence(seed * 1000 + 1)\n",
        "import numpy as np\ndef f(seed):\n"
        "    return np.random.SeedSequence(seed).spawn(2)[1]\n",
    ),
    (
        "REP103",
        "src/repro/sim/fixture.py",
        "def key(name, position):\n    return hash((name, position))\n",
        "import zlib\ndef key(name):\n    return zlib.crc32(name.encode())\n",
    ),
    (
        "REP104",
        "src/repro/kernels/fixture.py",
        "import time\ndef f():\n    return time.time()\n",
        "import time\ndef f():\n    return time.perf_counter()\n",
    ),
    (
        "REP104",
        "src/repro/sim/fixture.py",
        "import random\n",
        "import numpy as np\n",
    ),
    (
        "REP104",
        "src/repro/protocols/fixture.py",
        "import os\ndef f():\n    return os.urandom(8)\n",
        "def f(rng):\n    return rng.bytes(8)\n",
    ),
    (
        "REP105",
        "src/repro/sim/fixture.py",
        "def f(states, params):\n"
        "    return run_trials(lambda s, p, r: None, states, params)\n",
        "def runner(s, p, r):\n    return None\n"
        "def f(states, params):\n    return run_trials(runner, states, params)\n",
    ),
    (
        "REP105",
        "tests/fixture.py",
        "def outer(pool, job):\n"
        "    def inner(x):\n        return x\n"
        "    return pool.submit(inner, job)\n",
        "def work(x):\n    return x\n"
        "def outer(pool, job):\n    return pool.submit(work, job)\n",
    ),
    (
        "REP105",
        "src/repro/sim/fixture.py",
        "from repro.faults import run_supervised\n"
        "def f(items):\n"
        "    def work(item):\n        return item\n"
        "    return run_supervised(work, items, workers=2)\n",
        "from repro.faults import run_supervised\n"
        "def work(item):\n    return item\n"
        "def f(items, lost):\n"
        "    return run_supervised(\n"
        "        work, items, workers=2, on_lost=lambda i, e: lost.append(i)\n"
        "    )\n",
    ),
    (
        "REP106",
        "src/repro/sim/fixture.py",
        "def f(values):\n"
        "    total = 0.0\n"
        "    for v in set(values):\n        total += v\n"
        "    return total\n",
        "def f(values):\n"
        "    total = 0.0\n"
        "    for v in sorted(set(values)):\n        total += v\n"
        "    return total\n",
    ),
    (
        "REP106",
        "src/repro/analysis/fixture.py",
        "def f(names):\n    return [n.upper() for n in {x for x in names}]\n",
        "def f(names):\n    return [n.upper() for n in sorted({x for x in names})]\n",
    ),
    (
        "REP106",
        "src/repro/sim/fixture.py",
        "def f(values):\n    return sum({abs(v) for v in values})\n",
        "def f(values):\n    return sum(sorted({abs(v) for v in values}))\n",
    ),
    (
        "REP108",
        "src/repro/kernels/reference.py",
        "from repro.kernels.fast import FastKernel\n",
        "from repro.kernels.base import RandomizerKernel\n",
    ),
    (
        "REP108",
        "src/repro/kernels/reference.py",
        "from repro.kernels import alias\n",
        "from repro.kernels import base\n",
    ),
    (
        "REP108",
        "src/repro/kernels/reference.py",
        "from . import fast\n",
        "from . import base\n",
    ),
    (
        "REP109",
        "src/repro/sim/fixture.py",
        "def drive(server, reports):\n"
        "    for t, batch in enumerate(reports, start=1):\n"
        "        server.receive_batch(0, t, batch)\n",
        "def drive(server, reports):\n"
        "    for t, batch in enumerate(reports, start=1):\n"
        "        server.advance_to(t)\n"
        "        server.receive_batch(0, t, batch)\n",
    ),
    (
        "REP110",
        "src/repro/sim/fixture.py",
        "import time\ndef retry(fn, attempts):\n"
        "    for n in range(attempts):\n"
        "        try:\n"
        "            return fn()\n"
        "        except OSError:\n"
        "            time.sleep(0.5 * 2**n)\n",
        "from repro.faults import SimulatedClock\n"
        "def retry(fn, attempts, policy):\n"
        "    clock = SimulatedClock()\n"
        "    for n in range(attempts):\n"
        "        try:\n"
        "            return fn()\n"
        "        except OSError:\n"
        "            clock.advance(policy.backoff(n))\n",
    ),
    (
        "REP110",
        "src/repro/sim/fixture.py",
        "import asyncio\nasync def drain(queue):\n"
        "    while not queue.empty():\n"
        "        await asyncio.sleep(0.1)\n",
        "import asyncio\nasync def drain(queue):\n"
        "    while not queue.empty():\n"
        "        await asyncio.sleep(0)\n",
    ),
]


def _fixture_ids(fixtures) -> list[str]:
    """``REP105-1``, ``REP105-2``, ...: a per-rule counter, so adding or
    retiring one rule's fixture never renames another rule's tests."""
    seen: dict[str, int] = {}
    ids = []
    for rule_id, *_ in fixtures:
        seen[rule_id] = seen.get(rule_id, 0) + 1
        ids.append(f"{rule_id}-{seen[rule_id]}")
    return ids


@pytest.mark.parametrize(
    "rule_id, rel_path, bad, good", FIXTURES, ids=_fixture_ids(FIXTURES)
)
def test_rule_flags_bad_and_passes_good(rule_id, rel_path, bad, good):
    bad_findings = lint_source(bad, rel_path)
    assert any(f.rule == rule_id for f in bad_findings), (
        f"{rule_id} must flag its bad fixture; got {bad_findings!r}"
    )
    good_findings = [f for f in lint_source(good, rel_path) if f.rule == rule_id]
    assert good_findings == [], f"{rule_id} must pass its good fixture"


def test_every_shipped_rule_has_a_fixture():
    ast_rules = set(RULES) - {"REP107"}  # REP107 is introspection
    assert {rule_id for rule_id, *_ in FIXTURES} == ast_rules


def test_clockless_ingest_has_no_keyword_opt_out():
    """REP109 flags an ingesting module whatever it passes the Server."""
    builder = (
        "def build(d, c_gap, aggregates):\n"
        "    server = Server(d, c_gap, enforce_clock=False)\n"
        "    for order, index, total, count in aggregates:\n"
        "        server.receive_aggregate(order, index, total, count)\n"
        "    return server\n"
    )
    findings = lint_source(builder, "src/repro/protocols/fixture.py")
    assert [f.rule for f in findings] == ["REP109"]


def test_scoped_rules_stay_silent_outside_scope():
    bad = "import numpy as np\nrng = np.random.default_rng()\n"
    # REP101 is scoped to sim/kernels/protocols/workloads; the CLI layer may
    # seed however it likes.
    assert [f.rule for f in lint_source(bad, "src/repro/cli.py")] == []


def test_finding_carries_hint_and_fingerprint():
    findings = lint_source(
        "import numpy as np\nrng = np.random.default_rng()\n",
        "src/repro/sim/fixture.py",
    )
    (finding,) = findings
    assert finding.rule == "REP101"
    assert finding.hint
    assert finding.snippet == "rng = np.random.default_rng()"
    assert len(finding.fingerprint()) == 16
    assert finding.fingerprint() == finding.fingerprint()


def test_registry_lookup_by_id_and_slug():
    assert get_rule("REP101") is get_rule("seedless-rng")
    with pytest.raises(KeyError, match="REP101"):
        get_rule("REP999")


def test_register_rule_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_rule(SeedlessRngRule())

    class Impostor(SeedlessRngRule):
        id = "REP901"

    with pytest.raises(ValueError, match="slug"):
        register_rule(Impostor())
    assert "REP901" not in RULES


def test_rule_metadata_is_complete():
    for rule in RULES.values():
        assert rule.summary and rule.rationale
        assert rule.hint, f"{rule.id} must ship a fix hint"


def test_seed_arithmetic_skips_blessed_idioms():
    # Width constants (2**63), spawn_key concatenation, and plain variables
    # must not trip REP102 — these are the repo's blessed derivations.
    blessed = (
        "import numpy as np\n"
        "def f(seed, base, position):\n"
        "    a = np.random.default_rng(seed)\n"
        "    b = np.random.default_rng(int(seed))\n"
        "    c = np.random.SeedSequence(\n"
        "        entropy=base.entropy, spawn_key=(*base.spawn_key, position)\n"
        "    )\n"
        "    d = int(a.integers(0, 2**63 - 1))\n"
        "    return a, b, c, d\n"
    )
    assert [f.rule for f in lint_source(blessed, "src/repro/sim/fixture.py")] == []
