"""``repro.lint`` — static analysis for this repository's determinism contracts.

Every headline claim the repo makes is a *coding contract*, not just a test:
bit-identical sharded sweeps (PR 3), chunk-size invariance (PR 4), kernel
bit-exactness against the frozen reference (PR 5), and byte-stable artifact
keys (PR 6) all assume that randomness flows from one ``SeedSequence`` root,
that fan-out runners are picklable, and that registry metadata tells the
truth.  PR 2 paid for the absence of tooling here: a non-reproducible sweep
caused by ``hash((name, position))`` seeding shipped in the seed and had to
be found by hand.  This package is the machine that checks those contracts
on every push.

The rules, each tied to the invariant (and PR) that motivated it:

========  ====================  =====================================================
id        slug                  invariant protected
========  ====================  =====================================================
REP101    seedless-rng          all randomness descends from the caller's seed
                                tree (PR 3 sharded sweeps; PR 5 kernel
                                conformance) — no fresh OS entropy, no legacy
                                ``np.random.*`` global state in sim/kernels/
                                protocols/workloads
REP102    seed-arithmetic       independent streams come from ``SeedSequence``
                                spawning, never ``seed + k`` offsets (the
                                overlapping-stream hazard the PR 3 spawn-key
                                design exists to prevent)
REP103    hash-seed-taint       ``hash()`` is salted per process — the exact
                                PR 2 bug class (``hash((name, position))``
                                trial seeding); stable keys use crc32/hashlib
REP104    wallclock-entropy     sim/kernel/protocol/core modules are pure
                                functions of (inputs, seed tree); timestamps
                                and ``os.urandom`` belong in the bench/CLI
                                provenance layer only
REP105    unpicklable-runner    ``run_trials``/``sweep``/``run_supervised``/
                                executor fan-out pickles runners into
                                workers (PR 3); lambdas and nested
                                functions die at workers>1
REP106    set-order             set iteration order is hash-salted; sorted()
                                pins every accumulation/emission order
                                (byte-stable artifacts, PR 6)
REP107    capability-metadata   every ``PROTOCOLS`` entry's
                                ``supports_kernel``/``supports_chunk_size``
                                flag matches its real ``run``/``prepare``
                                signature (PR 4/5 dispatch seams)
REP108    frozen-reference      ``kernels/reference.py`` is the bit-identity
                                contract (PR 5); it never imports from the
                                optimized ``fast``/``alias`` backends
REP109    clockless-ingest      online drivers open the clock
                                (``advance_to(t)``) before folding period t
                                (PR 9 clock enforcement)
REP110    wallclock-backoff     retry/backoff loops run on the simulated
                                clock (``repro.faults.SimulatedClock``), never
                                ``time.sleep``/``time.monotonic`` — recovery
                                schedules stay bit-identical and supervised
                                runs add zero wallclock stalls (PR 10 fault
                                tolerance)
========  ====================  =====================================================

Architecture mirrors the repo's other registries (``PROTOCOLS``,
``KERNELS``): rules are singletons in the string-keyed ``RULES`` dict,
resolved by id or slug, extended via ``register_rule``.  The engine
(:mod:`repro.lint.engine`) walks each file's AST once and dispatches nodes
through a type-keyed multiplexer; grandfathered findings live in
``lint-baseline.json`` (:mod:`repro.lint.baseline`) so new violations fail
CI while legacy ones stay visible but non-blocking.  The CLI surface is
``repro lint`` (:mod:`repro.lint.cli`).
"""

from repro.lint import checks_ast, checks_project  # noqa: F401  (register rules)
from repro.lint.baseline import Baseline, write_baseline
from repro.lint.engine import collect_files, lint_paths, lint_source, repo_root
from repro.lint.findings import Finding
from repro.lint.rules import (
    RULES,
    AstRule,
    ModuleContext,
    ProjectRule,
    Rule,
    get_rule,
    normalize_selection,
    register_rule,
)

__all__ = [
    "AstRule",
    "Baseline",
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "collect_files",
    "get_rule",
    "lint_paths",
    "lint_source",
    "normalize_selection",
    "register_rule",
    "repo_root",
    "write_baseline",
]
