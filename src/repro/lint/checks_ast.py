"""The AST-driven determinism-contract rules (REP101–REP106, REP108–REP110).

Each rule is a small :class:`~repro.lint.rules.AstRule` subclass registered
at import time; the engine feeds it exactly the node types it declares, once
per node, in one pass over each file.  See the package docstring of
:mod:`repro.lint` for the invariant behind each rule.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules import AstRule, ModuleContext, register_rule

__all__ = [
    "ClocklessIngestRule",
    "FrozenReferenceImportRule",
    "HashSeedTaintRule",
    "SeedArithmeticRule",
    "SeedlessRngRule",
    "SetOrderRule",
    "UnpicklableRunnerRule",
    "WallClockEntropyRule",
    "WallclockBackoffRule",
]

#: The modules whose randomness must flow from the caller's seed tree.
_SEED_TREE_SCOPE = (
    "src/repro/sim/",
    "src/repro/kernels/",
    "src/repro/protocols/",
    "src/repro/workloads/",
)


def _dotted_name(node: ast.AST) -> Optional[tuple[str, ...]]:
    """The dotted-name parts of a ``Name``/``Attribute`` chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_np_random_chain(chain: tuple[str, ...]) -> bool:
    """Whether ``chain`` spells ``np.random.<x>`` / ``numpy.random.<x>``."""
    return (
        len(chain) == 3
        and chain[0] in ("np", "numpy")
        and chain[1] == "random"
    )


class SeedlessRngRule(AstRule):
    """``default_rng()`` with no seed, or legacy ``np.random.*`` global state."""

    id = "REP101"
    slug = "seedless-rng"
    summary = (
        "seedless default_rng() or legacy np.random.* global-state call in a "
        "seed-tree module"
    )
    rationale = (
        "Every headline bit-identity claim (sharded sweeps, chunk invariance, "
        "kernel conformance) assumes all randomness descends from the "
        "caller's SeedSequence root; fresh OS entropy or the process-global "
        "legacy RNG silently breaks every one of them."
    )
    hint = (
        "take an explicit numpy.random.Generator (or seed) argument and "
        "derive streams via repro.utils.rng.spawn_generators / "
        "SeedSequence.spawn"
    )
    scope = _SEED_TREE_SCOPE
    node_types: ClassVar[tuple[type, ...]] = (ast.Call,)

    #: Legacy global-state functions on ``np.random`` (NumPy's pre-Generator
    #: API); any of them reads or mutates hidden process-wide state.
    _LEGACY = frozenset(
        {
            "seed", "random", "rand", "randn", "randint", "random_sample",
            "ranf", "sample", "choice", "shuffle", "permutation", "bytes",
            "standard_normal", "uniform", "normal", "binomial", "poisson",
            "beta", "exponential", "gamma", "geometric", "laplace",
        }
    )

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        chain = _dotted_name(node.func)
        if chain is None:
            return
        if chain[-1] == "default_rng":
            seedless = not node.args and not node.keywords
            explicit_none = (
                len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            if seedless or explicit_none:
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without a seed draws fresh OS entropy — "
                    "the run cannot be reproduced",
                )
        elif _is_np_random_chain(chain) and chain[-1] in self._LEGACY:
            yield self.finding(
                ctx,
                node,
                f"np.random.{chain[-1]}() uses the process-global legacy RNG "
                "(hidden shared state; not reproducible under sharding)",
            )


class SeedArithmeticRule(AstRule):
    """Seed offsets (``seed + k``, ``seed * n``) instead of spawn-tree derivation."""

    id = "REP102"
    slug = "seed-arithmetic"
    summary = (
        "arithmetic on a seed feeding default_rng()/SeedSequence() — "
        "overlapping-stream hazard"
    )
    rationale = (
        "Nearby integer seeds do not give independent PCG64 streams the way "
        "SeedSequence spawning does, and ad-hoc offsets collide across "
        "layers (a sweep at seed+1 overlaps a bench at seed+1).  The PR 2 "
        "sweep-reproducibility fix and the PR 3 sharding design both exist "
        "because of this hazard."
    )
    hint = (
        "derive children from one SeedSequence root: root.spawn(n), "
        "repro.utils.rng.spawn_generators, or a spawn_key-keyed "
        "SeedSequence(entropy=root.entropy, spawn_key=(...)) node"
    )
    #: Library code only: the statistical independence of streams is what the
    #: headline claims rest on.  Tests pinning distinct literal seeds
    #: (``default_rng(3000 + t)``) are deterministic by construction and stay
    #: out of scope.
    scope = ("src/repro/",)
    node_types: ClassVar[tuple[type, ...]] = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        chain = _dotted_name(node.func)
        if chain is None or chain[-1] not in ("default_rng", "SeedSequence"):
            return
        candidates: list[ast.expr] = []
        if node.args:
            candidates.append(node.args[0])
        for keyword in node.keywords:
            # Only the entropy/seed argument is checked: spawn_key tuples are
            # *built* by concatenation in the blessed keyed-spawn idiom
            # (repro.sim.runner), and that is exactly the fix for this rule.
            if keyword.arg in ("seed", "entropy"):
                candidates.append(keyword.value)
        for candidate in candidates:
            # Unwrap a single int()/np.uint64()-style cast so that
            # ``default_rng(int(seed + 1))`` is still caught.
            if (
                isinstance(candidate, ast.Call)
                and len(candidate.args) == 1
                and not candidate.keywords
            ):
                candidate = candidate.args[0]
            if not isinstance(candidate, ast.BinOp):
                continue
            if isinstance(candidate.op, ast.Pow):
                continue  # 2**63-style width constants, not seed offsets
            names = [
                sub
                for sub in ast.walk(candidate)
                if isinstance(sub, (ast.Name, ast.Attribute, ast.Call))
            ]
            if not names:
                continue  # pure constant arithmetic is merely odd, not unsafe
            yield self.finding(
                ctx,
                node,
                f"seed arithmetic {ast.unparse(candidate)!r} feeds "
                f"{chain[-1]}(); offset seeds are not independent streams",
            )


class HashSeedTaintRule(AstRule):
    """``hash()`` of non-int values — salted per process, never reproducible."""

    id = "REP103"
    slug = "hash-seed-taint"
    summary = (
        "hash() of a non-int value (interpreter-salted; differs between "
        "processes)"
    )
    rationale = (
        "hash(str/bytes/tuple-of-str) is randomized per interpreter process "
        "(PYTHONHASHSEED), so anything derived from it — seeds, artifact "
        "keys, shard assignments — silently changes between runs.  The PR 2 "
        "seed's non-reproducible sweep came from exactly this: "
        "hash((name, position)) feeding trial seeds."
    )
    hint = (
        "use a process-stable digest: zlib.crc32 over utf-8 (see "
        "repro.sim.runner._stable_name_key) or hashlib over a canonical "
        "encoding (see repro.sim.store)"
    )
    node_types: ClassVar[tuple[type, ...]] = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        if not (isinstance(node.func, ast.Name) and node.func.id == "hash"):
            return
        if len(node.args) != 1 or node.keywords:
            return
        argument = node.args[0]
        if isinstance(argument, ast.Constant) and isinstance(argument.value, int):
            return  # hash(int) == int is process-stable
        yield self.finding(
            ctx,
            node,
            f"hash({ast.unparse(argument)}) is salted per process — any "
            "derived seed or key differs between runs",
        )


class WallClockEntropyRule(AstRule):
    """Wall-clock or OS-entropy taint inside simulation/kernel modules."""

    id = "REP104"
    slug = "wallclock-entropy"
    summary = (
        "wall-clock or OS-entropy source (time.time, datetime.now, "
        "os.urandom, stdlib random) in a deterministic module"
    )
    rationale = (
        "Simulation, kernel, protocol and core modules must be pure "
        "functions of (inputs, seed tree): a timestamp or entropy read "
        "anywhere in them makes bit-identity unfalsifiable.  Monotonic "
        "timers (perf_counter) are fine — they only measure, never seed."
    )
    hint = (
        "thread timestamps/ids in from the caller (bench provenance lives "
        "in repro.bench, outside this scope) and draw randomness only from "
        "the supplied Generator"
    )
    scope = (*_SEED_TREE_SCOPE, "src/repro/core/")
    node_types: ClassVar[tuple[type, ...]] = (ast.Call, ast.Import, ast.ImportFrom)

    #: Dotted-chain suffixes that read the wall clock or OS entropy.
    _TAINTED_SUFFIXES = (
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("os", "getrandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    )
    #: Whole stdlib modules that are entropy sources end to end.
    _TAINTED_MODULES = frozenset({"random", "secrets"})

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in self._TAINTED_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import {alias.name}: stdlib {root!r} is a hidden "
                        "global entropy source",
                    )
            return
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in self._TAINTED_MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"from {node.module} import ...: stdlib {root!r} is a "
                    "hidden global entropy source",
                )
            return
        chain = _dotted_name(node.func)  # type: ignore[union-attr]
        if chain is None or len(chain) < 2:
            return
        suffix = chain[-2:]
        if suffix in self._TAINTED_SUFFIXES:
            yield self.finding(
                ctx,
                node,
                f"{'.'.join(chain)}() reads "
                + (
                    "OS entropy"
                    if suffix[0] in ("os", "uuid")
                    else "the wall clock"
                )
                + " — output depends on when/where the run happens",
            )
        elif chain[0] == "secrets":
            yield self.finding(
                ctx, node, f"{'.'.join(chain)}() reads OS entropy"
            )


class UnpicklableRunnerRule(AstRule):
    """Lambdas/nested functions handed to the multiprocess fan-out seams."""

    id = "REP105"
    slug = "unpicklable-runner"
    summary = (
        "lambda or nested function passed to run_trials/sweep/executor "
        "fan-out (unpicklable under workers>1)"
    )
    rationale = (
        "The sharded sweep path (PR 3) pickles runners into worker "
        "processes; lambdas and closures only work at workers=1 and then "
        "die mid-sweep with an opaque PicklingError the moment someone "
        "scales up."
    )
    hint = (
        "pass a registry name ('future_rand'), a protocol instance, or a "
        "module-level function; bind options with functools.partial over a "
        "module-level callable"
    )
    node_types: ClassVar[tuple[type, ...]] = (ast.Call,)

    #: Callee names that fan work out across processes.
    _SEAMS = frozenset({"run_trials", "sweep", "execute_shards"})
    #: Attribute callees (``pool.submit``/``pool.map``) with the same contract.
    _EXECUTOR_ATTRS = frozenset({"submit"})
    #: Keyword names whose value crosses the pickle boundary.  Coordinator
    #: callbacks (``on_complete``) run in the parent process and may close
    #: over anything.
    _PICKLED_KEYWORDS = frozenset({"runner", "protocols", "func", "fn", "target"})

    def _is_seam(self, chain: tuple[str, ...]) -> bool:
        if chain[-1] in self._SEAMS:
            return True
        return len(chain) >= 2 and chain[-1] in self._EXECUTOR_ATTRS

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        chain = _dotted_name(node.func)
        if chain is None or not self._is_seam(chain):
            return
        seam = ".".join(chain)
        arguments = [
            *node.args,
            *(kw.value for kw in node.keywords if kw.arg in self._PICKLED_KEYWORDS),
        ]
        for argument in arguments:
            for sub in ast.walk(argument):
                if isinstance(sub, ast.Lambda):
                    yield self.finding(
                        ctx,
                        node,
                        f"lambda passed to {seam}() cannot be pickled into "
                        "worker processes",
                    )
                    break
        for argument in arguments:
            if (
                isinstance(argument, ast.Name)
                and argument.id in ctx.nested_function_names
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"nested function {argument.id!r} passed to {seam}() "
                    "cannot be pickled into worker processes",
                )


class SetOrderRule(AstRule):
    """Iteration over sets feeding accumulation or emission (ordering hazard)."""

    id = "REP106"
    slug = "set-order"
    summary = (
        "iterating a set (or sum() over one) — iteration order is "
        "hash-salted, so float accumulation and emitted sequences drift"
    )
    rationale = (
        "Set iteration order depends on the per-process hash salt; summing "
        "floats or emitting rows in that order makes output differ between "
        "bit-identical runs.  Byte-stable artifact keys (PR 6) and "
        "deterministic report tables both assume every iteration order is "
        "pinned."
    )
    hint = "iterate sorted(the_set) (every registry consumer does)"
    node_types: ClassVar[tuple[type, ...]] = (
        ast.For,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
        ast.Call,
    )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if self._is_set_expr(node.iter):
                yield self.finding(
                    ctx,
                    node,
                    "for-loop iterates a set in hash order — wrap the "
                    "iterable in sorted()",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if self._is_set_expr(generator.iter):
                    # Rebuilding a *set* from a set is order-free; anything
                    # producing a sequence/mapping inherits the salt order.
                    if isinstance(node, ast.SetComp):
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        "comprehension iterates a set in hash order — wrap "
                        "the iterable in sorted()",
                    )
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and self._is_set_expr(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    "sum() over a set accumulates floats in hash order — "
                    "sum(sorted(...)) pins the order",
                )


class FrozenReferenceImportRule(AstRule):
    """``kernels/reference.py`` must never import the optimized backends."""

    id = "REP108"
    slug = "frozen-reference"
    summary = (
        "kernels/reference.py importing from kernels.fast/kernels.alias — "
        "the frozen bit-exact path must not depend on moving code"
    )
    rationale = (
        "The reference kernel *is* the bit-identity contract: every frozen "
        "test vector and every kernel-conformance bound (PR 5) is recorded "
        "against it.  An import from the optimized backends lets a fast-path "
        "refactor silently change reference output."
    )
    hint = (
        "share code by moving it into repro.core or repro.kernels.base and "
        "importing it from both backends — never reference -> fast/alias"
    )
    scope = ("src/repro/kernels/reference.py",)
    node_types: ClassVar[tuple[type, ...]] = (ast.Import, ast.ImportFrom)

    _FORBIDDEN = ("repro.kernels.fast", "repro.kernels.alias")
    _FORBIDDEN_SHORT = frozenset({"fast", "alias"})

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(self._FORBIDDEN):
                    yield self.finding(
                        ctx,
                        node,
                        f"import {alias.name}: the frozen reference backend "
                        "must not depend on an optimized backend",
                    )
            return
        assert isinstance(node, ast.ImportFrom)
        module = node.module or ""
        if module.startswith(self._FORBIDDEN):
            yield self.finding(
                ctx,
                node,
                f"from {module} import ...: the frozen reference backend "
                "must not depend on an optimized backend",
            )
            return
        # ``from repro.kernels import fast`` / relative ``from . import alias``.
        relative_kernels = node.level >= 1 and module in ("", "kernels")
        if module == "repro.kernels" or relative_kernels:
            for alias in node.names:
                if alias.name in self._FORBIDDEN_SHORT:
                    yield self.finding(
                        ctx,
                        node,
                        f"import of kernels.{alias.name} from reference.py: "
                        "the frozen backend must not depend on an optimized "
                        "backend",
                    )


class ClocklessIngestRule(AstRule):
    """Server ingestion calls in a module that never advances the clock."""

    id = "REP109"
    slug = "clockless-ingest"
    summary = (
        "module calls Server receive/receive_batch/receive_aggregate but "
        "never advance_to — ingestion is racing an unopened clock"
    )
    rationale = (
        "The online contract is advance_to(t) *then* fold period t: the "
        "estimate at t must only see reports with emission index << order "
        "<= t.  A driver that ingests without ever advancing the clock "
        "either worked only through the historical _time==0 bypass (fixed "
        "in this repo) or is folding future reports into past estimates — "
        "both silently void the accuracy guarantees the conformance radii "
        "are pinned to."
    )
    hint = (
        "call server.advance_to(t) before delivering period t's reports "
        "(see repro.sim.batch_engine / repro.sim.service); offline "
        "tree-building code must opt out explicitly with "
        "Server(..., enforce_clock=False)"
    )
    #: The engine/service layers that drive a live Server; core/server.py
    #: itself (receive_batch delegates to receive internally) stays out.
    scope = ("src/repro/sim/", "src/repro/protocols/")
    node_types: ClassVar[tuple[type, ...]] = (ast.Module,)

    _INGEST = frozenset({"receive", "receive_batch", "receive_aggregate"})

    def check(self, node: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
        first_ingest: Optional[ast.Call] = None
        advances = False
        opts_out = False
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            for keyword in sub.keywords:
                if (
                    keyword.arg == "enforce_clock"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                ):
                    opts_out = True
            chain = _dotted_name(sub.func)
            # Only attribute calls (``server.receive(...)``): a bare name is
            # some local helper, not Server ingestion.
            if chain is None or len(chain) < 2:
                continue
            if chain[-1] == "advance_to":
                advances = True
            elif chain[-1] in self._INGEST and first_ingest is None:
                first_ingest = sub
        if first_ingest is not None and not advances and not opts_out:
            chain = _dotted_name(first_ingest.func)
            callee = ".".join(chain) if chain else "receive"
            yield self.finding(
                ctx,
                first_ingest,
                f"{callee}() without any advance_to() in the module — the "
                "online clock is never opened for the periods being folded",
            )


class WallclockBackoffRule(AstRule):
    """Wallclock sleeping or timing inside a loop body."""

    id = "REP110"
    slug = "wallclock-backoff"
    summary = (
        "time.sleep/time.monotonic (or a non-zero asyncio.sleep) inside a "
        "loop — retry backoff is running on the wallclock"
    )
    rationale = (
        "Retry and backoff loops in this repo run on a *simulated* clock "
        "(see repro.faults.SimulatedClock): delays are accounted, never "
        "slept, so supervised runs stay fast and the retried schedule is a "
        "pure function of the seed tree.  A time.sleep in a retry loop "
        "reintroduces real-time stalls, and time.monotonic-based deadlines "
        "make the number of attempts depend on host load — both break the "
        "bit-identical recovery contract the chaos suite pins."
    )
    hint = (
        "account delays on repro.faults.SimulatedClock (RetryPolicy computes "
        "them); for cooperative yields use asyncio.sleep(0), and measure "
        "elapsed time with time.perf_counter outside retry decisions"
    )
    #: Everything under the package: the contract is repo-wide, not just the
    #: seed-tree layers, because any wallclock backoff voids replayability.
    scope = ("src/repro/",)
    node_types: ClassVar[tuple[type, ...]] = (ast.Module,)

    _WALLCLOCK = frozenset({("time", "sleep"), ("time", "monotonic")})

    @staticmethod
    def _sleeps_zero(call: ast.Call) -> bool:
        if len(call.args) != 1 or call.keywords:
            return False
        arg = call.args[0]
        return isinstance(arg, ast.Constant) and arg.value == 0

    def check(self, node: ast.Module, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._scan(node, False, ctx)

    def _scan(
        self, node: ast.AST, in_loop: bool, ctx: ModuleContext
    ) -> Iterator[Finding]:
        if in_loop and isinstance(node, ast.Call):
            chain = _dotted_name(node.func)
            if chain is not None and len(chain) >= 2:
                tail = (chain[-2], chain[-1])
                dotted = ".".join(chain)
                if tail in self._WALLCLOCK:
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() inside a loop — backoff/deadlines must "
                        "run on the simulated clock, not the wallclock",
                    )
                elif tail == ("asyncio", "sleep") and not self._sleeps_zero(
                    node
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{dotted}() with a non-zero delay inside a loop — "
                        "yield with asyncio.sleep(0) and account the delay "
                        "on the simulated clock",
                    )
        nested = in_loop or isinstance(
            node, (ast.For, ast.AsyncFor, ast.While)
        )
        for child in ast.iter_child_nodes(node):
            yield from self._scan(child, nested, ctx)


for _rule in (
    SeedlessRngRule(),
    SeedArithmeticRule(),
    HashSeedTaintRule(),
    WallClockEntropyRule(),
    UnpicklableRunnerRule(),
    SetOrderRule(),
    FrozenReferenceImportRule(),
    ClocklessIngestRule(),
    WallclockBackoffRule(),
):
    register_rule(_rule)
