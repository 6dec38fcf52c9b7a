"""Simulation engines and experiment runner.

* :mod:`repro.sim.results` — tabular result containers (rows, tables,
  JSON/CSV/markdown serialization).
* :mod:`repro.sim.runner` — repeated-trial execution, parameter sweeps and
  scaling-exponent extraction on top of any protocol callable.
* :mod:`repro.sim.engine` — the *object* engine: one Python ``Client`` per
  user driving a real ``Server`` period by period, through the same
  :class:`~repro.protocols.sessions.ObjectStreamingSession` step as the
  ``future_rand_object`` protocol.
* :mod:`repro.sim.batch_engine` — the *batch* engine: the same online event
  loop vectorized across the whole population.
* :mod:`repro.sim.service` — the asyncio ingestion *service*: simulated
  concurrent clients submitting out-of-order, late, duplicated and
  clock-skewed messages through an event loop, sharded across worker
  processes.
* :mod:`repro.sim.journal` — the append-only write-ahead journal the
  service persists its released estimates and state snapshots to
  (checksummed records, torn-tail recovery).

Which engine to use
-------------------

Both engines expose the identical ``run(states, callback)`` contract —
per-period :class:`StepSnapshot` callbacks, report-drop fault injection,
online server clock semantics — and produce statistically indistinguishable
estimates (the randomizer kernels are shared; the integration tests verify
the equivalence).

* Use :class:`SimulationEngine` (object engine) to exercise the
  deployment-shaped API: real ``Client`` state machines, per-report
  ``Server.receive`` calls, per-user registration and duplicate detection.
  It is the faithful reference, at O(n * d) interpreter cost — fine up to a
  few thousand users.
* Use :class:`BatchSimulationEngine` (batch engine) for anything at scale:
  monitoring dashboards over large fleets, drop-rate robustness studies,
  adversarial workloads, parameter sweeps.  It precomputes all per-user
  randomness in batched numpy draws and replays the period loop through
  ``repro.sim.engine.replay_online``, which folds each emitting order
  group's reports with one ``Server.receive_aggregate`` call — millions of
  user-periods per second.

Memory-bounded (chunked) execution
----------------------------------

Monolithic drivers materialize the full ``(n, d)`` population — ~10 GB at
n=10^7, d=1024 — before randomizing anything.  :mod:`repro.sim.chunked` is
the out-of-core path: population generators stream user chunks
(``population.sample_chunks(n, chunk_size, seed)``) and
:class:`~repro.sim.chunked.ChunkedTreeAccumulator` folds each chunk's dyadic
node sums into O(d log d) running totals, so peak memory is bounded by a few
chunk-sized buffers (a million-user, d=256 run fits comfortably under 1 GB —
pinned by ``benchmarks/bench_chunked.py``).  Chunks are internally re-grouped
into fixed seed blocks, which makes the output **bit-identical for any chunk
size** and, for ``n <= block_rows``, bit-identical to the monolithic driver.

Three knobs, three jobs — reach for them in this order:

* ``chunk_size`` (``run_trials``/``sweep``/CLI ``--chunk-size``, the batch
  engine, ``run_batch(..., chunk_size=...)``) bounds one process's **peak
  memory**: use it when ``n * d`` (or the 8x-larger transient report/score
  matrices) threatens RAM.
* ``workers`` fans trial shards across **processes** for wall-clock speed;
  it does not reduce per-process memory.  The two compose: shards bound a
  worker's task, chunks bound its footprint.
* ``shard_size`` controls artifact/resume **granularity** when a ``store``
  persists results; it affects neither memory nor output bits.

A fourth, orthogonal knob picks the randomizer *backend*: ``kernel="fast"``
(``run_trials``/``sweep``/the batch engine/CLI ``--kernel``) swaps the
bit-exact reference sampling kernels for the alias-table + raw-bit backend
of :mod:`repro.kernels` — same output distribution (conformance-tested),
several-fold less sampling time, different random stream.  Artifact keys
record the kernel only when non-default, so existing stores keep resuming.

The ingestion service
---------------------

:func:`repro.sim.service.run_service` is the production-shaped front end:
instead of replaying a finished batch, simulated clients *submit messages*
to an asyncio event loop under a :class:`~repro.workloads.traffic.
TrafficModel` (arrival bursts, stragglers, retransmit duplicates, bounded
clock skew).  The online :class:`~repro.core.server.Server` clock stays
strictly enforced — early (skewed) messages are buffered until their
interval closes, never folded ahead of time — retransmits are discarded at
the deduplication seam, and live prefix/range estimates are served
mid-stream with an explicit policy (``raise`` or ``clamp``) for periods
that have not closed yet.  Block randomization shards across worker
processes on the same seed-tree contract as everything else: any
``workers`` count is bit-identical to serial.  ``repro serve-sim`` is the
CLI front end; ``repro bench --mode service`` records sustained reports/sec
into ``BENCH_service.json``.

Fault tolerance: which knob for which failure
---------------------------------------------

Three independent knobs on :func:`~repro.sim.service.run_service` cover
three failure classes — pick by what you are defending against:

* ``workers=N`` + ``retry=RetryPolicy(...)`` defend against **transient
  shard failures** (a worker process crashing, hanging past its timeout, or
  returning a corrupt payload).  Supervision retries the shard with
  simulated — never wallclock — backoff, respawns a broken process pool,
  and preserves already-finished shards; because block randomness is a pure
  function of seed-tree coordinates, the retried run stays bit-identical to
  a fault-free one.  A shard that exhausts its retries is *degraded*, not
  fatal: the service keeps serving, the loss is folded into
  :class:`TrafficStats` and the fault-adjusted conformance radius, and the
  result is marked ``degraded``.
* ``journal="results/journal"`` defends against **whole-process death**
  (kill -9, OOM, power loss).  Every released estimate is appended to a
  checksummed write-ahead journal, with a full state snapshot every
  ``snapshot_every`` periods.  ``resume=True`` restores the latest
  snapshot, re-verifies the journaled tail against a replay (divergence
  raises :class:`~repro.sim.journal.JournalError` — it never silently
  serves someone else's journal), and serves the remaining periods; the
  released stream is bit-identical to an uninterrupted run.
* ``faults="chaos"`` (or any :data:`repro.faults.FAULT_MODELS` preset) is
  the **drill**: deterministic, seed-derived fault injection to prove the
  two mechanisms above actually hold.  ``repro chaos`` runs the full
  preset-by-workers matrix and exits non-zero on any bit-identity or
  radius violation.

``resume=`` here recovers a *service journal* mid-stream; the sweep-level
``resume=`` below reloads finished *result-store shards*.  Same word,
different layer — they compose.

Scaling sweeps
--------------

``run_trials`` and ``sweep`` take three knobs that turn a laptop-sized
experiment into a persisted, resumable grid run (see :mod:`repro.sim.parallel`
and :mod:`repro.sim.store`):

* ``workers=N`` — trial chunks from every sweep point and protocol fan out
  across a ``ProcessPoolExecutor``.  Seeding is sharding-invariant: each
  trial's generator descends from the same root ``SeedSequence`` node no
  matter where it executes, so the output is **bit-identical for any worker
  count** (``workers=4`` equals ``workers=1`` equals the historical serial
  loop).  Registry protocols cross the process boundary by name; plain
  callables must be picklable (module-level functions are).
* ``store=ResultStore("results/")`` — every (protocol, sweep point, trial
  chunk) is persisted as a content-addressed JSON artifact under
  ``results/shards/``, keyed by a SHA-256 of the protocol name, parameters,
  seed path, trial indices and workload digest, and carrying provenance
  (git SHA, timing, worker count) plus an integrity checksum.  Merged tables
  land under ``results/tables/``.
* ``resume=True`` (default when a store is given) — shards whose artifacts
  already exist are reloaded instead of recomputed, so re-running an
  interrupted sweep executes only the missing shards and produces the same
  table bit-for-bit.  A corrupted artifact raises
  :class:`~repro.sim.store.ArtifactCorruptedError` instead of being silently
  recomputed.

The CLI front-end::

    repro sweep --protocols future_rand erlingsson --parameter k \\
        --values 2 8 32 --n 4000 --d 64 --trials 5 \\
        --workers 4 --out results/ --resume
    repro results show results/
    repro results merge merged.json results/tables/*.json
"""

from repro.sim.batch_engine import BatchSimulationEngine, run_batch_engine
from repro.sim.chunked import (
    ChunkedTreeAccumulator,
    collect_tree_reports_chunked,
    run_batch_chunked,
    run_chunked_population,
)
from repro.sim.engine import SimulationEngine, StepSnapshot
from repro.sim.parallel import default_workers, plan_shards
from repro.sim.results import ResultTable, format_markdown_table
from repro.sim.runner import (
    ProtocolRunner,
    TrialStatistics,
    run_trials,
    sweep,
)
from repro.sim.service import (
    AggregateMessage,
    IngestionService,
    OpenIntervalError,
    ServiceResult,
    TrafficStats,
    run_service,
)
from repro.sim.store import (
    ArtifactCorruptedError,
    ResultStore,
    ResultStoreError,
    ShardKey,
    merge_tables,
)

__all__ = [
    "BatchSimulationEngine",
    "run_batch_engine",
    "ChunkedTreeAccumulator",
    "collect_tree_reports_chunked",
    "run_batch_chunked",
    "run_chunked_population",
    "SimulationEngine",
    "StepSnapshot",
    "AggregateMessage",
    "IngestionService",
    "OpenIntervalError",
    "ServiceResult",
    "TrafficStats",
    "run_service",
    "ResultTable",
    "format_markdown_table",
    "ProtocolRunner",
    "TrialStatistics",
    "run_trials",
    "sweep",
    "ResultStore",
    "ResultStoreError",
    "ArtifactCorruptedError",
    "ShardKey",
    "merge_tables",
    "default_workers",
    "plan_shards",
]
