"""Asyncio ingestion service: heavy simulated traffic, not batch replay.

The batch engines replay a finished run period by period; this module is the
"production half" of that story — a long-running aggregation *service* whose
front end is an asyncio event loop.  Simulated concurrent clients submit
messages that arrive out of order, late, duplicated, or early (clock skew,
see :mod:`repro.workloads.traffic`); the service buffers what the online
clock does not yet admit, discards retransmits through the deduplication
seam, folds admissible aggregates into the dyadic tree via the hardened
:meth:`repro.core.server.Server.receive_aggregate`, and serves live
prefix/range estimates mid-stream with an explicit policy for intervals that
have not closed yet.

Pipeline
--------
1. **Shard** — users are split into the fixed seed blocks of
   :func:`repro.utils.chunking.plan_row_blocks`; each block is sampled and
   randomized by a worker process seeded from its own child of the root
   ``SeedSequence`` (the :mod:`repro.sim.parallel` contract: sharding
   changes *where* a block runs, never *what* it computes).  A block's
   per-node report sums come from
   :func:`repro.core.vectorized.randomize_block`, the chunked accumulator's
   block step, so the service's randomness is block-for-block the
   out-of-core pipeline's.
2. **Schedule** — each block's aggregate messages get delivery times from
   the traffic model, drawn from the *traffic* stream of the seed tree
   (independent of worker count).
3. **Serve** — an asyncio loop plays the horizon.  Each block is one
   client; per period, the loop submits the due clients' messages in
   rounds through a bounded queue — each round the next ``burst``
   messages of every due client that has any left, in block order — and
   the consumer routes them (buffer or hold for the fold) while the loop
   yields between rounds.  The period then closes: every admissible
   message passes the door one at a time, in canonical
   ``(block, order, index, copy)`` order (slot check, deduplication, the
   feasibility rule), the admitted totals are summed per dyadic node, and
   each node is folded into the server once before the estimate is
   released.  All totals are integers, so neither the interleaving of
   puts and gets nor the summation order can move a released bit.

Together 1–3 make the whole run — estimates, counters, everything — a pure
function of ``(workload, params, seed, traffic, block_rows)``: bit-identical
at ``workers=1``, 2, or 4 (regression-tested).

Fault tolerance
---------------
The service survives an imperfect machine on the same determinism budget:

* Block randomization always runs under :func:`repro.faults.run_supervised`,
  so a real worker death is retried under the default policy.
  ``run_service(..., faults=, retry=)`` adds a deterministic fault schedule
  (drawn from the root seed's dedicated fault stream) that injects crashes,
  hangs, and corrupt payloads, and sets the retry policy; bounded retries
  on a *simulated* backoff clock recover them with bit-identical
  aggregates, because block seeds are pure functions of their spawn-key
  coordinates.  A block lost after max attempts degrades the run
  gracefully: the result is marked ``degraded``, the loss lands in
  :class:`TrafficStats` (``lost_blocks``/``lost_users``), and
  ``effective_drop_rate`` widens the fault-adjusted radius accordingly.
* ``run_service(..., journal=, resume=)`` writes a write-ahead journal
  (:class:`repro.sim.journal.ServiceJournal`) of released estimates plus
  periodic full-state snapshots.  After a kill, ``resume=True`` restores
  the latest snapshot, re-verifies the journaled tail, and serves the
  remaining periods — the released stream is bit-identical to the
  uninterrupted run at any kill point and any worker count.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import hashlib
import operator
import time

# Unused here; perfbench/tracer.py patches this name on this module.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult, default_family
from repro.core.server import Server, feasible_aggregate
from repro.core.vectorized import (
    family_randomizer,
    # Unused here; perfbench/tracer.py patches these two names on this module.
    group_partial_sums,  # noqa: F401
    order_probabilities,
    partition_rows_by_order,  # noqa: F401
    randomize_block,
    validate_states,
)
from repro.dyadic.prefix_matrix import flat_node_count, flat_offsets
from repro.faults import (
    RetryPolicy,
    get_fault_model,
    plan_fault_schedule,
    run_supervised,
)
from repro.sim.engine import StepSnapshot
from repro.sim.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    ServiceJournal,
)
from repro.sim.store import ArtifactCorruptedError, states_digest
from repro.utils.chunking import DEFAULT_BLOCK_ROWS, plan_row_blocks
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.workloads.generators import Population
from repro.workloads.traffic import (
    TRAFFIC_MODELS,
    TrafficModel,
    schedule_arrivals,
)

__all__ = [
    "AggregateMessage",
    "IngestionService",
    "OpenIntervalError",
    "ServiceResult",
    "TrafficStats",
    "run_service",
]

# Seed-tree stream tags: root.spawn(4) -> (workload, protocol, traffic,
# faults).  SeedSequence children are keyed incrementally, so adding the
# fault stream left streams 0-2 — and therefore every historical run —
# bit-identical.
_STREAM_WORKLOAD = 0
_STREAM_PROTOCOL = 1
_STREAM_TRAFFIC = 2
_STREAM_FAULTS = 3

#: Default period cadence for journal snapshots.
_DEFAULT_SNAPSHOT_EVERY = 16

#: Submission-queue capacity.  Small enough that a burst actually exercises
#: backpressure (producers block on ``put``), large enough that the consumer
#: never deadlocks a single burst batch.
_QUEUE_MAXSIZE = 1024


class OpenIntervalError(ValueError):
    """A mid-stream estimate was requested for a period not yet closed."""


class AggregateMessage(NamedTuple):
    """One shard aggregate in flight: a block's report sum for one node.

    ``message_id`` is the retransmit-stable identity — a duplicate copy
    carries the *same* id, which is what the deduplication seam keys on.
    ``copy`` distinguishes the original (0) from its retransmit (1) only
    for canonical ordering and diagnostics.  An immutable tuple: the plan
    step builds one per occupied node of every block.
    """

    message_id: tuple[int, int, int]  # (block, order, index)
    order: int
    index: int
    total: float
    count: int
    emitted_at: int
    copy: int = 0

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        """Canonical intra-period fold order (pins float accumulation)."""
        return (*self.message_id, self.copy)


#: The canonical order of :attr:`AggregateMessage.sort_key`, as a C-level key.
_CANONICAL = operator.attrgetter("message_id", "copy")


@dataclass(frozen=True)
class TrafficStats:
    """Delivery accounting for one service run.

    ``lost_blocks``/``lost_users`` record graceful degradation: seed blocks
    whose randomization was permanently lost after exhausting retries.
    Their users never produced reports, so the loss is folded into
    ``effective_drop_rate`` — the fault-adjusted radius widens accordingly
    instead of the run failing.
    """

    total_messages: int
    delivered_messages: int
    dropped_messages: int
    late_messages: int
    duplicate_messages: int
    duplicates_discarded: int
    skew_buffered: int
    total_reports: int
    delivered_reports: int
    dropped_reports: int
    duplicate_reports: int
    peak_queue_depth: int
    lost_blocks: int = 0
    lost_users: int = 0
    total_users: int = 0

    @property
    def effective_drop_rate(self) -> float:
        """Fraction of reports lost (drops, stragglers, and lost blocks)."""
        rate = 0.0
        if self.total_reports:
            rate += self.dropped_reports / self.total_reports
        if self.total_users and self.lost_users:
            rate += self.lost_users / self.total_users
        return rate

    @property
    def effective_duplicate_rate(self) -> float:
        """Fraction of reports double-counted (0 when deduplication is on)."""
        if not self.total_reports:
            return 0.0
        return self.duplicate_reports / self.total_reports


@dataclass(frozen=True)
class ServiceResult:
    """A completed service run: estimates plus delivery provenance.

    ``degraded`` is True when any seed block was permanently lost (its ids
    in ``lost_blocks``); the estimates are still served, with the loss
    accounted in ``stats``.  ``fault_report`` is the supervision payload
    (:meth:`repro.faults.SupervisionReport.as_payload`) of the block
    randomization — every run is supervised, so a fault-free run reports
    its attempts with zero retries — and ``resumed_from`` is the period a
    journal recovery restarted at (0 for an uninterrupted run).
    """

    estimates: np.ndarray
    true_counts: np.ndarray
    c_gap: float
    family_name: str
    orders: np.ndarray
    traffic: TrafficModel
    stats: TrafficStats
    workers: int
    blocks: int
    elapsed_seconds: float
    degraded: bool = False
    lost_blocks: tuple[int, ...] = ()
    fault_report: dict = dataclasses.field(default_factory=dict)
    resumed_from: int = 0

    @property
    def reports_per_second(self) -> float:
        """Sustained ingestion throughput (delivered reports / wall time)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.stats.delivered_reports / self.elapsed_seconds

    def to_result(self) -> ProtocolResult:
        """The :class:`ProtocolResult` view (conformance/analysis tooling)."""
        return ProtocolResult(
            estimates=self.estimates,
            true_counts=self.true_counts.astype(np.float64),
            c_gap=self.c_gap,
            family_name=self.family_name,
            orders=self.orders,
        )


@dataclass(frozen=True)
class _BlockSpec:
    """Everything one worker needs to randomize one seed block."""

    block: int
    start: int
    stop: int
    params: ProtocolParams
    workload_child: np.random.SeedSequence
    protocol_child: np.random.SeedSequence
    population: Optional[Population] = None
    states: Optional[np.ndarray] = None
    family: Optional[RandomizerFamily] = None
    kernel: Optional[str] = None

    def sample(self) -> np.ndarray:
        """The block's states: given, or drawn from its workload seed."""
        if self.states is not None:
            return np.asarray(self.states)
        assert self.population is not None
        rng = np.random.default_rng(self.workload_child)
        return self.population.sample(self.stop - self.start, rng)


@dataclass(frozen=True)
class _BlockAggregates:
    """One block's randomized per-node sums (the worker's return value)."""

    block: int
    node_sums: list[np.ndarray]
    node_counts: list[np.ndarray]
    true_counts: np.ndarray
    orders: np.ndarray


def _randomize_service_block(spec: _BlockSpec) -> _BlockAggregates:
    """Sample and randomize one seed block (module-level: pool-picklable).

    The randomization is :func:`~repro.core.vectorized.randomize_block`, the
    block step of the out-of-core pipeline, so the service's per-block
    aggregates are bit-identical to it for the same block seed.  A given
    ``spec.states`` is a slice of a matrix :func:`run_service` validated
    whole, so only a sampled block is validated here.
    """
    params = spec.params
    d = params.d
    matrix = spec.sample()
    if spec.states is None:
        validate_states(matrix, params, rows=spec.stop - spec.start)
    if matrix.dtype != np.int8:
        matrix = matrix.astype(np.int8)

    family = spec.family if spec.family is not None else default_family(params)
    randomize = family_randomizer(family, spec.kernel)
    rng = np.random.default_rng(spec.protocol_child)
    num_orders = d.bit_length()
    node_sums = [np.zeros(d >> order) for order in range(num_orders)]
    node_counts = [np.zeros(d >> order, dtype=np.int64) for order in range(num_orders)]
    orders = randomize_block(
        matrix, rng, randomize, order_probabilities(d, None), node_sums, node_counts
    )
    return _BlockAggregates(
        block=spec.block,
        node_sums=node_sums,
        node_counts=node_counts,
        true_counts=matrix.sum(axis=0, dtype=np.int64),
        orders=orders,
    )


def _block_messages(
    aggregates: _BlockAggregates, d: int
) -> tuple[list[AggregateMessage], np.ndarray]:
    """A block's aggregate messages in canonical order, plus emission times."""
    block = aggregates.block
    messages: list[AggregateMessage] = []
    emitted: list[int] = []
    for order, counts in enumerate(aggregates.node_counts):
        occupied = np.flatnonzero(counts)
        totals = aggregates.node_sums[order][occupied].tolist()
        for index, total, count in zip(
            (occupied + 1).tolist(), totals, counts[occupied].tolist()
        ):
            emission = index << order
            messages.append(
                AggregateMessage(
                    (block, order, index), order, index, total, count, emission
                )
            )
            emitted.append(emission)
    return messages, np.asarray(emitted, dtype=np.int64)


class IngestionService:
    """The asyncio front end over one online :class:`Server`.

    Messages enter through :meth:`submit` (a bounded queue — bursty
    producers feel backpressure); a consumer task routes each message:
    early arrivals are buffered until their interval closes, retransmits of
    an already-seen ``message_id`` are discarded at the door, and everything
    admissible is folded when :meth:`close_period` fires.  The door's memory
    is one flag per node slot of each block, so it grows with the tree and
    the block count, never with the number of messages folded.  Messages
    pass the door in canonical order per period and are folded once per
    node, so estimates do not depend on task interleaving.

    ``open_interval_policy`` governs mid-stream estimates for periods not
    yet closed: ``"raise"`` (default) raises :class:`OpenIntervalError`,
    ``"clamp"`` answers with the latest closed period's information
    instead.
    """

    def __init__(
        self,
        d: int,
        c_gap: float,
        *,
        reject_duplicates: bool = True,
        open_interval_policy: str = "raise",
    ) -> None:
        if open_interval_policy not in ("raise", "clamp"):
            raise ValueError(
                "open_interval_policy must be 'raise' or 'clamp', got "
                f"{open_interval_policy!r}"
            )
        # Buffering, not bypassing the server's clock gate, handles early
        # arrivals.
        self._server = Server(d, c_gap)
        self._d = d
        self._nodes = flat_node_count(d)
        self._offsets = tuple(int(offset) for offset in flat_offsets(d))
        self._dedup = bool(reject_duplicates)
        self._policy = open_interval_policy
        self._queue: asyncio.Queue[AggregateMessage] = asyncio.Queue(
            maxsize=_QUEUE_MAXSIZE
        )
        self._consumer: Optional[asyncio.Task] = None
        self._current: list[AggregateMessage] = []
        self._early: dict[int, list[AggregateMessage]] = {}
        self._seen = bytearray()  # 1 at the node slot of every folded id
        self._released: list[float] = []
        self.delivered_reports = 0
        self.delivered_messages = 0
        self.duplicates_discarded = 0
        self.duplicate_reports = 0
        self.skew_buffered = 0
        self.peak_queue_depth = 0

    @property
    def server(self) -> Server:
        """The live aggregator (inspectable mid-stream)."""
        return self._server

    @property
    def closed_period(self) -> int:
        """The latest period whose estimate has been released."""
        return len(self._released)

    @property
    def released(self) -> list[float]:
        """Per-period estimates released so far."""
        return list(self._released)

    # -- mid-stream queries ----------------------------------------------

    def _resolve_period(self, t: int, what: str) -> int:
        if not 1 <= t <= self._d:
            raise ValueError(f"t must be in [1, {self._d}], got {t}")
        if t <= self.closed_period:
            return t
        if self._policy == "raise":
            raise OpenIntervalError(
                f"{what} for period {t} requested but only "
                f"{self.closed_period} periods have closed; retry later or "
                "construct the service with open_interval_policy='clamp'"
            )
        if not self.closed_period:
            raise OpenIntervalError(
                f"{what} requested before any period closed; nothing to "
                "clamp to yet"
            )
        return self.closed_period

    def estimate(self, t: Optional[int] = None) -> float:
        """Live prefix estimate ``a_hat[t]`` (default: latest closed period)."""
        if t is None:
            if not self.closed_period:
                raise OpenIntervalError(
                    "no period has closed yet; no estimate to serve"
                )
            return self._released[-1]
        return self._server.estimate(self._resolve_period(t, "estimate"))

    def range_estimate(self, left: int, right: int) -> float:
        """Live net-change estimate over ``[left..right]`` (mid-stream)."""
        if not 1 <= left <= right:
            raise ValueError(
                f"need 1 <= left <= right, got left={left}, right={right}"
            )
        resolved = self._resolve_period(right, "range estimate")
        if left > resolved:
            raise OpenIntervalError(
                f"range [{left}..{right}] lies entirely beyond the "
                f"{self.closed_period} closed periods"
            )
        return self._server.estimate_range_change(left, min(right, resolved))

    # -- ingestion --------------------------------------------------------

    async def submit(self, message: AggregateMessage) -> None:
        """Accept one message (bounded-queue backpressure).

        A put into a full queue suspends the caller until the consumer
        makes room.
        """
        try:
            # The common case, without the coroutine of ``Queue.put``.
            self._queue.put_nowait(message)
        except asyncio.QueueFull:
            await self._queue.put(message)

    def _start_consumer(self) -> None:
        if self._consumer is None:
            self._consumer = asyncio.ensure_future(self._consume())

    async def _consume(self) -> None:
        queue = self._queue
        while True:
            message = await queue.get()
            # A drain never yields, so the queue is deepest at its first get.
            depth = queue.qsize() + 1
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
            self._route(message)
            queue.task_done()
            while not queue.empty():
                self._route(queue.get_nowait())
                queue.task_done()

    def _route(self, message: AggregateMessage) -> None:
        if message.emitted_at > self._server.time:
            # Clock-skewed (early) arrival: the online gate would reject it,
            # so it waits in the buffer until its interval closes.
            self._early.setdefault(message.emitted_at, []).append(message)
            self.skew_buffered += 1
            return
        self._current.append(message)

    def _admit(
        self, batch: Sequence[AggregateMessage]
    ) -> dict[tuple[int, int], list[int]]:
        """Pass ``batch`` through the door in order; sum the admitted per node.

        Each message is checked on its own: its id must name a node slot
        (``block * (2d - 1) + flat_offsets(d)[order] + index - 1``), a seen
        id is discarded when deduplication is on, and the server's
        feasibility rule applies to the message alone, so a sum of
        infeasible messages can never pass as one feasible node aggregate.
        Returns ``{(order, index): [total, count]}`` of the admitted ones.
        """
        nodes: dict[tuple[int, int], list[int]] = {}
        seen, offsets, d = self._seen, self._offsets, self._d
        for message in batch:
            block, order, index = message.message_id
            if (
                block < 0
                or not 0 <= order < len(offsets)
                or not 1 <= index <= d >> order
            ):
                raise ValueError(
                    f"message id {message.message_id!r} names no node of a "
                    f"d={d} tree"
                )
            slot = block * self._nodes + offsets[order] + index - 1
            if slot >= len(seen):
                seen.extend(bytes(slot + 1 - len(seen)))
            elif self._dedup and seen[slot]:
                self.duplicates_discarded += 1
                continue
            total, count = feasible_aggregate(message.total, message.count)
            if message.copy:
                # A retransmit survived to the fold: only possible with the
                # deduplication seam disabled — these reports double-count.
                self.duplicate_reports += count
            seen[slot] = 1
            node = (message.order, message.index)
            sums = nodes.get(node)
            if sums is None:
                nodes[node] = [total, count]
            else:
                sums[0] += total
                sums[1] += count
            self.delivered_messages += 1
        return nodes

    async def open_period(self, t: int) -> None:
        """Advance the online clock to ``t`` (start accepting its intervals)."""
        self._start_consumer()
        self._server.advance_to(t)

    async def close_period(self, t: int) -> float:
        """Drain the queue, fold period ``t``'s admissible messages, release.

        Returns the released estimate ``a_hat[t]``.  Messages pass the door
        in canonical ``(block, order, index, copy)`` order, so which copy of
        a retransmit is kept never depends on producer interleaving; their
        integer totals are summed per node and each node is folded once.
        """
        if t != self.closed_period + 1:
            raise ValueError(
                f"periods close in order; expected {self.closed_period + 1}, "
                f"got {t}"
            )
        await self._queue.join()
        batch = self._current
        self._current = []
        batch.extend(self._early.pop(t, []))
        batch.sort(key=_CANONICAL)
        for (order, index), (total, count) in self._admit(batch).items():
            self.delivered_reports += self._server.receive_aggregate(
                order, index, total, count
            )
        estimate = self._server.estimate(t)
        self._released.append(estimate)
        return estimate

    async def shutdown(self) -> None:
        """Stop the consumer task (idempotent)."""
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None

    # -- journaling -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serialize the service state as a JSON-safe snapshot body.

        Everything a journal recovery needs to pick up mid-stream besides
        the released prefix (the journal's period records hold that): the
        tree's node sums, the online clock, the deduplication memory as
        base64 of its little-endian packed bits, the early-arrival buffer
        (each period's list in canonical message order, so the body does
        not depend on task interleaving), and the delivery counters.  Its
        size is bounded by the tree and the block count, not by the
        messages folded so far.  Floats travel through JSON ``repr``
        serialization, so the restored state is bit-identical.
        """
        seen = np.packbits(np.frombuffer(self._seen, np.uint8), bitorder="little")
        return {
            "t": self.closed_period,
            "node_values": self._server.flat_node_values().tolist(),
            "server_time": int(self._server.time),
            "reports_received": int(self._server.reports_received),
            "seen": base64.b64encode(seen.tobytes()).decode("ascii"),
            "early": {
                str(emitted_at): [
                    m._asdict() for m in sorted(messages, key=_CANONICAL)
                ]
                for emitted_at, messages in sorted(self._early.items())
            },
            "delivered_reports": self.delivered_reports,
            "delivered_messages": self.delivered_messages,
            "duplicates_discarded": self.duplicates_discarded,
            "duplicate_reports": self.duplicate_reports,
            "skew_buffered": self.skew_buffered,
            "peak_queue_depth": self.peak_queue_depth,
        }

    def restore_state(self, snapshot: dict, released: Sequence[float]) -> None:
        """Adopt a snapshot onto a *fresh* service (journal recovery).

        ``released`` is the estimate prefix ``a_hat[1..t]`` up to the
        snapshot's period ``t``, as the journal's period records hold it.
        """
        if self._released or self._seen or self._current or self._early:
            raise ValueError(
                "restore_state requires a fresh service (nothing ingested "
                "or released yet)"
            )
        if len(released) != int(snapshot["t"]):
            raise ValueError(
                f"snapshot at t={snapshot['t']} needs {snapshot['t']} released "
                f"estimates, got {len(released)}"
            )
        self._server.restore_aggregate_state(
            snapshot["node_values"],
            time=int(snapshot["server_time"]),
            reports_received=int(snapshot["reports_received"]),
        )
        self._released = [float(value) for value in released]
        packed = np.frombuffer(base64.b64decode(snapshot["seen"]), np.uint8)
        self._seen = bytearray(np.unpackbits(packed, bitorder="little").tobytes())
        self._early = {
            int(emitted_at): [
                AggregateMessage(
                    message_id=tuple(body["message_id"]),
                    order=int(body["order"]),
                    index=int(body["index"]),
                    total=float(body["total"]),
                    count=int(body["count"]),
                    emitted_at=int(body["emitted_at"]),
                    copy=int(body["copy"]),
                )
                for body in messages
            ]
            for emitted_at, messages in snapshot["early"].items()
        }
        self.delivered_reports = int(snapshot["delivered_reports"])
        self.delivered_messages = int(snapshot["delivered_messages"])
        self.duplicates_discarded = int(snapshot["duplicates_discarded"])
        self.duplicate_reports = int(snapshot["duplicate_reports"])
        self.skew_buffered = int(snapshot["skew_buffered"])
        self.peak_queue_depth = int(snapshot["peak_queue_depth"])


async def _deliver(
    service: IngestionService,
    batches: Sequence[list[AggregateMessage]],
    burst: int,
) -> None:
    """Submit one period's batches round-robin, ``burst`` messages at a time.

    Round ``r`` submits the ``r``-th burst of every batch that still has
    messages, in block order.  The loop yields once between rounds, so the
    consumer drains each round whole, and not after the last one, whose
    drain :meth:`IngestionService.close_period` waits for.  A put into a
    full queue suspends inside :meth:`IngestionService.submit`.
    """
    for offset in range(0, max(map(len, batches)), burst):
        if offset:
            await asyncio.sleep(0)
        for batch in batches:
            for message in batch[offset : offset + burst]:
                await service.submit(message)


async def _serve(
    service: IngestionService,
    due: dict[int, list[list[AggregateMessage]]],
    d: int,
    burst: int,
    callback: Optional[Callable[[StepSnapshot], None]],
    true_counts: np.ndarray,
    *,
    start: int = 0,
    journal: Optional[ServiceJournal] = None,
    snapshot_every: int = _DEFAULT_SNAPSHOT_EVERY,
    expected: Sequence[float] = (),
) -> None:
    """Play the horizon through the event loop, one period at a time.

    ``due`` maps a period to the batches submitted at it, one per block
    that delivers then, in block order.  Per period the loop opens ``t``,
    submits the batches due at ``t`` in rounds of ``burst`` messages per
    block (:func:`_deliver`), and closes ``t``.  ``start`` skips periods a
    journal snapshot already covers; ``expected`` carries the journaled
    estimates for periods ``start+1 .. start+len(expected)`` — those are
    *re-verified* (a divergence raises
    :class:`~repro.sim.journal.JournalError`, never silently diverges),
    while periods beyond them are appended to ``journal`` (with a full
    snapshot every ``snapshot_every`` closes).
    """
    try:
        for t in range(start + 1, d + 1):
            await service.open_period(t)
            batches = due.get(t)
            if batches:
                await _deliver(service, batches, burst)
            reports_before = service.delivered_reports
            estimate = await service.close_period(t)
            replayed = t - start <= len(expected)
            if replayed:
                journaled = expected[t - start - 1]
                if estimate != journaled:
                    raise JournalError(
                        f"resume diverged at period {t}: journaled estimate "
                        f"{journaled!r} but the replay produced {estimate!r}; "
                        "the journal does not belong to this run"
                    )
            elif journal is not None:
                journal.append(
                    "period",
                    {
                        "t": t,
                        "estimate": estimate,
                        "true_count": int(true_counts[t - 1]),
                    },
                )
                if t % snapshot_every == 0 and t < d:
                    journal.append("snapshot", service.snapshot_state())
            if callback is not None:
                callback(
                    StepSnapshot(
                        t=t,
                        estimate=estimate,
                        true_count=int(true_counts[t - 1]),
                        reports_this_period=(
                            service.delivered_reports - reports_before
                        ),
                    )
                )
    finally:
        await service.shutdown()


def _plan_blocks(
    workload: Union[np.ndarray, Population],
    params: ProtocolParams,
    workload_root: np.random.SeedSequence,
    protocol_root: np.random.SeedSequence,
    block_rows: int,
    family: Optional[RandomizerFamily],
    kernel: Optional[str],
) -> list[_BlockSpec]:
    blocks = plan_row_blocks(params.n, block_rows)
    workload_children = workload_root.spawn(len(blocks))
    protocol_children = protocol_root.spawn(len(blocks))
    specs: list[_BlockSpec] = []
    for index, (start, stop) in enumerate(blocks):
        if isinstance(workload, np.ndarray):
            states: Optional[np.ndarray] = workload[start:stop]
            population: Optional[Population] = None
        else:
            states = None
            population = workload
        specs.append(
            _BlockSpec(
                block=index,
                start=start,
                stop=stop,
                params=params,
                workload_child=workload_children[index],
                protocol_child=protocol_children[index],
                population=population,
                states=states,
                family=family,
                kernel=kernel,
            )
        )
    return specs


def _block_truth(spec: _BlockSpec) -> tuple[np.ndarray, np.ndarray]:
    """A lost block's ground truth, recomputed coordinator-side.

    Sampling and the per-user order draw are pure functions of the block's
    seed children, so the truth of a block whose *randomization* was
    permanently lost is still exactly known — only its reports are gone.
    """
    d = spec.params.d
    rng = np.random.default_rng(spec.protocol_child)
    # The first draw of randomize_block: the block's orders.
    orders = rng.choice(
        d.bit_length(), size=spec.stop - spec.start, p=order_probabilities(d, None)
    )
    return spec.sample().sum(axis=0, dtype=np.int64), orders


def _journal_config(
    params: ProtocolParams,
    root: np.random.SeedSequence,
    traffic: TrafficModel,
    block_rows: int,
    blocks: int,
    family: RandomizerFamily,
    kernel: Optional[str],
    workload: Union[np.ndarray, Population],
    reject_duplicates: bool,
    fault_model,
    retry: Optional[RetryPolicy],
) -> dict:
    """The run fingerprint a journal is bound to (resume equality gate)."""
    if isinstance(workload, np.ndarray):
        workload_fp = states_digest(workload)
    else:
        workload_fp = f"population:{type(workload).__name__}"
    return {
        "schema": JOURNAL_SCHEMA_VERSION,
        "params": {
            "n": params.n,
            "d": params.d,
            "k": params.k,
            "epsilon": params.epsilon,
            "beta": params.beta,
        },
        "seed": hashlib.sha256(
            str((root.entropy, root.spawn_key)).encode()
        ).hexdigest(),
        "traffic": dataclasses.asdict(traffic),
        "block_rows": int(block_rows),
        "blocks": int(blocks),
        "family": family.name,
        "kernel": kernel,
        "workload": workload_fp,
        "reject_duplicates": bool(reject_duplicates),
        "faults": (
            dataclasses.asdict(fault_model) if fault_model is not None else None
        ),
        "retry": dataclasses.asdict(retry) if retry is not None else None,
    }


def _scan_journal(
    records, config: dict, path: Path
) -> tuple[int, Optional[dict], list[float]]:
    """Validate journal records against this invocation's ``config``.

    Returns ``(start, snapshot, estimates)``: the period to resume from,
    the snapshot body to restore (``None`` → replay from scratch), and
    every journaled estimate — the prefix up to ``start`` is restored with
    the snapshot, and the replay must reproduce the rest exactly.
    """
    head = records[0]
    if head.kind != "config":
        raise ArtifactCorruptedError(
            f"journal {path} does not begin with a config record; it cannot "
            "be trusted — delete it to start fresh"
        )
    if head.body != config:
        raise JournalError(
            f"journal {path} was written by a different run configuration; "
            "refusing to splice two runs together (delete the journal to "
            "start fresh)"
        )
    estimates: list[float] = []
    snapshot: Optional[dict] = None
    for record in records[1:]:
        if record.kind == "period":
            t = int(record.body["t"])
            if t != len(estimates) + 1:
                raise ArtifactCorruptedError(
                    f"journal {path} period records are not consecutive "
                    f"(expected t={len(estimates) + 1}, found t={t})"
                )
            estimates.append(float(record.body["estimate"]))
        elif record.kind == "snapshot":
            if int(record.body["t"]) <= len(estimates):
                snapshot = record.body
        else:
            raise ArtifactCorruptedError(
                f"journal {path} contains an unknown record kind "
                f"{record.kind!r}"
            )
    start = int(snapshot["t"]) if snapshot is not None else 0
    return start, snapshot, estimates


def run_service(
    workload: Union[np.ndarray, Population],
    params: ProtocolParams,
    seed: SeedLike = None,
    *,
    traffic: Union[TrafficModel, str] = "uniform",
    workers: int = 1,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    family: Optional[RandomizerFamily] = None,
    kernel: Optional[str] = None,
    reject_duplicates: bool = True,
    callback: Optional[Callable[[StepSnapshot], None]] = None,
    faults=None,
    retry: Optional[RetryPolicy] = None,
    journal: Union[ServiceJournal, str, Path, None] = None,
    resume: bool = False,
    snapshot_every: int = _DEFAULT_SNAPSHOT_EVERY,
) -> ServiceResult:
    """Run the full ingestion pipeline: shard, schedule, serve.

    ``workload`` is a :class:`~repro.workloads.generators.Population` (the
    out-of-core path — workers sample their own blocks, the ``(n, d)``
    matrix never exists in one process) or a pre-sampled states matrix.
    ``traffic`` is a :class:`~repro.workloads.traffic.TrafficModel` or a
    :data:`~repro.workloads.traffic.TRAFFIC_MODELS` preset name.  The root
    ``seed`` spawns the workload, protocol, traffic, and fault streams; the
    result is bit-identical for any ``workers`` (the sharding contract)
    and, fault-free, consumes no traffic randomness.

    Block randomization always runs under
    :func:`repro.faults.run_supervised`.  ``faults`` (a
    :class:`~repro.faults.FaultModel` or preset name) injects crashes,
    hangs and corruptions, and ``retry`` (a
    :class:`~repro.faults.RetryPolicy`, default
    :data:`~repro.faults.DEFAULT_RETRY_POLICY`) bounds the retries: injected
    faults and real worker deaths are retried on the simulated backoff
    clock, with recovered runs bit-identical to fault-free ones.  A block
    permanently lost degrades the run instead of failing it — see
    :class:`ServiceResult.degraded`.

    ``journal`` names a write-ahead journal directory.  A fresh run writes
    its config, every released estimate, and a snapshot every
    ``snapshot_every`` periods; after a kill, ``resume=True`` restores the
    latest snapshot, re-verifies the journaled tail against a replay, and
    serves the remaining periods — the released stream is bit-identical to
    an uninterrupted run.  An existing journal without ``resume=True`` is
    refused (:class:`~repro.sim.journal.JournalError`), never overwritten.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if snapshot_every < 1:
        raise ValueError(
            f"snapshot_every must be at least 1, got {snapshot_every}"
        )
    if resume and journal is None:
        raise ValueError("resume=True needs a journal= to resume from")
    if isinstance(traffic, str):
        try:
            traffic = TRAFFIC_MODELS[traffic]
        except KeyError:
            known = ", ".join(sorted(TRAFFIC_MODELS))
            raise ValueError(
                f"unknown traffic model {traffic!r}; known: {known}"
            ) from None
    if isinstance(workload, np.ndarray):
        validate_states(workload, params)
    fault_model = get_fault_model(faults) if faults is not None else None

    started = time.perf_counter()
    d = params.d
    root = as_seed_sequence(seed, reset_spawn_counter=True)
    streams = root.spawn(4)
    specs = _plan_blocks(
        workload,
        params,
        streams[_STREAM_WORKLOAD],
        streams[_STREAM_PROTOCOL],
        block_rows,
        family,
        kernel,
    )
    traffic_children = streams[_STREAM_TRAFFIC].spawn(len(specs))

    resolved_family = (
        family if family is not None else default_family(params)
    )

    schedule = None
    if fault_model is not None and fault_model.active:
        schedule = plan_fault_schedule(
            fault_model, len(specs), streams[_STREAM_FAULTS]
        )

    wal: Optional[ServiceJournal] = None
    if journal is not None:
        wal = (
            journal
            if isinstance(journal, ServiceJournal)
            else ServiceJournal(journal)
        )
    start, snapshot, journaled = 0, None, []
    if wal is not None:
        config = _journal_config(
            params,
            root,
            traffic,
            block_rows,
            len(specs),
            resolved_family,
            kernel,
            workload,
            reject_duplicates,
            fault_model,
            retry,
        )
        if wal.exists() and not resume:
            raise JournalError(
                f"journal at {wal.path} already exists; pass resume=True to "
                "recover it, or delete it to start fresh"
            )
        records = wal.recover() if wal.exists() else []
        if records:
            start, snapshot, journaled = _scan_journal(records, config, wal.path)
        else:
            wal.append("config", config)

    lost: list[int] = []
    block_results, report = run_supervised(
        _randomize_service_block,
        specs,
        workers=min(workers, len(specs)),
        schedule=schedule,
        retry=retry,
        on_lost=lambda index, error: lost.append(index),
        describe=lambda index: (
            f"service block {index} "
            f"(users [{specs[index].start}, {specs[index].stop}))"
        ),
    )

    service = IngestionService(
        d, resolved_family.c_gap, reject_duplicates=reject_duplicates
    )
    due: dict[int, list[list[AggregateMessage]]] = {}
    true_counts = np.zeros(d, dtype=np.int64)
    order_chunks: list[np.ndarray] = []
    total_messages = delivered_plan = dropped_messages = 0
    late_messages = duplicate_messages = 0
    total_reports = dropped_reports = 0
    lost_users = 0

    for index, aggregates in enumerate(block_results):
        if aggregates is None:
            spec = specs[index]
            counts, orders = _block_truth(spec)
            true_counts += counts
            order_chunks.append(orders)
            lost_users += spec.stop - spec.start
            continue
        true_counts += aggregates.true_counts
        order_chunks.append(aggregates.orders)
        messages, emitted = _block_messages(aggregates, d)
        schedule = schedule_arrivals(
            emitted,
            d,
            traffic,
            np.random.default_rng(traffic_children[aggregates.block]),
        )
        total_messages += len(messages)
        delivered_plan += schedule.delivered
        dropped_messages += schedule.dropped
        late_messages += schedule.late
        duplicate_messages += schedule.duplicates
        block_periods: dict[int, list[AggregateMessage]] = {}
        for message, submit_at, resend_at in zip(
            messages,
            schedule.submit_period.tolist(),
            schedule.retransmit_period.tolist(),
        ):
            total_reports += message.count
            if submit_at == 0:
                dropped_reports += message.count
                continue
            block_periods.setdefault(submit_at, []).append(message)
            if resend_at:
                block_periods.setdefault(resend_at, []).append(
                    message._replace(copy=1)
                )
        # submit_period <= fold period always, so everything a snapshot at
        # ``start`` has not already folded (or buffered) submits after it.
        for period, batch in block_periods.items():
            if period > start:
                due.setdefault(period, []).append(batch)

    if snapshot is not None:
        service.restore_state(snapshot, journaled[:start])

    burst = max(1, int(round(traffic.burst_factor)))
    asyncio.run(
        _serve(
            service,
            due,
            d,
            burst,
            callback,
            true_counts,
            start=start,
            journal=wal,
            snapshot_every=snapshot_every,
            expected=journaled[start:],
        )
    )
    elapsed = time.perf_counter() - started

    stats = TrafficStats(
        total_messages=total_messages,
        delivered_messages=service.delivered_messages,
        dropped_messages=dropped_messages,
        late_messages=late_messages,
        duplicate_messages=duplicate_messages,
        duplicates_discarded=service.duplicates_discarded,
        skew_buffered=service.skew_buffered,
        total_reports=total_reports,
        delivered_reports=service.delivered_reports,
        dropped_reports=dropped_reports,
        duplicate_reports=service.duplicate_reports,
        peak_queue_depth=service.peak_queue_depth,
        lost_blocks=len(lost),
        lost_users=lost_users,
        total_users=params.n,
    )
    estimates = np.asarray(service.released, dtype=np.float64)
    return ServiceResult(
        estimates=estimates,
        true_counts=true_counts,
        c_gap=resolved_family.c_gap,
        family_name=resolved_family.name,
        orders=np.concatenate(order_chunks),
        traffic=traffic,
        stats=stats,
        workers=workers,
        blocks=len(specs),
        elapsed_seconds=elapsed,
        degraded=bool(lost),
        lost_blocks=tuple(sorted(lost)),
        fault_report=report.as_payload(),
        resumed_from=start,
    )
