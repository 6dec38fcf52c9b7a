"""Per-layer tracing of ``run_service`` from outside the library.

A :class:`Tracer` replaces the public entry point of each layer on the
service's path with a timing wrapper for the duration of a ``with`` block,
and puts the originals back on exit.  The wrappers only read clocks and
sizes: they never touch an RNG or an argument, so a traced pass releases
the same bits as an untraced one (the benchmark checks this on every traced
run).

Stages without a public entry point are reported as the gap between the
spans around them (``GAP_METRICS``):

* the block phase runs from the ``run_service`` call to the construction of
  the :class:`~repro.sim.service.IngestionService`; ``service.block_other_s``
  is what is left of it after every traced call inside it (the order draw,
  the per-block reduction and the casts);
* ``service.plan_s`` runs from there to the first ``open_period`` (message
  build, traffic scheduling, grouping by period, event-loop start);
* ``service.serve_s`` runs from the first ``open_period`` to the return of
  ``run_service``.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, NamedTuple

import repro.sim.service as service_module
from repro.core.future_rand import FutureRandFamily
from repro.core.server import Server
from repro.sim.journal import ServiceJournal
from repro.sim.service import IngestionService
from repro.workloads.generators import BoundedChangePopulation


class LayerMetric(NamedTuple):
    """One per-layer metric and the end-to-end figure it should move."""

    name: str
    unit: str
    moves: str


_FOLD_MOVES = (
    "durable/release_ms_p50, release_ms_p95, reports_per_s; fan-in (not gated)"
)

LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("generators.sample_s", "s",
                "population/first_release_s, population/reports_per_s; "
                "setup_s of fan-in and durable"),
    LayerMetric("vectorized.validate_s", "s", "population/first_release_s"),
    LayerMetric("vectorized.partition_s", "s", "population/first_release_s"),
    LayerMetric("vectorized.partials_s", "s", "population/first_release_s"),
    LayerMetric("kernel.randomize_s", "s", "population/first_release_s"),
    LayerMetric("kernel.entries", "count", "population/first_release_s"),
    LayerMetric("kernel.ns_per_entry", "ns", "population/first_release_s"),
    LayerMetric("service.block_other_s", "s", "population/first_release_s"),
    LayerMetric("pool.start_s", "s", "population/first_release_s"),
    LayerMetric("pool.map_s", "s", "population/first_release_s"),
    LayerMetric("pool.bytes_in", "bytes", "population/first_release_s"),
    LayerMetric("pool.bytes_out", "bytes", "population/first_release_s"),
    LayerMetric("traffic.schedule_s", "s",
                "durable/first_release_s; fan-in (not gated)"),
    LayerMetric("service.plan_s", "s", "durable/first_release_s; fan-in (not gated)"),
    LayerMetric("server.fold_s", "s", _FOLD_MOVES),
    LayerMetric("server.folds", "count", _FOLD_MOVES),
    LayerMetric("server.fold_us_per_message", "us", _FOLD_MOVES),
    LayerMetric("service.close_s", "s", _FOLD_MOVES),
    LayerMetric("service.serve_s", "s", _FOLD_MOVES),
    LayerMetric("service.messages_per_s", "1/s", _FOLD_MOVES),
    LayerMetric("service.peak_queue_depth", "count", _FOLD_MOVES),
    LayerMetric("service.dedup_ratio", "ratio", _FOLD_MOVES),
    LayerMetric("journal.append_s", "s", "durable/release_ms_p50, reports_per_s"),
    LayerMetric("journal.appends", "count", "durable/release_ms_p50, reports_per_s"),
    LayerMetric("journal.bytes", "bytes", "durable/release_ms_p50, reports_per_s"),
    LayerMetric("journal.snapshot_s", "s", "durable/release_ms_p95, reports_per_s"),
    LayerMetric("journal.snapshots", "count", "durable/release_ms_p95, reports_per_s"),
    LayerMetric("journal.snapshot_bytes", "bytes",
                "durable/release_ms_p95, reports_per_s"),
    LayerMetric("trace.overhead", "ratio", "none: traced over untraced reports_per_s"),
    LayerMetric("trace.base_reports_per_s", "1/s",
                "none: the untraced base of trace.overhead"),
    LayerMetric("trace.target_share", "ratio",
                "none: the workload's target layers over traced wall time"),
)

GAP_METRICS = ("service.block_other_s", "service.plan_s", "service.serve_s")


class Tracer:
    """Accumulated seconds, call counts and first-call marks of one pass."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.marks: dict[str, tuple[float, float]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def add(self, name: str, seconds: float) -> None:
        """Record one call of ``name`` that took ``seconds``."""
        self.seconds[name] += seconds
        self.counts[name] += 1

    def mark(self, name: str) -> None:
        """Remember the first time ``name`` happened, and the traced time
        accumulated before it (so a phase's residual can be computed)."""
        if name not in self.marks:
            self.marks[name] = (time.perf_counter(), sum(self.seconds.values()))

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _timed(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - started)

        return wrapper

    def _timed_async(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - started)

        return wrapper

    def install_layers(self) -> None:
        """Wrap every in-process layer on the service's path."""
        for attribute, name in (
            ("validate_states", "vectorized.validate"),
            ("partition_rows_by_order", "vectorized.partition"),
            ("group_partial_sums", "vectorized.partials"),
            ("schedule_arrivals", "traffic.schedule"),
        ):
            self._patch(
                service_module,
                attribute,
                self._timed(name, getattr(service_module, attribute)),
            )
        self._patch(
            BoundedChangePopulation,
            "sample",
            self._timed("generators.sample", BoundedChangePopulation.sample),
        )
        self._patch(
            Server,
            "receive_aggregate",
            self._timed("server.fold", Server.receive_aggregate),
        )
        self._patch(
            IngestionService,
            "snapshot_state",
            self._timed("journal.snapshot", IngestionService.snapshot_state),
        )
        self._patch(
            IngestionService,
            "close_period",
            self._timed_async("service.close", IngestionService.close_period),
        )

        randomize = self._timed(
            "kernel.randomize", FutureRandFamily.randomize_matrix
        )

        @functools.wraps(FutureRandFamily.randomize_matrix)
        def randomize_matrix(family, values, *args, **kwargs):
            self.counts["kernel.entries"] += int(values.size)
            return randomize(family, values, *args, **kwargs)

        self._patch(FutureRandFamily, "randomize_matrix", randomize_matrix)

        init = IngestionService.__init__

        @functools.wraps(init)
        def service_init(service, *args, **kwargs):
            self.mark("service_init")
            init(service, *args, **kwargs)

        self._patch(IngestionService, "__init__", service_init)

        open_period = IngestionService.open_period

        @functools.wraps(open_period)
        async def first_open(service, t):
            self.mark("first_open")
            await open_period(service, t)

        self._patch(IngestionService, "open_period", first_open)

        append = self._timed("journal.append", ServiceJournal.append)

        @functools.wraps(ServiceJournal.append)
        def journal_append(journal, kind, body):
            if kind != "snapshot":
                return append(journal, kind, body)
            before = file_size(journal.path)
            append(journal, kind, body)
            self.counts["journal.snapshot_bytes"] += file_size(journal.path) - before

        self._patch(ServiceJournal, "append", journal_append)

    def install_pool(self) -> None:
        """Replace the service's process pool with a measuring stand-in."""
        self._patch(
            service_module,
            "ProcessPoolExecutor",
            functools.partial(_TracedPool, self),
        )

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def file_size(path) -> int:
    """Size of ``path`` in bytes; 0 before the file exists."""
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


class _TracedPool(ProcessPoolExecutor):
    """``ProcessPoolExecutor`` that times its start and map, and counts the
    pickled bytes each way.

    With the fork start method every worker is forked inside the first
    ``submit``, so ``pool.start_s`` is the constructor plus that call.  The
    byte counts are taken after the last result arrives, outside
    ``pool.map_s``.
    """

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        started = time.perf_counter()
        super().__init__(*args, **kwargs)
        self._tracer = tracer
        self._start_s = time.perf_counter() - started

    def submit(self, *args, **kwargs):
        if self._start_s is None:
            return super().submit(*args, **kwargs)
        started = time.perf_counter()
        future = super().submit(*args, **kwargs)
        self._tracer.add("pool.start", self._start_s + time.perf_counter() - started)
        self._start_s = None
        return future

    def map(self, function, *iterables, **kwargs):
        started = time.perf_counter()
        arguments = [list(iterable) for iterable in iterables]
        results = super().map(function, *arguments, **kwargs)
        return self._drain(started, arguments, results)

    def _drain(self, started, arguments, results):
        collected = []
        for result in results:
            collected.append(result)
            yield result
        self._tracer.add("pool.map", time.perf_counter() - started)
        self._tracer.counts["pool.bytes_in"] += sum(
            len(pickle.dumps(item)) for group in arguments for item in group
        )
        self._tracer.counts["pool.bytes_out"] += sum(
            len(pickle.dumps(result)) for result in collected
        )
