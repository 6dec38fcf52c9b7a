"""Journal snapshot cost at the end of a long service run.

``run_service(..., journal=)`` writes a full service snapshot every
``snapshot_every`` periods.  This bench times one of them — building the
body with :meth:`IngestionService.snapshot_state` and durably appending it
with :meth:`ServiceJournal.append` — on a service that has folded the
``perfbench`` ``durable`` shape (n=32768, d=256, k=4, 1024-row blocks,
``soak`` traffic) through t=248, the last snapshot that run writes.  A
snapshot holds the tree and one bit per node slot, so this cost should not
grow with the number of periods served.

The service under test is restored from the live run's own t=248 snapshot.
Every run asserts that the timed body equals the live one, and that it
restores onto a fresh service with the same node values, dedup memory and
counters.  No timing is asserted; sizes and times land in ``extra_info``.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ProtocolParams
from repro.sim.journal import ServiceJournal
from repro.sim.service import IngestionService, run_service
from repro.workloads.generators import BoundedChangePopulation

#: The ``durable`` workload's shape and its seed-0 streams.
_PARAMS = ProtocolParams(n=32_768, d=256, k=4, epsilon=1.0)
_BLOCK_ROWS = 1024
_SNAPSHOT_EVERY = 8
_T = 248

_COUNTERS = (
    "closed_period",
    "released",
    "delivered_reports",
    "delivered_messages",
    "duplicates_discarded",
    "duplicate_reports",
    "skew_buffered",
    "peak_queue_depth",
)


def _live_snapshot(root):
    """Serve the durable shape with a journal; return its t=248 state."""
    population = BoundedChangePopulation(_PARAMS.d, _PARAMS.k, exact_k=True)
    states = population.sample(
        _PARAMS.n, np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
    )
    journal = ServiceJournal(root)
    result = run_service(
        states,
        _PARAMS,
        np.random.SeedSequence(0, spawn_key=(1,)),
        traffic="soak",
        block_rows=_BLOCK_ROWS,
        journal=journal,
        snapshot_every=_SNAPSHOT_EVERY,
    )
    (body,) = [
        record.body
        for record in journal.records()
        if record.kind == "snapshot" and record.body["t"] == _T
    ]
    return result, body


def _restored(body, released, c_gap) -> IngestionService:
    service = IngestionService(_PARAMS.d, c_gap)
    service.restore_state(body, released)
    return service


def bench_snapshot_at_t248(benchmark, tmp_path):
    """snapshot_state() + ServiceJournal.append("snapshot", ...) at t=248."""
    result, live = _live_snapshot(tmp_path / "live")
    released = [float(value) for value in result.estimates[:_T]]
    service = _restored(live, released, result.c_gap)
    journal = ServiceJournal(tmp_path / "bench")

    def snapshot() -> dict:
        body = service.snapshot_state()
        journal.append("snapshot", body)
        return body

    body = benchmark.pedantic(snapshot, rounds=20, iterations=1)
    assert body == live

    again = _restored(body, released, result.c_gap)
    assert np.array_equal(
        again.server.flat_node_values(), service.server.flat_node_values()
    )
    assert again.snapshot_state()["seen"] == live["seen"]
    for name in _COUNTERS:
        assert getattr(again, name) == getattr(service, name), name

    sizes = [len(line.encode()) for line in journal.path.read_text().splitlines()]
    benchmark.extra_info["t"] = _T
    benchmark.extra_info["blocks"] = result.blocks
    benchmark.extra_info["snapshot_bytes"] = sizes[-1]
    print(f"\nsnapshot at t={_T}: {sizes[-1]} bytes, {result.blocks} blocks")
