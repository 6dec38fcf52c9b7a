"""Exact output pins of ``run_service``'s delivery layer.

The values were recorded from a seeded run and must pass unedited after any
rewrite of how the service schedules its clients or folds its messages:

* every :class:`TrafficStats` field (``peak_queue_depth`` included, which
  moves with the interleaving of client puts and consumer gets) and the
  sha256 of the released estimates, for every traffic preset with the
  deduplication door on and off;
* the same stats and sha256 with the submission queue shrunk to 16, so the
  ``bursty`` and ``soak`` producers block on ``put`` (their unbounded peaks
  are 24 and 23) and backpressure is part of what is pinned;
* the sha256 of the ``"period"`` records of a journaled run under soak
  traffic with clock skew, so early arrivals sit in the buffer across
  snapshots.

The door test pins that folding per node never weakens the feasibility
check: two messages for one node, each infeasible, are refused even when
their sum would be a feasible aggregate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.sim import service as service_module
from repro.sim.journal import ServiceJournal
from repro.sim.service import AggregateMessage, IngestionService, run_service
from repro.sim.store import canonical_json
from repro.workloads.generators import BoundedChangePopulation
from repro.workloads.traffic import TRAFFIC_MODELS

PARAMS = ProtocolParams(n=2000, d=32, k=3, epsilon=1.0)
#: n=2000 / 512 -> 4 blocks, so several clients share each period.
BLOCK_ROWS = 512
SEED = 7

#: ``(traffic, reject_duplicates) -> (astuple(stats), estimates sha256)``.
PINNED_STATS: dict[tuple[str, bool], tuple[tuple, str]] = {
    ("bursty", True): (
        (252, 252, 0, 0, 0, 0, 0, 20305, 20305, 0, 0, 24, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("bursty", False): (
        (252, 252, 0, 0, 0, 0, 0, 20305, 20305, 0, 0, 24, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("lossy", True): (
        (252, 248, 4, 0, 0, 0, 0, 20305, 19959, 346, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("lossy", False): (
        (252, 248, 4, 0, 0, 0, 0, 20305, 19959, 346, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("retransmit", True): (
        (252, 252, 0, 0, 4, 4, 0, 20305, 20305, 0, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("retransmit", False): (
        (252, 256, 0, 0, 4, 0, 0, 20305, 20671, 0, 366, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("skewed", True): (
        (252, 252, 0, 0, 0, 0, 206, 20305, 20305, 0, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("skewed", False): (
        (252, 252, 0, 0, 0, 0, 206, 20305, 20305, 0, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("soak", True): (
        (252, 250, 2, 6, 7, 7, 0, 20305, 20147, 158, 0, 23, 0, 0, 2000),
        "e29abe90e2e9be582fa4c606fc148cb2e1d7e3eb0478a43b9171b21c979efc54",
    ),
    ("soak", False): (
        (252, 257, 2, 6, 7, 0, 0, 20305, 20736, 158, 589, 23, 0, 0, 2000),
        "6756beaa6ed0860a7ff9a1fcf435f10378cdbd39e5e4bf427aa13dbbd5fa353c",
    ),
    ("straggler", True): (
        (252, 247, 5, 18, 0, 0, 0, 20305, 19905, 400, 0, 4, 0, 0, 2000),
        "c027060b16ed18c4b426a97f4b77ec5b93bf8daf710a01651f89bc255ee2c81d",
    ),
    ("straggler", False): (
        (252, 247, 5, 18, 0, 0, 0, 20305, 19905, 400, 0, 4, 0, 0, 2000),
        "c027060b16ed18c4b426a97f4b77ec5b93bf8daf710a01651f89bc255ee2c81d",
    ),
    ("uniform", True): (
        (252, 252, 0, 0, 0, 0, 0, 20305, 20305, 0, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
    ("uniform", False): (
        (252, 252, 0, 0, 0, 0, 0, 20305, 20305, 0, 0, 4, 0, 0, 2000),
        "f6c39b1e3775fed7dcf6f9a1947ead69b8e7c9de2e5befff423cc0f97cdb9796",
    ),
}

#: A submission-queue size below the natural peaks of ``bursty`` and ``soak``.
BACKPRESSURE_MAXSIZE = 16

#: The stats under that queue: the unbounded pins with the peak depth capped
#: at the queue size; nothing else, estimates included, moves.
PINNED_BACKPRESSURE_STATS: dict[tuple[str, bool], tuple[tuple, str]] = {
    key: (
        (*stats[:11], min(stats[11], BACKPRESSURE_MAXSIZE), *stats[12:]),
        digest,
    )
    for key, (stats, digest) in PINNED_STATS.items()
}

#: sha256 of the canonical JSON of every ``"period"`` record body, in order.
PINNED_PERIOD_RECORDS = (
    "05c8bba28023a02577aa6be348b8b3f4afef9dd7802530755af410ebbdcbc12d"
)


def _population() -> BoundedChangePopulation:
    return BoundedChangePopulation(PARAMS.d, PARAMS.k, exact_k=True)


def _digest(estimates: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(estimates, dtype="<f8").tobytes()
    ).hexdigest()


@pytest.mark.parametrize("reject_duplicates", [True, False])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC_MODELS))
def test_traffic_stats_and_estimates_are_pinned(traffic, reject_duplicates):
    result = run_service(
        _population(),
        PARAMS,
        SEED,
        traffic=traffic,
        block_rows=BLOCK_ROWS,
        reject_duplicates=reject_duplicates,
    )
    stats, digest = PINNED_STATS[traffic, reject_duplicates]
    assert dataclasses.astuple(result.stats) == stats
    assert _digest(result.estimates) == digest


@pytest.mark.parametrize("reject_duplicates", [True, False])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC_MODELS))
def test_backpressure_stats_and_estimates_are_pinned(
    monkeypatch, traffic, reject_duplicates
):
    monkeypatch.setattr(service_module, "_QUEUE_MAXSIZE", BACKPRESSURE_MAXSIZE)
    result = run_service(
        _population(),
        PARAMS,
        SEED,
        traffic=traffic,
        block_rows=BLOCK_ROWS,
        reject_duplicates=reject_duplicates,
    )
    stats, digest = PINNED_BACKPRESSURE_STATS[traffic, reject_duplicates]
    assert dataclasses.astuple(result.stats) == stats
    assert _digest(result.estimates) == digest


def test_journal_period_records_are_pinned(tmp_path):
    traffic = dataclasses.replace(
        TRAFFIC_MODELS["soak"], name="soak-skewed", max_skew=4
    )
    journal = ServiceJournal(tmp_path / "wal")
    run_service(
        _population(),
        PARAMS,
        SEED,
        traffic=traffic,
        block_rows=BLOCK_ROWS,
        journal=journal,
        snapshot_every=4,
    )
    records = journal.records()
    snapshots = [r.body for r in records if r.kind == "snapshot"]
    assert any(body["early"] for body in snapshots)
    periods = [canonical_json(r.body) for r in records if r.kind == "period"]
    assert len(periods) == PARAMS.d
    digest = hashlib.sha256("\n".join(periods).encode()).hexdigest()
    assert digest == PINNED_PERIOD_RECORDS


def _node_message(block: int, total: float, count: int) -> AggregateMessage:
    return AggregateMessage(
        message_id=(block, 0, 1),
        order=0,
        index=1,
        total=total,
        count=count,
        emitted_at=1,
    )


@pytest.mark.parametrize(
    "first, second",
    [
        ((3.0, 1), (-3.0, 1)),  # |total| > count; the sum 0 of 2 is feasible
        ((0.5, 1), (1.5, 3)),  # non-integral; the sum 2 of 4 is feasible
        ((0.0, 1), (0.0, 1)),  # wrong parity; the sum 0 of 2 is feasible
    ],
)
def test_infeasible_messages_for_one_node_are_refused(first, second):
    async def drive(service: IngestionService) -> None:
        try:
            await service.open_period(1)
            await service.submit(_node_message(0, *first))
            await service.submit(_node_message(1, *second))
            await service.close_period(1)
        finally:
            await service.shutdown()

    with pytest.raises(ValueError, match="not a feasible sum"):
        asyncio.run(drive(IngestionService(8, 0.5)))
