"""Property tests: admissible delivery never changes what the tree says.

The service's correctness claim is order-independence — folding the same
aggregate multiset through any admissible interleaving (shuffled fold
order, early clock-skewed submission, deduplicated retransmits) releases
bit-identical estimates.  All totals are sums of ±1 reports, so every
intermediate value is exactly representable and equality is exact.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server import Server
from repro.sim.service import AggregateMessage, IngestionService

D = 8
C_GAP = 0.5


@st.composite
def node_aggregate(draw):
    """One feasible aggregate: ±1 reports pin total to count's parity."""
    order = draw(st.integers(0, 3))
    index = draw(st.integers(1, D >> order))
    count = draw(st.integers(1, 5))
    positives = draw(st.integers(0, count))
    return (order, index, 2 * positives - count, count)


def aggregates(max_size: int = 24):
    return st.lists(node_aggregate(), min_size=1, max_size=max_size)


def _fold(items) -> np.ndarray:
    server = Server(D, C_GAP)
    server.advance_to(D)
    for order, index, total, count in items:
        server.receive_aggregate(order, index, total, count)
    return np.array([server.estimate(t) for t in range(1, D + 1)])


def _messages(items) -> list[AggregateMessage]:
    return [
        AggregateMessage(
            message_id=(position, order, index),
            order=order,
            index=index,
            total=float(total),
            count=count,
            emitted_at=index << order,
        )
        for position, (order, index, total, count) in enumerate(items)
    ]


def _serve(messages, submit_at) -> np.ndarray:
    """Drive the service one period at a time with an explicit arrival plan."""

    async def drive() -> np.ndarray:
        service = IngestionService(D, C_GAP)
        try:
            for t in range(1, D + 1):
                await service.open_period(t)
                for message in messages:
                    if submit_at[(message.message_id, message.copy)] == t:
                        await service.submit(message)
                await service.close_period(t)
        finally:
            await service.shutdown()
        return np.asarray(service.released, dtype=np.float64)

    return asyncio.run(drive())


def _on_time(messages) -> dict:
    return {(m.message_id, m.copy): m.emitted_at for m in messages}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), items=aggregates())
def test_fold_order_never_changes_estimates(data, items):
    """The Server's aggregate fold is permutation-invariant."""
    shuffled = data.draw(st.permutations(items))
    assert np.array_equal(_fold(items), _fold(shuffled))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), items=aggregates(max_size=16))
def test_early_submission_and_shuffling_are_invisible(data, items):
    """Any clock-skewed (early) arrival plan releases identical estimates.

    Each message is submitted at a drawn period in ``[1, emitted_at]`` — the
    service buffers it until its interval closes — and the per-period
    delivery order is shuffled.  The released estimates must match on-time,
    in-order delivery bit for bit.
    """
    messages = _messages(items)
    canonical = _serve(messages, _on_time(messages))
    submit_at = {
        (m.message_id, m.copy): data.draw(st.integers(1, m.emitted_at))
        for m in messages
    }
    shuffled = data.draw(st.permutations(messages))
    assert np.array_equal(canonical, _serve(shuffled, submit_at))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), items=aggregates(max_size=12))
def test_deduplicated_retransmits_are_invisible(data, items):
    """A retransmit copy of every message changes nothing with dedup on."""
    messages = _messages(items)
    canonical = _serve(messages, _on_time(messages))
    doubled = messages + [
        AggregateMessage(
            message_id=m.message_id,
            order=m.order,
            index=m.index,
            total=m.total,
            count=m.count,
            emitted_at=m.emitted_at,
            copy=1,
        )
        for m in messages
    ]
    submit_at = _on_time(messages)
    for m in messages:
        # The copy lands anywhere from its emission to the horizon.
        submit_at[(m.message_id, 1)] = data.draw(st.integers(m.emitted_at, D))
    assert np.array_equal(canonical, _serve(doubled, submit_at))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), items=aggregates(max_size=16))
def test_service_matches_direct_server_fold(data, items):
    """The asyncio front end is a delivery layer, not a second estimator."""
    messages = _messages(items)
    submit_at = {
        (m.message_id, m.copy): data.draw(st.integers(1, m.emitted_at))
        for m in messages
    }
    released = _serve(messages, submit_at)
    assert np.array_equal(released, _fold(items))
