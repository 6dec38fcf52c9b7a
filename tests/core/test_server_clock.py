"""Regression tests for the online-clock enforcement and aggregate validation.

The historical ``Server._check_emission`` read ``if self._time and
emission_time > self._time``, so a server whose clock was never advanced
(``_time == 0``) accepted *every* report — the exact gap a driver that
forgets ``advance_to`` falls into.  These tests pin the fix: the clock is
enforced unconditionally, and ``receive_aggregate`` validates totals by exact
integer arithmetic (byte-stable for in-range callers, loud for NaN/inf and
parity violations).  ``restore_aggregate_state`` (the journal-recovery seam)
accepts only a fresh server and restores a bit-identical, still clock-gated
one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.client import Report
from repro.core.server import Server


class TestUnconditionalClock:
    def test_receive_at_time_zero_is_rejected(self):
        """The historical _time==0 bypass: a fresh server must reject reports."""
        server = Server(8, c_gap=0.5)
        server.register(0, 1)
        with pytest.raises(ValueError, match="advance_to"):
            server.receive(Report(0, order=1, index=1, bit=1))

    def test_receive_batch_at_time_zero_is_rejected(self):
        server = Server(8, c_gap=0.5)
        with pytest.raises(ValueError, match="advance_to"):
            server.receive_batch(0, 1, np.array([1, -1], dtype=np.int8))

    def test_receive_aggregate_at_time_zero_is_rejected(self):
        server = Server(8, c_gap=0.5)
        with pytest.raises(ValueError, match="advance_to"):
            server.receive_aggregate(0, 1, total=2, count=4)

    def test_reports_accepted_once_clock_is_opened(self):
        server = Server(8, c_gap=0.5)
        server.register(0, 1)
        server.advance_to(2)
        assert server.receive(Report(0, order=1, index=1, bit=1)) is None

    def test_aggregate_beyond_horizon_rejected(self):
        server = Server(8, c_gap=0.5)
        server.advance_to(8)
        with pytest.raises(ValueError, match="exceeds the horizon"):
            server.receive_aggregate(0, 9, total=0, count=2)


    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: Server(8, 0.5, enforce_clock=False),
                         id="enforce_clock"),
            pytest.param(lambda: Server(8, 0.5, reject_duplicates=False),
                         id="reject_duplicates"),
            pytest.param(
                lambda: Server(8, 0.5).receive_aggregate(
                    0, 1, total=0, count=2, source=("b", 0)
                ),
                id="source",
            ),
        ],
    )
    def test_no_option_bypasses_the_gate(self, call):
        """The clock gate and the scalar dedup have no opt-out keyword."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()


class TestReceiveAggregateValidation:
    def _server(self, d: int = 8) -> Server:
        server = Server(d, c_gap=0.5)
        server.advance_to(d)
        return server

    def test_boundary_totals_accepted(self):
        for total in (-4, -2, 0, 2, 4):
            server = self._server()
            server.receive_aggregate(0, 1, total=total, count=4)

    def test_total_beyond_count_rejected(self):
        server = self._server()
        with pytest.raises(ValueError, match="not a feasible sum"):
            server.receive_aggregate(0, 1, total=5, count=4)
        with pytest.raises(ValueError, match="not a feasible sum"):
            server.receive_aggregate(0, 1, total=-5, count=4)

    def test_parity_violation_rejected(self):
        """count=4 reports of +-1 can only sum to an even total."""
        server = self._server()
        with pytest.raises(ValueError, match="not a feasible sum"):
            server.receive_aggregate(0, 1, total=3, count=4)

    def test_non_integral_float_rejected(self):
        server = self._server()
        with pytest.raises(ValueError, match="finite integer"):
            server.receive_aggregate(0, 1, total=1.5, count=4)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
    def test_nan_and_inf_rejected(self, total):
        server = self._server()
        with pytest.raises(ValueError, match="finite integer"):
            server.receive_aggregate(0, 1, total=total, count=4)

    def test_large_integer_totals_validate_exactly(self):
        """2^53-adjacent totals: exact integer arithmetic, no float parity lies.

        float(2**53 + 1) == float(2**53), so the old float-based check would
        have mis-validated parity here; the integer path keeps it exact.
        """
        count = 2**53 + 1
        server = self._server()
        server.receive_aggregate(0, 1, total=2**53 + 1, count=count)
        server = self._server()
        with pytest.raises(ValueError, match="not a feasible sum"):
            server.receive_aggregate(0, 2, total=2**53, count=count)  # parity

    def test_numpy_integer_and_integral_float_are_byte_stable(self):
        """In-range callers get identical tree state whatever scalar type."""
        variants = [2, np.int64(2), 2.0, np.float64(2.0)]
        estimates = []
        for total in variants:
            server = self._server()
            server.receive_aggregate(0, 1, total=total, count=4)
            estimates.append([server.estimate(t) for t in range(1, 9)])
        for other in estimates[1:]:
            assert np.array_equal(other, estimates[0])

    def test_aggregates_are_never_deduplicated(self):
        """Replay protection is the caller's: a repeated aggregate folds twice."""
        server = self._server()
        delivered = server.receive_aggregate(0, 1, total=2, count=4)
        delivered += server.receive_aggregate(0, 1, total=2, count=4)
        assert delivered == 8
        assert server.reports_received == 8

    def test_negative_count_rejected_and_zero_count_is_noop(self):
        server = self._server()
        with pytest.raises(ValueError, match="count"):
            server.receive_aggregate(0, 1, total=0, count=-1)
        assert server.receive_aggregate(0, 1, total=0, count=0) == 0
        assert server.reports_received == 0


def _folded_server(d: int = 8) -> Server:
    """A server that folded one aggregate per order-0 and order-1 node."""
    server = Server(d, c_gap=0.5)
    server.advance_to(d)
    for index in range(1, d + 1):
        server.receive_aggregate(0, index, total=index % 3, count=4 + index % 3)
    for index in range(1, d // 2 + 1):
        server.receive_aggregate(1, index, total=-2, count=6)
    return server


class TestRestoreAggregateState:
    def test_restored_server_is_bit_identical(self):
        folded = _folded_server()
        restored = Server(8, c_gap=0.5)
        restored.restore_aggregate_state(
            folded.flat_node_values(),
            time=folded.time,
            reports_received=folded.reports_received,
        )
        assert np.array_equal(restored.flat_node_values(), folded.flat_node_values())
        assert [restored.estimate(t) for t in range(1, 9)] == [
            folded.estimate(t) for t in range(1, 9)
        ]
        assert restored.time == folded.time
        assert restored.reports_received == folded.reports_received

    def test_restored_clock_still_gates_reports(self):
        restored = Server(8, c_gap=0.5)
        restored.restore_aggregate_state(np.zeros(15), time=4)
        restored.receive_aggregate(2, 1, total=0, count=2)  # emitted at t=4
        with pytest.raises(ValueError, match="advance_to"):
            restored.receive_aggregate(0, 5, total=0, count=2)  # t=5 > 4

    @pytest.mark.parametrize(
        "used",
        [
            pytest.param(lambda server: server.advance_to(1), id="advanced"),
            pytest.param(lambda server: server.register(0, 0), id="registered"),
            pytest.param(
                lambda server: (
                    server.register(0, 0),
                    server.advance_to(1),
                    server.receive(Report(0, order=0, index=1, bit=1)),
                ),
                id="ingested",
            ),
        ],
    )
    def test_requires_a_fresh_server(self, used):
        server = Server(8, c_gap=0.5)
        used(server)
        with pytest.raises(ValueError, match="fresh server"):
            server.restore_aggregate_state(np.zeros(15), time=8)

    def test_rejects_wrong_node_count(self):
        with pytest.raises(ValueError, match="expected 15 flat node values"):
            Server(8, c_gap=0.5).restore_aggregate_state(np.zeros(16), time=8)

    @pytest.mark.parametrize("time", [-1, 9])
    def test_rejects_time_outside_the_horizon(self, time):
        with pytest.raises(ValueError, match="time must be in"):
            Server(8, c_gap=0.5).restore_aggregate_state(np.zeros(15), time=time)

    def test_rejects_negative_report_count(self):
        with pytest.raises(ValueError, match="reports_received"):
            Server(8, c_gap=0.5).restore_aggregate_state(
                np.zeros(15), time=8, reports_received=-1
            )
