"""Tests for Algorithm 1 (client) and Algorithm 2 (server)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.client import Client, Report
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.core.server import Server
from repro.dyadic.intervals import decompose_prefix, decompose_range
from repro.dyadic.partial_sums import partial_sums_of_order
from repro.dyadic.prefix_matrix import flat_offsets, reconstruct_all_prefixes
from repro.protocols import get_protocol


@pytest.fixture
def family() -> FutureRandFamily:
    return FutureRandFamily(k=2, epsilon=1.0)


class TestClient:
    def test_order_in_range(self, family):
        for seed in range(30):
            client = Client(0, d=16, family=family, rng=np.random.default_rng(seed))
            assert 0 <= client.order <= 4

    def test_order_distribution_uniform(self, family):
        orders = [
            Client(0, d=8, family=family, rng=np.random.default_rng(seed)).order
            for seed in range(2000)
        ]
        counts = np.bincount(orders, minlength=4)
        # 4 orders, each expected 500; 5-sigma band ~ 110
        assert all(abs(count - 500) < 150 for count in counts)

    def test_reports_exactly_at_multiples(self, family, rng):
        client = Client(0, d=16, family=family, rng=rng)
        period = 1 << client.order
        states = [0] * 16
        for t in range(1, 17):
            report = client.step(states[t - 1])
            if t % period == 0:
                assert report is not None
                assert report.index == t // period
                assert report.order == client.order
            else:
                assert report is None

    def test_report_count_is_length(self, family, rng):
        client = Client(3, d=16, family=family, rng=rng)
        reports = [r for r in (client.step(0) for _ in range(16)) if r is not None]
        assert len(reports) == 16 >> client.order
        assert all(report.user_id == 3 for report in reports)

    def test_rejects_bad_state(self, family, rng):
        client = Client(0, d=4, family=family, rng=rng)
        with pytest.raises(ValueError):
            client.step(2)

    def test_rejects_steps_beyond_horizon(self, family, rng):
        client = Client(0, d=4, family=family, rng=rng)
        for state in (0, 0, 1, 1):
            client.step(state)
        with pytest.raises(RuntimeError):
            client.step(0)

    def test_c_gap_exposed(self, rng):
        """The object session debiases with its clients' family gap."""
        params = ProtocolParams(n=3, d=4, k=2, epsilon=1.0)
        session = get_protocol("future_rand_object").prepare(params, rng)
        assert session.c_gap == FutureRandFamily(k=2, epsilon=1.0).c_gap

    def test_sparse_user_within_budget_works(self, family, rng):
        """A user with k changes must never trip the randomizer's budget,
        whatever order was sampled (Observation 3.6)."""
        states = np.array([0, 1, 1, 1, 1, 0, 0, 0], dtype=np.int8)  # 2 changes
        for seed in range(40):
            client = Client(0, d=8, family=family, rng=np.random.default_rng(seed))
            for state in states:
                client.step(int(state))  # must not raise


class TestServer:
    def test_register_validates_order(self):
        server = Server(8, c_gap=0.5)
        with pytest.raises(ValueError):
            server.register(0, 4)
        server.register(0, 3)
        server.advance_to(8)
        server.receive(Report(0, order=3, index=1, bit=1))
        assert server.reports_received == 1

    def test_register_conflicting_order(self):
        server = Server(8, c_gap=0.5)
        server.register(0, 1)
        with pytest.raises(ValueError):
            server.register(0, 2)
        server.register(0, 1)  # idempotent re-registration is fine

    def test_receive_requires_registration(self):
        server = Server(8, c_gap=0.5)
        with pytest.raises(KeyError):
            server.receive(Report(user_id=9, order=0, index=1, bit=1))

    def test_receive_validates_order_and_bit(self):
        server = Server(8, c_gap=0.5)
        server.register(0, 1)
        with pytest.raises(ValueError):
            server.receive(Report(0, order=2, index=1, bit=1))
        with pytest.raises(ValueError):
            server.receive(Report(0, order=1, index=1, bit=0))

    def test_online_clock_rejects_future_reports(self):
        server = Server(8, c_gap=0.5)
        server.register(0, 1)
        server.advance_to(2)
        server.receive(Report(0, order=1, index=1, bit=1))
        with pytest.raises(ValueError):
            server.receive(Report(0, order=1, index=2, bit=1))  # emitted at t=4

    def test_clock_cannot_go_backwards(self):
        server = Server(8, c_gap=0.5)
        server.advance_to(5)
        with pytest.raises(ValueError):
            server.advance_to(3)

    def test_estimate_scaling(self):
        """Hand-checkable: d=4 (3 orders), c_gap=0.5 -> scale = 3/0.5 = 6."""
        server = Server(4, c_gap=0.5)
        server.register(0, 0)
        server.advance_to(4)
        for index in range(1, 5):
            server.receive(Report(0, order=0, index=index, bit=1))
        # a_hat[1] uses C(1) = {I_{0,1}} -> 6 * 1
        assert server.estimate(1) == pytest.approx(6.0)
        # a_hat[3] uses C(3) = {I_{1,1}, I_{0,3}}; I_{1,1} empty -> 6 * (0 + 1)
        assert server.estimate(3) == pytest.approx(6.0)

    def test_partial_sum_estimate(self):
        """``S_hat(I_{1,1})`` is the scaled node sum (Algorithm 2, line 5)."""
        server = Server(4, c_gap=0.5)
        server.register(0, 1)
        server.advance_to(2)
        server.receive(Report(0, order=1, index=1, bit=-1))
        # C(2) = {I_{1,1}}; scale = (1 + log2 4) / 0.5 = 6.
        assert server.estimate(2) == pytest.approx(-6.0)

    def test_estimate_range_validation(self):
        server = Server(4, c_gap=0.5)
        with pytest.raises(ValueError):
            server.estimate(0)
        with pytest.raises(ValueError):
            server.estimate(5)

    def test_horizon_and_scale(self):
        """``a_hat[16]`` on d=16 is the root node times ``(1 + 4) / 0.5``."""
        server = Server(16, c_gap=0.5)
        server.register(0, 4)
        server.advance_to(16)
        server.receive(Report(0, order=4, index=1, bit=1))
        assert server.estimate(16) == pytest.approx((1 + 4) / 0.5)
        with pytest.raises(ValueError):
            server.estimate(17)

    def test_rejects_bad_c_gap(self):
        with pytest.raises(ValueError):
            Server(4, c_gap=0.0)

    def test_receive_batch_accumulates_column_sum(self):
        server = Server(4, c_gap=0.5)
        server.advance_to(2)
        count = server.receive_batch(1, 1, np.array([1, 1, -1, 1], dtype=np.int8))
        assert count == 4
        assert server.reports_received == 4
        # scale = (1 + log2 4) / 0.5 = 6; column sum = 2; C(2) = {I_{1,1}}.
        node = flat_offsets(4)[1]  # the slot of I_{1,1}
        assert server.flat_node_values()[node] == 2.0
        assert server.estimate(2) == pytest.approx(6.0 * 2.0)

    def test_receive_batch_matches_individual_receives(self):
        bits = np.array([1, -1, 1, 1, -1], dtype=np.int8)
        batched = Server(8, c_gap=0.5)
        batched.advance_to(4)
        batched.receive_batch(2, 1, bits)
        individual = Server(8, c_gap=0.5)
        for user, _bit in enumerate(bits):
            individual.register(user, 2)
        individual.advance_to(4)
        for user, bit in enumerate(bits):
            individual.receive(Report(user, order=2, index=1, bit=int(bit)))
        assert batched.estimate(4) == pytest.approx(individual.estimate(4))
        assert batched.reports_received == individual.reports_received

    def test_receive_batch_respects_online_clock(self):
        server = Server(8, c_gap=0.5)
        server.advance_to(2)
        with pytest.raises(ValueError):
            server.receive_batch(2, 1, np.array([1], dtype=np.int8))  # time 4 > 2

    def test_receive_batch_validates_inputs(self):
        server = Server(4, c_gap=0.5)
        server.advance_to(4)
        with pytest.raises(ValueError):
            server.receive_batch(5, 1, np.array([1]))  # order beyond log2 d
        with pytest.raises(ValueError):
            server.receive_batch(0, 0, np.array([1]))  # index below 1
        with pytest.raises(ValueError):
            server.receive_batch(0, 5, np.array([1]))  # beyond horizon
        with pytest.raises(ValueError):
            server.receive_batch(0, 1, np.array([1, 0]))  # bit not in {-1, +1}
        with pytest.raises(ValueError):
            server.receive_batch(0, 1, np.ones((2, 2)))  # not 1-D

    def test_receive_batch_empty_is_noop(self):
        server = Server(4, c_gap=0.5)
        server.advance_to(4)
        assert server.receive_batch(0, 1, np.array([], dtype=np.int8)) == 0
        assert server.reports_received == 0

    def test_prefix_operator_matches_per_period_estimates(self):
        """The vectorized prefix-decomposition operator the batch drivers
        use must reproduce the server's per-period decompose_prefix walk."""
        server = Server(8, c_gap=0.5)
        rng_local = np.random.default_rng(0)
        for t in range(1, 9):
            server.advance_to(t)
            for order in range(4):
                if t % (1 << order) == 0:
                    bits = rng_local.choice([-1, 1], size=5).astype(np.int8)
                    server.receive_batch(order, t >> order, bits)
        expected = np.array([server.estimate(t) for t in range(1, 9)])
        np.testing.assert_allclose(
            (4 / 0.5) * reconstruct_all_prefixes(server.flat_node_values(), 8),
            expected,
        )

    def test_duplicate_reports_rejected_by_default(self):
        server = Server(4, c_gap=0.5)
        server.register(0, 1)
        server.advance_to(2)
        server.receive(Report(0, order=1, index=1, bit=1))
        with pytest.raises(ValueError):
            server.receive(Report(0, order=1, index=1, bit=-1))

    def test_distinct_indices_not_flagged_as_duplicates(self):
        server = Server(4, c_gap=0.5)
        server.register(0, 0)
        server.register(1, 0)
        server.advance_to(2)
        server.receive(Report(0, order=0, index=1, bit=1))
        server.receive(Report(1, order=0, index=1, bit=1))
        server.receive(Report(0, order=0, index=2, bit=1))
        assert server.reports_received == 3


def _server_with_history() -> Server:
    """A server with two registered users, an open clock at 4 and one report."""
    server = Server(8, c_gap=0.5)
    server.register(0, 1)
    server.register(1, 0)
    server.advance_to(4)
    server.receive(Report(0, order=1, index=1, bit=1))
    return server


def _state(server: Server) -> tuple:
    return server.time, server.reports_received, server.flat_node_values().copy()


def _assert_state_unchanged(server: Server, before: tuple) -> None:
    time, received, nodes = before
    assert server.time == time
    assert server.reports_received == received
    assert np.array_equal(server.flat_node_values(), nodes)


class TestRejectionMutatesNothing:
    """Every ingestion path validates completely before it touches state."""

    @pytest.mark.parametrize(
        "report, error, match",
        [
            pytest.param(Report(7, 0, 1, 1), KeyError, "never registered",
                         id="unregistered-user"),
            pytest.param(Report(0, 0, 2, 1), ValueError, "registered order",
                         id="order-mismatch"),
            pytest.param(Report(1, 0, 1, 0), ValueError, "bit",
                         id="bit-not-a-sign"),
            pytest.param(Report(1, 0, 6, 1), ValueError, "advance_to",
                         id="future-emission"),
            pytest.param(Report(1, 0, 9, 1), ValueError, "exceeds the horizon",
                         id="beyond-horizon"),
            pytest.param(Report(0, 1, 1, -1), ValueError, "duplicate",
                         id="duplicate"),
        ],
    )
    def test_rejected_report(self, report, error, match):
        server = _server_with_history()
        before = _state(server)
        with pytest.raises(error, match=match):
            server.receive(report)
        _assert_state_unchanged(server, before)

    def test_rejected_report_is_not_remembered_as_seen(self):
        """A report refused by the clock is accepted once the clock allows it."""
        server = _server_with_history()
        with pytest.raises(ValueError, match="advance_to"):
            server.receive(Report(1, order=0, index=6, bit=1))
        server.advance_to(6)
        server.receive(Report(1, order=0, index=6, bit=1))
        assert server.reports_received == 2

    @pytest.mark.parametrize(
        "method, args, match",
        [
            pytest.param("receive_batch", (4, 1, np.array([1])), "order",
                         id="batch-order-out-of-range"),
            pytest.param("receive_batch", (0, 0, np.array([1])), "index",
                         id="batch-index-below-one"),
            pytest.param("receive_batch", (0, 1, np.ones((2, 2))), "1-D",
                         id="batch-not-1d"),
            pytest.param("receive_batch", (0, 1, np.array([1, 0])), "-1 or",
                         id="batch-bit-not-a-sign"),
            pytest.param("receive_batch", (0, 6, np.array([1])), "advance_to",
                         id="batch-future-emission"),
            pytest.param("receive_aggregate", (0, 1, 3, 2), "feasible",
                         id="aggregate-total-beyond-count"),
            pytest.param("receive_aggregate", (0, 1, 1, 2), "feasible",
                         id="aggregate-parity"),
            pytest.param("receive_aggregate", (0, 1, 0, -1), "count",
                         id="aggregate-negative-count"),
            pytest.param("receive_aggregate", (0, 6, 0, 2), "advance_to",
                         id="aggregate-future-emission"),
        ],
    )
    def test_rejected_batch_or_aggregate(self, method, args, match):
        server = _server_with_history()
        before = _state(server)
        with pytest.raises(ValueError, match=match):
            getattr(server, method)(*args)
        _assert_state_unchanged(server, before)


class TestRangeQueries:
    """Interval-change queries over the server's tree."""

    @staticmethod
    def _noiseless_server(states) -> Server:
        """A server holding the exact partial sums of one state sequence.

        The node sums are divided by the estimator scale (c_gap=1, so
        ``1 + log2 d``), so every reconstruction reads exact counts.
        """
        row = np.asarray(states)
        d = row.size
        exact = np.concatenate(
            [partial_sums_of_order(row, order) for order in range(d.bit_length())]
        )
        server = Server(d, c_gap=1.0)
        server.restore_aggregate_state(exact / d.bit_length(), time=d)
        return server

    def test_range_change_matches_truth(self):
        states = [0, 1, 1, 0, 0, 1, 1, 1]
        server = self._noiseless_server(states)
        for left in range(1, 9):
            for right in range(left, 9):
                before = states[left - 2] if left > 1 else 0
                expected = states[right - 1] - before
                assert server.estimate_range_change(left, right) == pytest.approx(
                    expected
                )

    def test_validation(self):
        """Bounds are checked against the horizon before anything else: out
        of ``1 <= left <= right <= d`` is a ``ValueError`` naming the bound
        (never a ``KeyError``)."""
        bad_ranges = [(3, 2), (0, 2), (1, 9), (9, 9)]
        bound = "1 <= left <= right <= 8"
        server = Server(8, c_gap=1.0)
        for left, right in bad_ranges:
            with pytest.raises(ValueError, match=bound):
                server.estimate_range_change(left, right)

    def test_window_variance_advantage(self):
        """Narrow windows touch fewer noisy nodes than differencing prefixes:
        the decomposition of [t-1..t] has at most 2 intervals while two prefix
        estimates touch up to 2 log2(d)."""
        t = 255
        window_nodes = len(decompose_range(t - 1, t))
        prefix_nodes = len(decompose_prefix(t)) + len(decompose_prefix(t - 2))
        assert window_nodes < prefix_nodes


class TestClientServerLoop:
    @pytest.mark.parametrize(
        "family_type",
        [FutureRandFamily, CalibratedFutureRandFamily, BunComposedFamily],
    )
    def test_estimator_unbiased_on_static_population(self, family_type):
        """300 users all holding 1 from t=1: the mean estimate at t=d must be
        near n (unbiasedness, Eq. 12) for every composed family; k=1 keeps
        the object loop fast."""
        n, d = 300, 8
        family = family_type(k=1, epsilon=1.0)
        estimates = []
        for trial in range(30):
            rng = np.random.default_rng(1000 + trial)
            server = Server(d, family.c_gap)
            clients = [Client(u, d, family, rng) for u in range(n)]
            for client in clients:
                server.register(client.user_id, client.order)
            for t in range(1, d + 1):
                server.advance_to(t)
                for client in clients:
                    report = client.step(1)
                    if report is not None:
                        server.receive(report)
            estimates.append(server.estimate(d))
        mean = float(np.mean(estimates))
        standard_error = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
        assert abs(mean - n) < 4 * standard_error + 1e-9
