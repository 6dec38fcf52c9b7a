"""Tests for the batched online simulation engine.

Covers the online contract (per-period snapshots, clock semantics, report
accounting, fault injection) and the statistical equivalence with the object
engine — the two engines share every randomizer kernel, so their estimate
distributions must be indistinguishable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.sim.batch_engine import BatchSimulationEngine, run_batch_engine
from repro.sim.engine import SimulationEngine, StepSnapshot
from repro.sim.runner import run_trials
from repro.workloads import telemetry_fleet_scenario
from repro.workloads.generators import BoundedChangePopulation


def _estimates_digest(estimates: np.ndarray) -> str:
    """sha256 of an estimate vector's little-endian float64 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(estimates, dtype="<f8").tobytes()
    ).hexdigest()


class TestOnlineContract:
    def test_family_is_the_deployed_one(self, small_params, small_states, rng):
        """Without a family the engine deploys FutureRand at (k, epsilon)."""
        default = BatchSimulationEngine(small_params, rng=rng).run(small_states)
        family = FutureRandFamily(small_params.k, small_params.epsilon)
        assert default.family_name == family.name
        assert default.c_gap == family.c_gap

    def test_callback_invoked_every_period(self, rng):
        params = ProtocolParams(n=40, d=8, k=2, epsilon=1.0)
        states = np.zeros((40, 8), dtype=np.int8)
        snapshots: list[StepSnapshot] = []
        BatchSimulationEngine(params, rng=rng).run(states, snapshots.append)
        assert [snap.t for snap in snapshots] == list(range(1, 9))
        assert all(snap.true_count == 0 for snap in snapshots)

    def test_result_contract(self, small_params, small_states, rng):
        result = BatchSimulationEngine(small_params, rng=rng).run(small_states)
        assert result.estimates.shape == (small_params.d,)
        assert result.orders.shape == (small_params.n,)
        np.testing.assert_array_equal(
            result.true_counts, small_states.sum(axis=0)
        )

    def test_report_accounting_exact(self, small_params, small_states, rng):
        """Without drops, a user of order h sends exactly d >> h reports."""
        snapshots: list[StepSnapshot] = []
        result = BatchSimulationEngine(small_params, rng=rng).run(
            small_states, snapshots.append
        )
        delivered = sum(snap.reports_this_period for snap in snapshots)
        expected = int((small_params.d >> result.orders).sum())
        assert delivered == expected

    def test_emission_schedule(self, rng):
        """At period t only orders dividing t emit: report counts are
        monotone in the divisibility structure of t."""
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        states = np.zeros((200, 16), dtype=np.int8)
        snapshots: list[StepSnapshot] = []
        result = BatchSimulationEngine(params, rng=rng).run(
            states, snapshots.append
        )
        counts = np.bincount(result.orders, minlength=params.d.bit_length())
        for snap in snapshots:
            emitting = [
                order
                for order in range(params.d.bit_length())
                if snap.t % (1 << order) == 0
            ]
            assert snap.reports_this_period == int(counts[emitting].sum())

    def test_estimates_match_final_server_state(self, small_params, small_states):
        """The per-period online estimates equal the end-of-run reconstruction:
        every node of C(t) is complete by time t."""
        engine = BatchSimulationEngine(
            small_params, rng=np.random.default_rng(11)
        )
        snapshots: list[StepSnapshot] = []
        result = engine.run(small_states, snapshots.append)
        np.testing.assert_allclose(
            result.estimates, [snap.estimate for snap in snapshots]
        )

    def test_runner_adapter(self, small_params, small_states):
        result = run_batch_engine(
            small_states, small_params, np.random.default_rng(0)
        )
        assert result.estimates.shape == (small_params.d,)
        stats = run_trials(
            run_batch_engine, small_states, small_params, trials=2, seed=1
        )
        assert stats.trials == 2

    def test_scenario_integration(self):
        scenario = telemetry_fleet_scenario(
            n=300, d=16, k=3, rng=np.random.default_rng(2)
        )
        result = scenario.run(np.random.default_rng(3), report_drop_rate=0.2)
        assert result.estimates.shape == (16,)

    def test_shape_validation(self, rng):
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        engine = BatchSimulationEngine(params, rng=rng)
        with pytest.raises(ValueError):
            engine.run(np.zeros((10, 4), dtype=np.int8))

    def test_rejects_change_budget_violation(self, rng):
        params = ProtocolParams(n=4, d=8, k=1, epsilon=1.0)
        states = np.tile(np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int8), (4, 1))
        with pytest.raises(ValueError):
            BatchSimulationEngine(params, rng=rng).run(states)

    @pytest.mark.parametrize(
        ("row", "match"),
        [
            ([0, 1, 0, 1, 0, 0, 0, 0], "exceeding k=1"),
            ([0, 2, 2, 2, 2, 2, 2, 2], "0 or 1"),
        ],
    )
    def test_both_engines_fail_fast_on_invalid_states(self, rng, row, match):
        """Invalid states raise the same error from both engines before any
        period is played (no callback fires)."""
        params = ProtocolParams(n=4, d=8, k=1, epsilon=1.0)
        states = np.zeros((4, 8), dtype=np.int8)
        states[0] = row
        snapshots: list[StepSnapshot] = []
        messages = []
        for engine_type in (SimulationEngine, BatchSimulationEngine):
            with pytest.raises(ValueError, match=match) as caught:
                engine_type(params, rng=rng).run(states, snapshots.append)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert snapshots == []

    def test_invalid_drop_rate(self):
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            BatchSimulationEngine(params, report_drop_rate=1.0)

    @pytest.mark.parametrize(
        "family_type", [CalibratedFutureRandFamily, BunComposedFamily]
    )
    def test_custom_family(self, small_params, small_states, rng, family_type):
        family = family_type(small_params.k, small_params.epsilon)
        result = BatchSimulationEngine(small_params, family=family, rng=rng).run(
            small_states
        )
        assert result.family_name == family.name
        assert result.c_gap == family.c_gap


class TestFaultInjection:
    def test_drop_rate_biases_towards_zero(self):
        params = ProtocolParams(n=400, d=8, k=1, epsilon=1.0)
        family = CalibratedFutureRandFamily(1, 1.0)
        states = np.ones((400, 8), dtype=np.int8)
        full_mags, dropped_mags = [], []
        for trial in range(10):
            full = BatchSimulationEngine(
                params, family=family, rng=np.random.default_rng(trial)
            ).run(states)
            dropped = BatchSimulationEngine(
                params,
                family=family,
                rng=np.random.default_rng(trial),
                report_drop_rate=0.9,
            ).run(states)
            full_mags.append(abs(full.estimates[-1]))
            dropped_mags.append(abs(dropped.estimates[-1]))
        assert np.mean(dropped_mags) < np.mean(full_mags)

    def test_dropped_reports_counted_out(self):
        params = ProtocolParams(n=500, d=16, k=2, epsilon=1.0)
        states = np.zeros((500, 16), dtype=np.int8)
        snapshots: list[StepSnapshot] = []
        result = BatchSimulationEngine(
            params, rng=np.random.default_rng(5), report_drop_rate=0.5
        ).run(states, snapshots.append)
        delivered = sum(snap.reports_this_period for snap in snapshots)
        sent = int((params.d >> result.orders).sum())
        # Binomial(sent, 0.5): delivered must sit well inside (0.4, 0.6) * sent.
        assert 0.4 * sent < delivered < 0.6 * sent

    def test_fault_streams_are_pinned(self):
        """Exact output of the monolithic path with and without faults.

        Pins the ``integers`` order draw, the per-group randomization and,
        per delivered column, the drop then duplicate draws.
        """
        params = ProtocolParams(n=200, d=16, k=3, epsilon=1.0)
        states = BoundedChangePopulation(16, 3, start_prob=0.2).sample(
            200, np.random.default_rng(0)
        )
        snapshots: list[StepSnapshot] = []
        faulty = BatchSimulationEngine(
            params,
            rng=np.random.default_rng(2),
            report_drop_rate=0.3,
            report_duplicate_rate=0.2,
        ).run(states, snapshots.append)
        assert _estimates_digest(faulty.estimates) == (
            "4c855f05da4719a1d48ebe93f294f6bd437d764ae36a702b5dd8fc5c09053aa1"
        )
        assert [snap.reports_this_period for snap in snapshots] == [
            36, 61, 28, 104, 35, 60, 41, 145, 34, 65, 30, 97, 25, 58, 39, 160,
        ]
        clean = BatchSimulationEngine(
            params, rng=np.random.default_rng(2)
        ).run(states)
        assert _estimates_digest(clean.estimates) == (
            "6ab3eca52348fc1c727527bf56f7d0cb942b521e5d501bd1b72a91be3d7f4d58"
        )

    def test_invalid_duplicate_rate(self):
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            BatchSimulationEngine(params, report_duplicate_rate=1.0)
        with pytest.raises(ValueError):
            BatchSimulationEngine(params, report_duplicate_rate=-0.1)

    def test_duplicate_rate_rejected_in_chunked_mode(self):
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        with pytest.raises(ValueError, match="monolithic"):
            BatchSimulationEngine(
                params, report_duplicate_rate=0.1, chunk_size=4
            )

    def test_duplicated_reports_counted_in(self):
        params = ProtocolParams(n=500, d=16, k=2, epsilon=1.0)
        states = np.zeros((500, 16), dtype=np.int8)
        snapshots: list[StepSnapshot] = []
        result = BatchSimulationEngine(
            params, rng=np.random.default_rng(5), report_duplicate_rate=0.5
        ).run(states, snapshots.append)
        delivered = sum(snap.reports_this_period for snap in snapshots)
        sent = int((params.d >> result.orders).sum())
        # Each report arrives once plus an independent Binomial(sent, 0.5)
        # retransmission: delivered must sit well inside (1.4, 1.6) * sent.
        assert 1.4 * sent < delivered < 1.6 * sent

    def test_zero_duplicate_rate_is_bit_identical_to_no_fault(self):
        """Rate 0 consumes no randomness: the historical path is unchanged."""
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        states = BoundedChangePopulation(16, 2).sample(
            200, np.random.default_rng(0)
        )
        plain = BatchSimulationEngine(
            params, rng=np.random.default_rng(9)
        ).run(states)
        with_knob = BatchSimulationEngine(
            params, rng=np.random.default_rng(9), report_duplicate_rate=0.0
        ).run(states)
        np.testing.assert_array_equal(plain.estimates, with_knob.estimates)

    def test_duplicates_inflate_the_estimate_magnitude(self):
        """Retransmitted reports double-count noise: error grows with p."""
        params = ProtocolParams(n=400, d=8, k=1, epsilon=1.0)
        family = CalibratedFutureRandFamily(1, 1.0)
        states = np.ones((400, 8), dtype=np.int8)
        plain_err, duplicated_err = [], []
        for trial in range(10):
            plain = BatchSimulationEngine(
                params, family=family, rng=np.random.default_rng(trial)
            ).run(states)
            duplicated = BatchSimulationEngine(
                params,
                family=family,
                rng=np.random.default_rng(trial),
                report_duplicate_rate=0.9,
            ).run(states)
            plain_err.append(np.abs(plain.estimates - 400).max())
            duplicated_err.append(np.abs(duplicated.estimates - 400).max())
        assert np.mean(duplicated_err) > np.mean(plain_err)

    def test_runner_adapter_threads_duplicate_rate(self):
        params = ProtocolParams(n=50, d=8, k=1, epsilon=1.0)
        states = np.zeros((50, 8), dtype=np.int8)
        result = run_batch_engine(
            states,
            params,
            np.random.default_rng(3),
            report_duplicate_rate=0.3,
        )
        assert result.estimates.shape == (8,)
        with pytest.raises(ValueError):
            run_batch_engine(
                states, params, report_duplicate_rate=0.3, chunk_size=16
            )


class TestStatisticalEquivalence:
    """Batch engine vs. object engine: same protocol, same distributions."""

    def test_estimates_agree_within_monte_carlo_error(self):
        params = ProtocolParams(n=400, d=16, k=3, epsilon=1.0)
        states = np.zeros((400, 16), dtype=np.int8)
        states[:250, 4:] = 1  # a visible signal: 250 users flip at t=5
        trials = 25
        batch_final = np.array(
            [
                BatchSimulationEngine(params, rng=np.random.default_rng(300 + t))
                .run(states)
                .estimates[-1]
                for t in range(trials)
            ]
        )
        object_final = np.array(
            [
                SimulationEngine(params, rng=np.random.default_rng(400 + t))
                .run(states)
                .estimates[-1]
                for t in range(trials)
            ]
        )
        # Means must agree within a 4-sigma two-sample Monte-Carlo bound...
        pooled_se = np.sqrt(
            np.var(batch_final, ddof=1) / trials
            + np.var(object_final, ddof=1) / trials
        )
        assert abs(batch_final.mean() - object_final.mean()) < 4 * pooled_se
        # ...and both must be unbiased for the true count.
        true_final = float(states[:, -1].sum())
        assert abs(batch_final.mean() - true_final) < 4 * np.std(
            batch_final, ddof=1
        ) / np.sqrt(trials)

    def test_error_scale_agrees(self, small_params, small_states):
        trials = 15
        batch_errors = [
            BatchSimulationEngine(
                small_params, rng=np.random.default_rng(500 + t)
            )
            .run(small_states)
            .estimates[-1]
            - small_states[:, -1].sum()
            for t in range(trials)
        ]
        object_errors = [
            SimulationEngine(small_params, rng=np.random.default_rng(600 + t))
            .run(small_states)
            .estimates[-1]
            - small_states[:, -1].sum()
            for t in range(trials)
        ]
        ratio = np.std(batch_errors, ddof=1) / np.std(object_errors, ddof=1)
        assert 0.3 < ratio < 3.0
