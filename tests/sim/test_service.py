"""End-to-end tests for the asyncio ingestion service.

The headline contracts under test:

* **Sharding** — ``run_service`` is bit-identical at any worker count
  (every stream hangs off one root ``SeedSequence`` spawn tree).
* **Traffic semantics** — clock skew buffers but never changes estimates,
  retransmits with deduplication on are invisible, deduplication off
  double-counts, drops lose reports; all of it lands in ``TrafficStats``.
* **Accuracy** — fault-free runs sit inside the protocol radius; faulty
  runs sit inside the fault-adjusted radius at the *observed* rates.
* **Mid-stream queries** — the explicit open-interval policy (raise vs
  clamp) and per-period callback snapshots that match the final estimates.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading

import numpy as np
import pytest

from repro.analysis.conformance import fault_adjusted_radius, protocol_radius
from repro.core.params import ProtocolParams
from repro.core.vectorized import collect_tree_reports
from repro.sim.batch_engine import run_batch_engine
from repro.sim import service as service_module
from repro.sim.runner import run_trials, sweep
from repro.sim.service import (
    AggregateMessage,
    IngestionService,
    OpenIntervalError,
    _BlockSpec,
    _randomize_service_block,
    run_service,
)
from repro.workloads.generators import BoundedChangePopulation
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.traffic import TrafficModel

PARAMS = ProtocolParams(n=2000, d=32, k=3, epsilon=1.0)
#: Small blocks so even the tiny test population shards into several
#: worker tasks (n=2000 / 512 -> 4 blocks).
BLOCK_ROWS = 512


def _population() -> BoundedChangePopulation:
    return BoundedChangePopulation(PARAMS.d, PARAMS.k, exact_k=True)


def _serve(traffic="uniform", *, seed=7, workers=1, **kwargs):
    return run_service(
        _population(),
        PARAMS,
        seed,
        traffic=traffic,
        workers=workers,
        block_rows=BLOCK_ROWS,
        **kwargs,
    )


class TestShardingContract:
    @pytest.mark.parametrize("traffic", ["uniform", "soak"])
    def test_bit_identical_across_worker_counts(self, traffic):
        baseline = _serve(traffic)
        for workers in (2, 4):
            result = _serve(traffic, workers=workers)
            assert np.array_equal(baseline.estimates, result.estimates), (
                f"workers={workers} diverged under {traffic!r} traffic"
            )
            assert np.array_equal(baseline.true_counts, result.true_counts)
            assert baseline.stats == result.stats

    def test_same_seed_same_run(self):
        first = _serve("soak")
        second = _serve("soak")
        assert np.array_equal(first.estimates, second.estimates)
        assert first.stats == second.stats

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            _serve(workers=0)

    def test_unknown_traffic_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            _serve("smooth-sailing")


class TestBlockRandomization:
    def test_single_block_matches_collect_tree_reports(self):
        """A service block draws exactly what the monolithic client side
        draws from the same seed: same orders, same per-node sums."""
        states = _population().sample(BLOCK_ROWS, np.random.default_rng(0))
        child = np.random.SeedSequence(11)
        aggregates = _randomize_service_block(
            _BlockSpec(
                block=0,
                start=0,
                stop=BLOCK_ROWS,
                params=PARAMS,
                workload_child=np.random.SeedSequence(0),
                protocol_child=child,
                states=states,
            )
        )
        reference = collect_tree_reports(
            states,
            dataclasses.replace(PARAMS, n=BLOCK_ROWS),
            np.random.default_rng(child),
        )
        np.testing.assert_array_equal(aggregates.orders, reference.orders)
        for order, (sums, counts) in enumerate(
            zip(aggregates.node_sums, aggregates.node_counts, strict=True)
        ):
            np.testing.assert_array_equal(sums, reference.node_sums[order])
            assert (counts == reference.group_sizes[order]).all()
        np.testing.assert_array_equal(aggregates.true_counts, reference.true_counts)


class TestTrafficSemantics:
    def test_fault_free_run_is_smooth(self):
        result = _serve("uniform")
        stats = result.stats
        assert stats.dropped_messages == 0
        assert stats.duplicate_messages == 0
        assert stats.skew_buffered == 0
        assert stats.delivered_reports == stats.total_reports
        assert stats.effective_drop_rate == 0.0
        assert stats.effective_duplicate_rate == 0.0

    def test_skew_buffers_arrivals_but_not_estimates(self):
        """A skewed clock changes *submission* periods, never fold periods."""
        smooth = _serve("uniform")
        skewed = _serve("skewed")
        assert skewed.stats.skew_buffered > 0
        assert np.array_equal(smooth.estimates, skewed.estimates)

    def test_retransmits_are_invisible_with_dedup_on(self):
        smooth = _serve("uniform")
        resent = _serve("retransmit")
        assert resent.stats.duplicates_discarded > 0
        assert resent.stats.duplicate_reports == 0
        assert resent.stats.effective_duplicate_rate == 0.0
        assert np.array_equal(smooth.estimates, resent.estimates)

    def test_retransmits_double_count_with_dedup_off(self):
        result = _serve("retransmit", reject_duplicates=False)
        stats = result.stats
        assert stats.duplicates_discarded == 0
        assert stats.duplicate_reports > 0
        # The preset resends 5% of messages; the observed report rate
        # should land in the same ballpark.
        assert 0.0 < stats.effective_duplicate_rate < 0.2

    def test_lossy_traffic_loses_reports(self):
        result = _serve("lossy")
        stats = result.stats
        assert stats.dropped_messages > 0
        assert stats.dropped_reports > 0
        assert stats.effective_drop_rate > 0.0
        assert stats.delivered_reports < stats.total_reports

    def test_bursts_queue_deeper_than_smooth_traffic(self):
        smooth = _serve("uniform")
        bursty = _serve("bursty")
        assert bursty.stats.peak_queue_depth >= smooth.stats.peak_queue_depth
        assert np.array_equal(smooth.estimates, bursty.estimates)


class TestAccuracy:
    def test_fault_free_within_protocol_radius(self):
        result = _serve("uniform")
        bound, _beta = protocol_radius("future_rand", PARAMS, result.c_gap)
        assert result.to_result().max_abs_error <= bound

    def test_soak_within_fault_adjusted_radius(self):
        result = _serve("soak")
        stats = result.stats
        bound, _beta = protocol_radius("future_rand", PARAMS, result.c_gap)
        adjusted = fault_adjusted_radius(
            bound,
            PARAMS,
            drop_rate=stats.effective_drop_rate,
            duplicate_rate=stats.effective_duplicate_rate,
        )
        assert result.to_result().max_abs_error <= adjusted


class TestMidStreamQueries:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="open_interval_policy"):
            IngestionService(8, 0.5, open_interval_policy="guess")

    def test_raise_policy_rejects_open_intervals(self):
        service = IngestionService(8, 0.5)
        with pytest.raises(OpenIntervalError, match="no period has closed"):
            service.estimate()
        with pytest.raises(OpenIntervalError, match="retry later"):
            service.estimate(1)

    def test_clamp_policy_needs_one_closed_period(self):
        service = IngestionService(8, 0.5, open_interval_policy="clamp")
        with pytest.raises(OpenIntervalError, match="nothing to clamp"):
            service.estimate(3)

    def test_clamp_policy_answers_from_latest_closed_period(self):
        async def drive(service: IngestionService) -> None:
            await service.open_period(1)
            await service.submit(
                AggregateMessage(
                    message_id=(0, 0, 1),
                    order=0,
                    index=1,
                    total=2.0,
                    count=4,
                    emitted_at=1,
                )
            )
            await service.close_period(1)
            await service.shutdown()

        service = IngestionService(8, 0.5, open_interval_policy="clamp")
        asyncio.run(drive(service))
        assert service.closed_period == 1
        # Period 5 has not closed; clamp answers with period 1's estimate.
        assert service.estimate(5) == service.estimate(1)
        assert service.range_estimate(1, 5) == service.range_estimate(1, 1)
        # Ranges entirely beyond the closed prefix still fail loudly.
        with pytest.raises(OpenIntervalError, match="beyond"):
            service.range_estimate(2, 5)

    def test_periods_close_in_order(self):
        async def skip_ahead(service: IngestionService) -> None:
            await service.open_period(1)
            try:
                await service.close_period(2)
            finally:
                await service.shutdown()

        service = IngestionService(8, 0.5)
        with pytest.raises(ValueError, match="periods close in order"):
            asyncio.run(skip_ahead(service))

    def test_callback_snapshots_match_final_estimates(self):
        snapshots = []
        result = _serve("soak", callback=snapshots.append)
        assert [snap.t for snap in snapshots] == list(range(1, PARAMS.d + 1))
        assert np.array_equal(
            np.array([snap.estimate for snap in snapshots]), result.estimates
        )
        assert np.array_equal(
            np.array([snap.true_count for snap in snapshots]),
            result.true_counts,
        )
        delivered = sum(snap.reports_this_period for snap in snapshots)
        assert delivered == result.stats.delivered_reports

    def test_throughput_accounting(self):
        result = _serve("uniform")
        assert result.elapsed_seconds > 0
        assert result.reports_per_second > 0
        assert result.blocks == 4  # n=2000 over block_rows=512


def _message(block, order, index, *, copy=0):
    return AggregateMessage(
        message_id=(block, order, index),
        order=order,
        index=index,
        total=2.0,
        count=4,
        emitted_at=index << order,
        copy=copy,
    )


async def _drive(service, periods, messages):
    """Open and close ``periods``, submitting ``messages`` in the first."""
    try:
        for position, t in enumerate(periods):
            await service.open_period(t)
            if not position:
                for message in messages:
                    await service.submit(message)
            await service.close_period(t)
    finally:
        await service.shutdown()


class TestSnapshotState:
    def test_dedup_memory_survives_a_restore(self):
        service = IngestionService(8, 0.5)
        asyncio.run(
            _drive(service, [1, 2], [_message(0, 0, 1), _message(3, 1, 1)])
        )
        body = service.snapshot_state()
        assert "released" not in body
        restored = IngestionService(8, 0.5)
        restored.restore_state(body, service.released)
        assert restored.snapshot_state() == body
        # Retransmits of both folded ids are discarded after the restore;
        # the same node from another block is new.
        late = [
            _message(0, 0, 1, copy=1),
            _message(3, 1, 1, copy=1),
            _message(1, 0, 1),
        ]
        asyncio.run(_drive(restored, [3], late))
        assert restored.duplicates_discarded == 2
        assert restored.delivered_messages == 3

    def test_restore_needs_the_released_prefix(self):
        service = IngestionService(8, 0.5)
        asyncio.run(_drive(service, [1, 2], [_message(0, 0, 1)]))
        with pytest.raises(ValueError, match="needs 2 released"):
            IngestionService(8, 0.5).restore_state(
                service.snapshot_state(), service.released[:1]
            )

    @pytest.mark.parametrize(
        "message_id", [(-1, 0, 1), (0, 4, 1), (0, 1, 0), (0, 1, 5)]
    )
    def test_an_id_outside_the_tree_is_refused(self, message_id):
        message = _message(0, 0, 1)._replace(message_id=message_id)
        with pytest.raises(ValueError, match="names no node"):
            asyncio.run(_drive(IngestionService(8, 0.5), [1], [message]))


class TestServeLoop:
    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 128])
    def test_a_pass_creates_two_tasks_whatever_the_block_count(
        self, monkeypatch, block_rows
    ):
        """``_serve`` and the consumer: no task per block or per period.
        Only tasks that run service code are counted, not the event loop's
        own shutdown tasks."""
        created = []
        original = asyncio.BaseEventLoop.create_task

        def counting(loop, coro, *args, **kwargs):
            code = getattr(coro, "cr_code", None)
            if code is not None and code.co_filename == service_module.__file__:
                created.append(code.co_name)
            return original(loop, coro, *args, **kwargs)

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_task", counting)
        result = run_service(
            _population(), PARAMS, 7, traffic="soak", block_rows=block_rows
        )
        assert result.blocks == -(-PARAMS.n // block_rows)
        assert len(created) <= 2, created

    @pytest.mark.parametrize("failing_call", [1, 100])
    def test_a_raising_client_surfaces_its_error(self, monkeypatch, failing_call):
        calls = []
        submit = IngestionService.submit

        async def flaky_submit(service, message):
            calls.append(message)
            if len(calls) == failing_call:
                raise ConnectionResetError("client dropped its connection")
            await submit(service, message)

        monkeypatch.setattr(IngestionService, "submit", flaky_submit)
        outcome = {}

        def serve():
            try:
                _serve("bursty")
            except BaseException as error:  # handed to the test thread
                outcome["error"] = error

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run_service hung after a client raised"
        assert isinstance(outcome.get("error"), ConnectionResetError)

    def test_an_over_budget_row_fails_before_any_block_runs(self, monkeypatch):
        """A presampled matrix is validated whole, once, up front."""
        states = _population().sample(PARAMS.n, np.random.default_rng(0))
        states[1234] = 0
        states[1234, 2:4] = 1
        states[1234, 6:8] = 1  # k + 1 = 4 changes
        ran = []
        monkeypatch.setattr(
            service_module, "_randomize_service_block", ran.append
        )
        with pytest.raises(
            ValueError, match=f"a user changes 4 times, exceeding k={PARAMS.k}"
        ):
            run_service(states, PARAMS, 0, block_rows=BLOCK_ROWS)
        assert not ran


class TestScenarioIntegration:
    def test_flash_crowd_is_registered(self):
        assert "flash_crowd" in SCENARIOS

    def test_scenario_serve_routes_through_the_service(self):
        scenario = SCENARIOS["flash_crowd"](
            n=1500, d=32, rng=np.random.default_rng(3)
        )
        assert scenario.traffic is not None
        assert scenario.traffic.faulty
        result = run_service(
            scenario.states, scenario.params, 11, traffic=scenario.traffic
        )
        assert result.estimates.shape == (32,)
        assert result.traffic == scenario.traffic
        # Override the scenario's traffic with a smooth model.
        smooth = run_service(
            scenario.states, scenario.params, 11, traffic=TrafficModel(name="uniform")
        )
        assert smooth.stats.duplicate_messages == 0


class TestRunnerFailFast:
    def test_run_trials_rejects_duplicate_rate_with_chunk_size(self):
        runner = functools.partial(run_batch_engine, report_duplicate_rate=0.02)
        states = _population().sample(PARAMS.n, np.random.default_rng(0))
        with pytest.raises(ValueError, match="monolithic engine path"):
            run_trials(
                runner, states, PARAMS, trials=1, seed=0, chunk_size=64
            )

    def test_sweep_rejects_duplicate_rate_with_chunk_size(self):
        runner = functools.partial(run_batch_engine, report_duplicate_rate=0.02)
        with pytest.raises(ValueError, match="monolithic engine path"):
            sweep(
                runner,
                PARAMS,
                "epsilon",
                [1.0],
                trials=1,
                seed=0,
                chunk_size=64,
            )

    def test_wrong_width_population_names_the_block_shape(self):
        """Per-block validation reports the block's expected shape and
        ``params.d``, not the block size as ``n``."""
        params = ProtocolParams(n=20_000, d=16, k=2, epsilon=1.0)
        with pytest.raises(ValueError) as error:
            run_service(BoundedChangePopulation(32, 2), params, 0)
        message = str(error.value)
        assert "states shape (8192, 32)" in message
        assert "(8192, 16)" in message
        assert "d=16" in message
        assert "n=8192" not in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wrong_width_population_fails_the_same_under_faults(self, workers):
        """Bad input is a ValueError at any worker count, with or without a
        fault schedule; a note names the block."""
        params = ProtocolParams(n=20_000, d=16, k=2, epsilon=1.0)
        with pytest.raises(ValueError, match=r"states shape \(8192, 32\)") as error:
            run_service(
                BoundedChangePopulation(32, 2), params, 0,
                workers=workers, faults="crash",
            )
        (note,) = error.value.__notes__
        assert note.startswith("service block ")
