"""Fault-injection layer: deterministic schedules, envelopes, supervision.

The contract under test is the one the chaos suite leans on: a fault
schedule is a pure function of ``(model, units, seed)``; payload corruption
never passes a checksum; and :func:`repro.faults.run_supervised` recovers
every transient failure with results bit-identical to an unsupervised run —
on both the serial and the process-pool path — while all backoff accrues on
a simulated clock, never the wallclock.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults
from repro.faults import (
    FAULT_KINDS,
    FAULT_MODELS,
    FaultModel,
    FaultSchedule,
    InjectedCrash,
    PayloadCorruptionError,
    RetryPolicy,
    ShardExecutionError,
    SimulatedClock,
    get_fault_model,
    plan_fault_schedule,
    run_supervised,
    seal,
    tamper,
    unseal,
)


def _square(item: int) -> int:
    """Module-level (pool-picklable) pure worker."""
    return item * item


def _stall(item: int) -> int:
    """A worker that genuinely hangs past any test deadline."""
    time.sleep(30.0)
    return item


#: Items ``_boom`` was called with (in-process calls only).
_BOOM_CALLS: list[int] = []


def _boom(item: int) -> int:
    _BOOM_CALLS.append(item)
    raise KeyError(f"application bug on {item}")


def _boom_or_square(item: int) -> int:
    """Item 1 fails after 0.2 s; items 2 and 3 succeed after 0.1 and 0.3 s."""
    time.sleep({1: 0.2, 2: 0.1, 3: 0.3}.get(item, 0.0))
    if item == 1:
        raise KeyError("application bug on 1")
    return item * item


class _BreaksAfterTwoSubmits(ProcessPoolExecutor):
    """The first pool refuses every submit after its second, as a pool does
    once a worker died between two waits; a respawned pool is sound."""

    pools = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).pools += 1
        self._breaks = type(self).pools == 1
        self._submits = 0

    def submit(self, *args, **kwargs):
        self._submits += 1
        if self._breaks and self._submits > 2:
            raise BrokenProcessPool("a worker died between two waits")
        return super().submit(*args, **kwargs)


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultModel(crash_rate=1.5)
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultModel(crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(ValueError, match="failures"):
            FaultModel(failures=0)

    def test_presets_resolve_and_unknown_rejected(self):
        for name, model in FAULT_MODELS.items():
            assert get_fault_model(name) is model
        assert get_fault_model(FaultModel(crash_rate=0.1)).crash_rate == 0.1
        with pytest.raises(ValueError, match="unknown fault model"):
            get_fault_model("gremlins")

    def test_active_flag(self):
        assert not FAULT_MODELS["none"].active
        assert all(
            FAULT_MODELS[name].active for name in FAULT_MODELS if name != "none"
        )


class TestFaultSchedule:
    def test_schedule_is_a_pure_function_of_model_units_seed(self):
        for seed in (0, 7, 123):
            a = plan_fault_schedule("chaos", 40, seed)
            b = plan_fault_schedule("chaos", 40, seed)
            assert a == b
        assert plan_fault_schedule("chaos", 40, 0) != plan_fault_schedule(
            "chaos", 40, 1
        )

    def test_unit_rows_do_not_depend_on_earlier_units(self):
        # Two draws are always consumed per unit, so a prefix of a longer
        # schedule matches the shorter schedule row-for-row... it does not:
        # the draws are vectorized per-array, so extending units changes the
        # arrays.  What *is* guaranteed: same (model, units, seed) -> same
        # rows, and the empirical kind mix follows the rates.
        schedule = plan_fault_schedule("chaos", 2000, 3)
        kinds = [row[0] for row in schedule.rows if row]
        assert 0.25 < len(kinds) / 2000 < 0.45  # total_rate = 0.35
        assert set(kinds) <= set(FAULT_KINDS)

    def test_transient_kind_at_exhausts_after_failures(self):
        schedule = plan_fault_schedule(
            FaultModel(name="t", crash_rate=1.0, failures=2), 1, 0
        )
        assert schedule.kind_at(0, 0) == "crash"
        assert schedule.kind_at(0, 1) == "crash"
        assert schedule.kind_at(0, 2) is None

    def test_permanent_kind_never_exhausts(self):
        schedule = plan_fault_schedule(
            FaultModel(name="p", crash_rate=1.0, permanent=True), 1, 0
        )
        assert all(schedule.kind_at(0, attempt) for attempt in range(10))
        assert len(schedule.rows) == 1 and schedule.rows[0]

    def test_none_model_schedules_nothing(self):
        schedule = plan_fault_schedule("none", 16, 5)
        assert not any(schedule.rows)
        assert schedule.injector(3, 0) is None


class TestEnvelopes:
    def test_seal_unseal_round_trip(self):
        payload = {"a": np.arange(4), "b": (1, "x")}
        out = unseal(seal(payload))
        assert out["b"] == (1, "x")
        assert np.array_equal(out["a"], np.arange(4))

    def test_tampered_payload_never_passes(self):
        envelope = tamper(seal([1, 2, 3]))
        with pytest.raises(PayloadCorruptionError, match="checksum"):
            unseal(envelope)


class TestSimulatedClock:
    def test_advance_accumulates_and_rejects_negative(self):
        clock = SimulatedClock()
        assert clock.now == 0.0
        clock.advance(0.5)
        clock.advance(1.0)
        assert clock.now == 1.5
        with pytest.raises(ValueError, match="advance"):
            clock.advance(-1.0)

    def test_retry_policy_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0)
        assert [policy.backoff(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0.0)


def _crash_schedule(units: int, faulted, *, failures=1, permanent=False):
    """A hand-built schedule crashing exactly the given unit indices."""
    return FaultSchedule(
        model=FaultModel(name="pin", crash_rate=1.0, failures=failures,
                         permanent=permanent),
        rows=tuple(
            ("crash",) * failures if i in faulted else () for i in range(units)
        ),
        permanent=tuple(permanent and i in faulted for i in range(units)),
    )


class TestSupervisedSerial:
    def test_recovers_transient_faults_bit_identically(self):
        items = list(range(8))
        expected = [_square(i) for i in items]
        schedule = plan_fault_schedule("chaos", len(items), 11)
        results, report = run_supervised(_square, items, schedule=schedule)
        assert results == expected
        faults = (
            report.crashes + report.hangs + report.timeouts
            + report.corrupt_payloads
        )
        assert report.retries == faults > 0
        assert report.lost_units == ()
        assert report.backoff_seconds > 0.0  # simulated, not slept

    def test_only_corrupt_attempts_are_sealed(self, monkeypatch):
        """In-process, a payload is checksummed only when an attempt is
        scheduled to corrupt it; that attempt is still caught and retried."""
        checksums = []
        real_checksum = repro.faults._payload_checksum

        def counting_checksum(payload):
            checksums.append(payload)
            return real_checksum(payload)

        monkeypatch.setattr(repro.faults, "_payload_checksum", counting_checksum)
        items = list(range(5))
        expected = [_square(i) for i in items]

        results, report = run_supervised(_square, items)
        assert results == expected
        assert checksums == []

        schedule = FaultSchedule(
            model=FaultModel(name="pin", corrupt_rate=1.0),
            rows=tuple(("corrupt",) if i in (1, 3) else () for i in items),
            permanent=(False,) * len(items),
        )
        results, report = run_supervised(_square, items, workers=1, schedule=schedule)
        assert results == expected
        assert report.corrupt_payloads == report.retries == 2
        assert report.attempts == len(items) + 2
        assert len(checksums) == 4  # one seal and one failed unseal per corruption

    def test_supervision_adds_no_wallclock_stalls(self):
        schedule = _crash_schedule(4, {0, 1, 2, 3}, failures=2)
        started = time.perf_counter()
        _, report = run_supervised(
            _square,
            list(range(4)),
            schedule=schedule,
            retry=RetryPolicy(backoff_base=1000.0),
        )
        assert time.perf_counter() - started < 5.0
        assert report.backoff_seconds == pytest.approx(4 * (1000.0 + 2000.0))

    def test_exhausted_unit_is_lost_to_the_callback(self):
        schedule = _crash_schedule(4, {2}, permanent=True)
        lost = []
        results, report = run_supervised(
            _square,
            list(range(4)),
            schedule=schedule,
            on_lost=lambda i, e: lost.append((i, type(e).__name__)),
        )
        assert results == [0, 1, None, 9]
        assert lost == [(2, "InjectedCrash")]
        assert report.lost_units == (2,)

    def test_exhausted_unit_without_callback_names_its_coordinates(self):
        schedule = _crash_schedule(3, {1}, permanent=True)
        with pytest.raises(ShardExecutionError, match="unit 1") as info:
            run_supervised(_square, [0, 1, 2], schedule=schedule)
        assert isinstance(info.value.__cause__, InjectedCrash)

    def test_application_errors_are_not_retried(self):
        _BOOM_CALLS.clear()
        with pytest.raises(KeyError) as info:
            run_supervised(_boom, [0])
        assert info.value.__notes__ == [
            "unit 0 failed with a non-retryable error"
        ]
        assert _BOOM_CALLS == [0]  # exactly one attempt

    def test_schedule_length_must_match_items(self):
        with pytest.raises(ValueError, match="schedule covers"):
            run_supervised(_square, [0, 1], schedule=_crash_schedule(3, set()))

    @settings(max_examples=20, deadline=None)
    @given(
        units=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_crash_at_any_unit_recovers_bit_identically(self, units, data):
        """The satellite property: a crash anywhere changes nothing."""
        faulted = data.draw(
            st.sets(st.integers(0, units - 1), min_size=1, max_size=units)
        )
        failures = data.draw(st.integers(1, 2))
        schedule = _crash_schedule(units, faulted, failures=failures)
        items = list(range(units))
        results, report = run_supervised(_square, items, schedule=schedule)
        assert results == [_square(i) for i in items]
        assert report.crashes == failures * len(faulted)
        assert report.lost_units == ()


class TestSupervisedPool:
    def test_application_error_keeps_its_type_in_the_pool(self):
        with pytest.raises(KeyError) as info:
            run_supervised(
                _boom, [0, 1], workers=2, describe=lambda i: f"shard {i}"
            )
        (note,) = info.value.__notes__
        assert note.endswith("failed with a non-retryable error")
        assert note.startswith("shard ")

    def test_units_finished_before_the_failure_propagates_are_delivered(self):
        """Delivering units 0 and 2 takes 1 s each.  Unit 1 fails while unit
        0 is delivered, so its failure is seen together with unit 2; unit 3
        finishes while unit 2 is delivered.  Both 2 and 3 must be delivered
        before the failure propagates."""
        delivered = []

        def on_result(index, payload):
            delivered.append(index)
            if index in (0, 2):
                time.sleep(1.0)

        with pytest.raises(KeyError):
            run_supervised(
                _boom_or_square, [0, 1, 2, 3], workers=3, on_result=on_result
            )
        assert sorted(delivered) == [0, 2, 3]

    def test_pool_broken_at_submit_is_respawned(self, monkeypatch):
        monkeypatch.setattr(_BreaksAfterTwoSubmits, "pools", 0)
        monkeypatch.setattr(
            repro.faults, "ProcessPoolExecutor", _BreaksAfterTwoSubmits
        )
        results, report = run_supervised(_square, list(range(6)), workers=2)
        assert results == [_square(i) for i in range(6)]
        assert report.pool_respawns == 1
        assert report.attempts == 6  # a refused submit charges nothing

    def test_pool_is_reaped_on_success(self):
        before = set(multiprocessing.active_children())
        results, _ = run_supervised(_square, list(range(4)), workers=2)
        assert results == [0, 1, 4, 9]
        assert set(multiprocessing.active_children()) - before == set()

    def test_hard_crashes_break_the_pool_and_still_recover(self):
        items = list(range(6))
        schedule = _crash_schedule(len(items), {1, 4})
        results, report = run_supervised(
            _square, items, workers=2, schedule=schedule
        )
        assert results == [_square(i) for i in items]
        assert report.crashes >= 2
        assert report.pool_respawns >= 1
        assert report.lost_units == ()

    def test_pool_matches_serial_results_under_chaos(self):
        items = list(range(8))
        schedule = plan_fault_schedule("chaos", len(items), 19)
        serial, _ = run_supervised(_square, items, schedule=schedule)
        pooled, _ = run_supervised(
            _square, items, workers=3, schedule=schedule
        )
        assert pooled == serial == [_square(i) for i in items]

    def test_permanent_hard_crash_degrades_instead_of_failing(self):
        schedule = _crash_schedule(4, {0}, permanent=True)
        lost = []
        results, report = run_supervised(
            _square,
            list(range(4)),
            workers=2,
            schedule=schedule,
            on_lost=lambda i, e: lost.append(i),
        )
        assert results[0] is None
        assert results[1:] == [1, 4, 9]
        assert lost == [0]
        assert report.lost_units == (0,)

    def test_deadline_overrun_is_a_timeout_and_respawns_the_pool(self):
        lost = []
        results, report = run_supervised(
            _stall,
            [0],
            workers=2,
            retry=RetryPolicy(max_attempts=1, timeout_seconds=0.2),
            on_lost=lambda i, e: lost.append(type(e).__name__),
        )
        assert results == [None]
        assert lost == ["ShardTimeoutError"]
        assert report.timeouts == 1
        assert report.pool_respawns == 1
