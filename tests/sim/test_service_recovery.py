"""End-to-end fault tolerance: chaos bit-identity, degradation, recovery.

The three service-level guarantees this file pins, each stated in
ISSUE/README terms:

* **Chaos bit-identity** — a run with injected crashes/hangs/corruptions
  (recovered by supervised retries) releases byte-for-byte the estimates,
  true counts, and delivery stats of the fault-free run, at any worker
  count.  Under ``soak`` traffic every run must also stay inside the
  fault-adjusted conformance radius at its observed delivery rates.
* **Journal recovery** — a run killed at *any* point of its write-ahead
  journal and resumed with ``resume=True`` reproduces the uninterrupted
  released stream exactly, including the delivery counters.
* **Graceful degradation** — a permanently lost block downgrades the run
  (``degraded=True``) instead of failing it, with the loss folded into the
  effective drop rate the fault-adjusted radius is computed from.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import fault_adjusted_radius, protocol_radius
from repro.core.params import ProtocolParams
from repro.faults import FaultModel, RetryPolicy
from repro.sim.journal import JournalError, ServiceJournal, _record_checksum
from repro.sim.service import run_service
from repro.sim.store import canonical_json
from repro.utils.chunking import DEFAULT_BLOCK_ROWS
from repro.workloads.generators import BoundedChangePopulation

PARAMS = ProtocolParams(n=2000, d=32, k=3, epsilon=1.0)
#: Small blocks so the run shards into several supervised units
#: (n=2000 / 512 -> 4 blocks).
BLOCK_ROWS = 512

#: Every block faulted exactly once (rates sum to 1), every fault
#: recovered on the first retry — chaos with full coverage.
ALWAYS_FAULT = FaultModel(
    name="always", crash_rate=0.5, hang_rate=0.25, corrupt_rate=0.25
)


def _serve(seed=7, **kwargs):
    return run_service(
        BoundedChangePopulation(PARAMS.d, PARAMS.k, exact_k=True),
        PARAMS,
        seed,
        traffic="uniform",
        block_rows=BLOCK_ROWS,
        **kwargs,
    )


@functools.lru_cache(maxsize=8)
def _baseline(seed=7):
    return _serve(seed=seed)


#: The soak point the chaos matrix runs at: ~10 supervised blocks of
#: 2048 users under the ``soak`` traffic preset.
SOAK_PARAMS = ProtocolParams(n=20_000, d=256, k=4, epsilon=1.0)
SOAK_BLOCK_ROWS = 2048
#: sha256 of the fault-free serial estimates (``<f8`` bytes) at the soak
#: point; every worker count and fault preset must reproduce them.
SOAK_BASELINE_SHA256 = (
    "418a16dd1cae0d9055a9cbdcbf2d845c134e810d76d07cfd0cf8603b65bfc713"
)


def _soak(params, block_rows, **kwargs):
    return run_service(
        BoundedChangePopulation(params.d, params.k, exact_k=True),
        params,
        np.random.SeedSequence(entropy=0, spawn_key=(0, 0)),
        traffic="soak",
        block_rows=block_rows,
        **kwargs,
    )


@functools.lru_cache(maxsize=4)
def _soak_baseline(params, block_rows):
    return _soak(params, block_rows)


def _assert_bit_identical(result, reference) -> None:
    assert np.array_equal(result.estimates, reference.estimates)
    assert np.array_equal(result.true_counts, reference.true_counts)
    assert result.stats == reference.stats


def _check_soak_runs(params, block_rows, faults, workers) -> int:
    """Run ``faults`` at every worker count against the fault-free serial run.

    Each run must be bit-identical to that baseline, not degraded, and
    inside the fault-adjusted radius at its observed delivery rates.
    Returns the total number of supervised retries.
    """
    baseline = _soak_baseline(params, block_rows)
    retries = 0
    for count in workers:
        result = _soak(params, block_rows, faults=faults, workers=count)
        _assert_bit_identical(result, baseline)
        assert not result.degraded
        bound, _beta = protocol_radius("future_rand", params, result.c_gap)
        radius = fault_adjusted_radius(
            bound,
            params,
            drop_rate=result.stats.effective_drop_rate,
            duplicate_rate=result.stats.effective_duplicate_rate,
        )
        assert result.to_result().max_abs_error <= radius
        retries += (result.fault_report or {}).get("retries", 0)
    return retries


class TestChaosBitIdentity:
    def test_full_fault_coverage_recovers_bit_identically(self):
        result = _serve(faults=ALWAYS_FAULT)
        _assert_bit_identical(result, _baseline())
        assert not result.degraded
        report = result.fault_report
        assert report is not None
        assert report["lost_units"] == []
        faults = (
            report["crashes"]
            + report["hangs"]
            + report["corrupt_payloads"]
        )
        assert faults == result.blocks == 4  # every block faulted once
        assert report["backoff_seconds"] > 0.0  # simulated, never slept

    @pytest.mark.parametrize("preset", ["crash", "hang", "corrupt", "chaos"])
    def test_every_preset_recovers_bit_identically(self, preset):
        _assert_bit_identical(_serve(faults=preset), _baseline())

    def test_chaos_is_bit_identical_across_worker_counts(self):
        for workers in (2, 4):
            result = _serve(faults=ALWAYS_FAULT, workers=workers)
            _assert_bit_identical(result, _baseline())
            assert not result.degraded

    def test_retry_without_faults_changes_nothing(self):
        result = _serve(retry=RetryPolicy(max_attempts=5))
        _assert_bit_identical(result, _baseline())
        assert result.fault_report is not None
        assert result.fault_report["retries"] == 0

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_chaos_bit_identity_holds_at_any_seed(self, seed):
        _assert_bit_identical(
            _serve(seed=seed, faults=ALWAYS_FAULT), _baseline(seed)
        )


class TestSoakBaselinePin:
    def test_fault_free_serial_estimates_are_pinned(self):
        result = _soak_baseline(SOAK_PARAMS, SOAK_BLOCK_ROWS)
        estimates = np.ascontiguousarray(result.estimates, dtype="<f8")
        digest = hashlib.sha256(estimates.tobytes()).hexdigest()
        assert digest == SOAK_BASELINE_SHA256


class TestSoakGates:
    """Worker and fault-preset bit-identity plus the radius, under soak."""

    @pytest.mark.parametrize(
        "faults", [None, "crash", "hang", "corrupt", "chaos"]
    )
    def test_chaos_matrix_reproduces_the_baseline(self, faults):
        retries = _check_soak_runs(
            SOAK_PARAMS, SOAK_BLOCK_ROWS, faults, workers=(1, 2, 4)
        )
        assert (retries > 0) == (faults is not None)

    @pytest.mark.parametrize(
        "block_rows, faults",
        [(DEFAULT_BLOCK_ROWS, None), (256, None), (256, "chaos")],
    )
    def test_small_grid_reproduces_the_baseline(self, block_rows, faults):
        params = ProtocolParams(n=2_000, d=64, k=4, epsilon=1.0)
        retries = _check_soak_runs(params, block_rows, faults, workers=(1, 2))
        assert (retries > 0) == (faults is not None)

    @pytest.mark.slow
    @pytest.mark.parametrize("faults", [None, "chaos"])
    def test_full_point_reproduces_the_baseline(self, faults):
        params = ProtocolParams(n=100_000, d=256, k=4, epsilon=1.0)
        retries = _check_soak_runs(params, 8_192, faults, workers=(1, 2, 4))
        assert (retries > 0) == (faults is not None)


class TestGracefulDegradation:
    def test_lost_block_degrades_instead_of_failing(self):
        result = _serve(faults="lost-shard")
        baseline = _baseline()
        assert result.degraded
        assert result.lost_blocks  # seed 7 loses at least one block
        assert result.fault_report["lost_units"] == list(result.lost_blocks)
        # Truth is recomputed coordinator-side: still exact, and the lost
        # blocks' orders are re-drawn exactly as the block step drew them.
        assert np.array_equal(result.true_counts, baseline.true_counts)
        assert np.array_equal(result.orders, baseline.orders)
        stats = result.stats
        assert stats.lost_blocks == len(result.lost_blocks)
        assert stats.lost_users == BLOCK_ROWS * len(result.lost_blocks)
        assert stats.total_users == PARAMS.n
        assert stats.effective_drop_rate == pytest.approx(
            stats.lost_users / PARAMS.n
        )

    def test_degraded_error_stays_inside_the_fault_adjusted_radius(self):
        result = _serve(faults="lost-shard")
        base, _beta = protocol_radius("future_rand", PARAMS, result.c_gap)
        widened = fault_adjusted_radius(
            base,
            PARAMS,
            drop_rate=result.stats.effective_drop_rate,
            duplicate_rate=result.stats.effective_duplicate_rate,
        )
        errors = np.abs(result.estimates - result.true_counts)
        assert widened > base
        assert errors.max() <= widened

    def test_losing_every_block_still_serves(self):
        result = _serve(
            faults=FaultModel(name="doom", crash_rate=1.0, permanent=True),
            retry=RetryPolicy(max_attempts=1),
        )
        assert result.degraded
        assert result.lost_blocks == tuple(range(result.blocks))
        assert result.stats.lost_users == PARAMS.n
        assert result.stats.effective_drop_rate == 1.0
        assert result.estimates.shape == (PARAMS.d,)
        assert np.array_equal(
            result.true_counts, _baseline().true_counts
        )
        assert np.array_equal(result.orders, _baseline().orders)


def _journal_lines(journal: ServiceJournal) -> list[str]:
    return journal.path.read_text(encoding="utf-8").splitlines()


def _truncated(root, lines, cut: int) -> ServiceJournal:
    """A journal holding the first ``cut`` lines plus a torn tail."""
    journal = ServiceJournal(root)
    journal.root.mkdir(parents=True, exist_ok=True)
    kept = "\n".join(lines[:cut]) + "\n" if cut else ""
    journal.path.write_text(
        kept + '{"kind": "period", "body": {"t": 99, "esti',
        encoding="utf-8",
    )
    return journal


class TestJournalRecovery:
    def test_fresh_run_writes_config_periods_and_snapshots(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j")
        result = _serve(journal=journal, snapshot_every=8)
        assert result.resumed_from == 0
        kinds = [record.kind for record in journal.records()]
        assert kinds[0] == "config"
        assert kinds.count("period") == PARAMS.d
        # One snapshot every 8 closed periods, none after the final period.
        assert kinds.count("snapshot") == 3
        _assert_bit_identical(result, _baseline())

    def test_existing_journal_is_refused_without_resume(self, tmp_path):
        _serve(journal=tmp_path / "j", snapshot_every=8)
        with pytest.raises(JournalError, match="resume=True"):
            _serve(journal=tmp_path / "j")

    def test_resume_of_a_complete_journal_replays_bit_identically(
        self, tmp_path
    ):
        _serve(journal=tmp_path / "j", snapshot_every=8)
        resumed = _serve(journal=tmp_path / "j", resume=True, snapshot_every=8)
        _assert_bit_identical(resumed, _baseline())
        assert resumed.resumed_from == 24  # the latest snapshot
        assert resumed.stats == _baseline().stats

    def test_config_mismatch_is_refused(self, tmp_path):
        _serve(journal=tmp_path / "j", snapshot_every=8)
        with pytest.raises(JournalError, match="different run configuration"):
            _serve(seed=8, journal=tmp_path / "j", resume=True)

    def test_divergent_replay_is_detected(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j")
        _serve(journal=journal, snapshot_every=8)
        lines = _journal_lines(journal)
        # Tamper the final period's estimate *with a valid checksum*: the
        # byte-level layer passes, the replay verification must catch it.
        record = json.loads(lines[-1])
        assert record["kind"] == "period"
        record["body"]["estimate"] += 1.0
        record["checksum"] = _record_checksum(record["kind"], record["body"])
        lines[-1] = canonical_json(record)
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="resume diverged at period"):
            _serve(journal=journal, resume=True, snapshot_every=8)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_kill_at_any_journal_point_resumes_bit_identically(
        self, tmp_path_factory, data
    ):
        """The satellite property: truncate the journal anywhere, resume."""
        reference = ServiceJournal(tmp_path_factory.mktemp("ref") / "j")
        baseline = _serve(journal=reference, snapshot_every=8)
        lines = _journal_lines(reference)
        cut = data.draw(st.integers(min_value=1, max_value=len(lines)))
        journal = _truncated(
            tmp_path_factory.mktemp("cut") / "j", lines, cut
        )
        resumed = _serve(journal=journal, resume=True, snapshot_every=8)
        _assert_bit_identical(resumed, baseline)
        assert resumed.stats == baseline.stats
        # The resumed journal must itself be complete and recoverable.
        again = _serve(journal=journal, resume=True, snapshot_every=8)
        _assert_bit_identical(again, baseline)

    @pytest.mark.parametrize("traffic", ["soak", "skewed"])
    def test_dedup_memory_and_early_buffer_survive_a_resume(
        self, tmp_path, traffic
    ):
        """Cut around every snapshot of a run with retransmits or skew.

        ``uniform`` traffic leaves the dedup memory and the early-arrival
        buffer empty, so only these presets carry them through a restore.
        """

        def serve(journal, **kwargs):
            return run_service(
                BoundedChangePopulation(PARAMS.d, PARAMS.k, exact_k=True),
                PARAMS,
                7,
                traffic=traffic,
                block_rows=BLOCK_ROWS,
                journal=journal,
                snapshot_every=8,
                **kwargs,
            )

        reference = ServiceJournal(tmp_path / "ref")
        baseline = serve(reference)
        records = reference.records()
        snapshots = [
            position
            for position, record in enumerate(records)
            if record.kind == "snapshot"
        ]
        assert [records[p].body["t"] for p in snapshots] == [8, 16, 24]
        early = [
            sum(len(group) for group in records[p].body["early"].values())
            for p in snapshots
        ]
        if traffic == "soak":
            assert baseline.stats.duplicates_discarded == 7
        else:
            assert early == [8, 16, 13]
        lines = _journal_lines(reference)
        for position in snapshots:
            for cut in (position, position + 1):
                journal = ServiceJournal(tmp_path / f"cut-{cut}")
                journal.root.mkdir(parents=True)
                journal.path.write_text(
                    "\n".join(lines[:cut]) + "\n", encoding="utf-8"
                )
                resumed = serve(journal, resume=True)
                _assert_bit_identical(resumed, baseline)
                restored = [records[p].body["t"] for p in snapshots if p < cut]
                assert resumed.resumed_from == max(restored, default=0)

    def test_kill_before_a_newline_resumes_twice(self, tmp_path):
        """A kill between a record and its ``\\n`` must not corrupt the
        records the resumed run appends after it."""
        reference = ServiceJournal(tmp_path / "ref")
        baseline = _serve(journal=reference, snapshot_every=8)
        lines = _journal_lines(reference)
        journal = ServiceJournal(tmp_path / "j")
        journal.root.mkdir(parents=True)
        journal.path.write_text(
            "\n".join(lines[: len(lines) // 2]), encoding="utf-8"
        )
        resumed = _serve(journal=journal, resume=True, snapshot_every=8)
        _assert_bit_identical(resumed, baseline)
        periods = [r for r in journal.records() if r.kind == "period"]
        assert [r.body["t"] for r in periods] == list(range(1, PARAMS.d + 1))
        again = _serve(journal=journal, resume=True, snapshot_every=8)
        _assert_bit_identical(again, baseline)

    def test_snapshot_size_is_bounded_by_the_tree(self, tmp_path):
        """A snapshot holds the tree and a bit per node slot, never a
        per-message list, so it does not grow with the periods served."""
        params = ProtocolParams(n=8192, d=256, k=4, epsilon=1.0)
        journal = ServiceJournal(tmp_path / "j")
        result = run_service(
            BoundedChangePopulation(params.d, params.k, exact_k=True),
            params,
            7,
            traffic="soak",
            block_rows=1024,
            journal=journal,
            snapshot_every=8,
        )
        nodes = 2 * params.d - 1
        sizes = [
            len(line.encode())
            for line, record in zip(
                _journal_lines(journal), journal.records(), strict=True
            )
            if record.kind == "snapshot"
        ]
        assert len(sizes) == params.d // 8 - 1
        assert max(sizes) <= 32 * nodes + result.blocks * nodes // 6 + 2048
        assert sizes[-1] < 2 * sizes[0]

    def test_a_schema_1_journal_is_refused(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j")
        _serve(journal=journal, snapshot_every=8)
        lines = _journal_lines(journal)
        record = json.loads(lines[0])
        assert record["kind"] == "config"
        record["body"]["schema"] = 1
        record["checksum"] = _record_checksum(record["kind"], record["body"])
        lines[0] = canonical_json(record)
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="different run configuration"):
            _serve(journal=journal, resume=True, snapshot_every=8)

    def test_a_schema_2_journal_is_refused(self, tmp_path):
        """Schema 2 also fingerprinted ``open_interval_policy``."""
        journal = ServiceJournal(tmp_path / "j")
        _serve(journal=journal, snapshot_every=8)
        lines = _journal_lines(journal)
        record = json.loads(lines[0])
        assert "open_interval_policy" not in record["body"]
        record["body"]["schema"] = 2
        record["body"]["open_interval_policy"] = "raise"
        record["checksum"] = _record_checksum(record["kind"], record["body"])
        lines[0] = canonical_json(record)
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalError, match="different run configuration"):
            _serve(journal=journal, resume=True, snapshot_every=8)

    def test_resume_under_chaos_is_still_bit_identical(self, tmp_path):
        journal = ServiceJournal(tmp_path / "j")
        _serve(faults=ALWAYS_FAULT, journal=journal, snapshot_every=8)
        lines = _journal_lines(journal)
        truncated = _truncated(tmp_path / "cut", lines, len(lines) // 2)
        resumed = _serve(
            faults=ALWAYS_FAULT,
            journal=truncated,
            resume=True,
            snapshot_every=8,
        )
        _assert_bit_identical(resumed, _baseline())

    def test_snapshot_every_must_be_positive(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            _serve(snapshot_every=0)

    def test_resume_without_a_journal_is_refused(self):
        with pytest.raises(ValueError, match="resume=True.*journal="):
            _serve(resume=True)
