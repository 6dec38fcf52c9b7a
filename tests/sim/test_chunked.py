"""Unit tests for the memory-bounded chunked mode's plumbing.

Covers the seed-block fold's stream-validation errors, the chunked batch
engine (snapshots, fault injection, aggregate server ingestion), the
``run_trials``/``sweep`` ``chunk_size`` knob, and
:meth:`Server.receive_aggregate`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.protocol import default_family
from repro.core.server import Server
from repro.core.vectorized import (
    _fold_seed_blocks,
    collect_tree_reports,
    order_probabilities,
    protocol_block_seeds,
    run_batch,
)
from repro.sim.batch_engine import BatchSimulationEngine, run_batch_engine
from repro.sim.runner import run_trials, sweep
from repro.utils.chunking import DEFAULT_BLOCK_ROWS
from repro.workloads.generators import BoundedChangePopulation

_PARAMS = ProtocolParams(n=200, d=16, k=3, epsilon=1.0)


def _digest(*arrays: np.ndarray) -> str:
    """sha256 over the little-endian bytes of ``arrays``, in order."""
    hasher = hashlib.sha256()
    for array in arrays:
        little_endian = array.dtype.newbyteorder("<")
        hasher.update(np.ascontiguousarray(array, dtype=little_endian).tobytes())
    return hasher.hexdigest()


@pytest.fixture
def states() -> np.ndarray:
    population = BoundedChangePopulation(_PARAMS.d, _PARAMS.k, start_prob=0.2)
    return population.sample(_PARAMS.n, np.random.default_rng(0))


class _CountingFamily:
    """The default family, counting the user rows it randomizes."""

    def __init__(self, params: ProtocolParams) -> None:
        self._family = default_family(params)
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self._family, name)

    def randomize_matrix(self, partials, rng, *, kernel=None):
        self.rows += partials.shape[0]
        return self._family.randomize_matrix(partials, rng, kernel=kernel)


class TestChunkedStreamValidation:
    def test_short_stream_is_an_error(self, states):
        with pytest.raises(ValueError, match="150 users in total"):
            collect_tree_reports([states[:150]], _PARAMS, 0, chunk_size=64)

    def test_overlong_stream_fails_fast(self, states):
        family = _CountingFamily(_PARAMS)
        with pytest.raises(ValueError, match="more than the declared"):
            collect_tree_reports(
                [states, states[:1]],
                _PARAMS,
                0,
                family=family,
                chunk_size=64,
                block_rows=100,
            )
        # Both full blocks ran; the extra user was refused on entry, before
        # a block holding it could be randomized.
        assert family.rows == _PARAMS.n

    def test_invalid_chunk_fails_on_entry(self, states):
        bad = states[:10].copy()
        bad[0, 0] = 2
        family = _CountingFamily(_PARAMS)
        with pytest.raises(ValueError, match="0 or 1"):
            collect_tree_reports(
                [states[:64], bad], _PARAMS, 0, family=family, chunk_size=64
            )
        assert family.rows == 0
        over_budget = np.tile(
            np.arange(_PARAMS.d, dtype=np.int8) % 2, (4, 1)
        )
        with pytest.raises(ValueError, match="exceeding k"):
            collect_tree_reports([over_budget], _PARAMS, 0, chunk_size=64)

    def test_wrong_width_chunk_is_rejected(self):
        with pytest.raises(ValueError, match=r"disagrees with params.*\(5, 16\)"):
            collect_tree_reports(
                [np.zeros((5, 8), dtype=np.int8)], _PARAMS, 0, chunk_size=64
            )

    def test_empty_chunks_are_harmless(self, states):
        reports = collect_tree_reports(
            [states[:0], states[:90], np.zeros((0, 8)), states[90:]],
            _PARAMS,
            0,
            chunk_size=64,
        )
        plain = collect_tree_reports([states], _PARAMS, 0, chunk_size=64)
        assert int(reports.group_sizes.sum()) == _PARAMS.n
        np.testing.assert_array_equal(reports.orders, plain.orders)

    def test_rejects_bad_drop_rate(self):
        with pytest.raises(ValueError, match="report_drop_rate"):
            BatchSimulationEngine(_PARAMS, chunk_size=64, report_drop_rate=1.0)

    def test_rejects_bad_chunk_size(self, states):
        with pytest.raises(ValueError, match="chunk_size"):
            run_batch(states, _PARAMS, 0, chunk_size=0)

    def test_block_rows_requires_chunk_size(self, states):
        with pytest.raises(ValueError, match="pass chunk_size"):
            run_batch(states, _PARAMS, 0, block_rows=64)

    def test_chunk_iterable_requires_chunk_size(self, states):
        chunks = (states[start : start + 50] for start in range(0, _PARAMS.n, 50))
        with pytest.raises(ValueError, match="iterable of chunks, which needs chunk_size"):
            run_batch(chunks, _PARAMS, 0)


class TestChunkedEngine:
    def test_snapshot_stream_matches_contract(self, states):
        snapshots = []
        engine = BatchSimulationEngine(
            _PARAMS, rng=np.random.default_rng(1), chunk_size=64
        )
        result = engine.run(states, snapshots.append)
        assert [snap.t for snap in snapshots] == list(range(1, _PARAMS.d + 1))
        true = states.sum(axis=0)
        assert [snap.true_count for snap in snapshots] == true.tolist()
        np.testing.assert_array_equal(
            result.estimates, [snap.estimate for snap in snapshots]
        )
        # No drops: period t delivers exactly the emitting groups (orders h
        # with 2^h | t), and the horizon-closing period delivers everyone.
        group_sizes = np.bincount(result.orders, minlength=_PARAMS.d.bit_length())
        for snap in snapshots:
            expected = sum(
                int(group_sizes[order])
                for order in range(_PARAMS.d.bit_length())
                if snap.t % (1 << order) == 0
            )
            assert snap.reports_this_period == expected
        assert snapshots[-1].reports_this_period == _PARAMS.n
        assert result.orders.shape == (_PARAMS.n,)

    def test_chunk_size_invariance(self, states):
        reference = BatchSimulationEngine(
            _PARAMS, rng=np.random.default_rng(5), chunk_size=200
        ).run(states)
        for chunk_size in (1, 17, 999):
            other = BatchSimulationEngine(
                _PARAMS, rng=np.random.default_rng(5), chunk_size=chunk_size
            ).run(states)
            np.testing.assert_array_equal(reference.estimates, other.estimates)

    def test_drop_rate_thins_reports(self, states):
        snapshots = []
        engine = BatchSimulationEngine(
            _PARAMS,
            rng=np.random.default_rng(2),
            chunk_size=64,
            report_drop_rate=0.5,
        )
        result = engine.run(states, snapshots.append)
        delivered = sum(snap.reports_this_period for snap in snapshots)
        # Without drops each user of order h reports d / 2^h times.
        group_sizes = np.bincount(result.orders, minlength=_PARAMS.d.bit_length())
        offered = sum(
            int(group_sizes[order]) * (_PARAMS.d >> order)
            for order in range(_PARAMS.d.bit_length())
        )
        assert 0 < delivered < offered
        assert abs(delivered - offered / 2) < 0.2 * offered / 2

    def test_drop_thinning_stream_is_pinned(self, states):
        """Exact estimates of a seeded run with drops: the thinning draws
        (one ``random`` per order group, right after its randomization) may
        not move."""
        result = BatchSimulationEngine(
            _PARAMS,
            rng=np.random.default_rng(2),
            chunk_size=64,
            report_drop_rate=0.3,
        ).run(states)
        assert _digest(result.estimates) == (
            "f0e7ed4d4a52cb91f1ed8eee145b57d2e1572a8b6f28334d5374d38135126bf6"
        )

    def test_chunk_size_invariance_under_drops_is_pinned(self, states):
        """Four 64-row seed blocks with drops: every chunk size folds the
        same delivered node sums and counts, and those are pinned exactly."""
        family = default_family(_PARAMS)
        probabilities = order_probabilities(_PARAMS.d)
        for chunk_size in (1, 17, 64, 999):
            chunks = [
                states[start : start + chunk_size]
                for start in range(0, _PARAMS.n, chunk_size)
            ]
            node_sums, node_counts, _, _ = _fold_seed_blocks(
                chunks,
                _PARAMS,
                3,
                family,
                probabilities,
                block_rows=64,
                drop_rate=0.3,
            )
            assert _digest(*node_sums, *node_counts) == (
                "4e12bd996fb817c3a7b17d98f5afacc08404d2578bdc82c90ac88e08f81ca185"
            ), chunk_size

    def test_accepts_chunk_iterables_without_chunk_size(self, states):
        chunks = (states[start : start + 37] for start in range(0, _PARAMS.n, 37))
        result = run_batch_engine(chunks, _PARAMS, np.random.default_rng(3))
        assert result.estimates.shape == (_PARAMS.d,)

    def test_estimates_track_truth(self, states):
        from repro.analysis.bounds import hoeffding_radius

        result = BatchSimulationEngine(
            _PARAMS, rng=np.random.default_rng(4), chunk_size=50
        ).run(states)
        # The paper's Eq. 13 high-probability radius — the principled sanity
        # envelope (the bit-identity tests carry the exactness burden).
        radius = hoeffding_radius(_PARAMS, result.c_gap, _PARAMS.beta / _PARAMS.d)
        assert np.abs(result.estimates - result.true_counts).max() < radius

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            BatchSimulationEngine(_PARAMS, chunk_size=0)


class TestRunnerChunkSize:
    def test_run_trials_chunked_is_deterministic(self, states):
        first = run_trials(None, states, _PARAMS, trials=2, seed=3, chunk_size=64)
        second = run_trials(None, states, _PARAMS, trials=2, seed=3, chunk_size=64)
        assert first == second

    def test_chunked_protocol_instance_runs(self, states):
        statistics = run_trials(
            "future_rand", states, _PARAMS, trials=2, seed=3, chunk_size=64
        )
        assert statistics.trials == 2

    def test_non_chunkable_protocol_is_rejected(self, states):
        with pytest.raises(ValueError, match="does not support chunk_size"):
            run_trials(
                "memoization", states, _PARAMS, trials=1, seed=0, chunk_size=64
            )
        with pytest.raises(ValueError, match="does not support chunk_size"):
            sweep("erlingsson", _PARAMS, "k", [2], trials=1, seed=0, chunk_size=8)

    def test_rejects_bad_chunk_size(self, states):
        with pytest.raises(ValueError, match="chunk_size"):
            run_trials(None, states, _PARAMS, trials=1, seed=0, chunk_size=0)

    def test_sweep_chunked_produces_a_full_table(self):
        params = ProtocolParams(n=120, d=8, k=2, epsilon=1.0)
        table = sweep(
            ["future_rand", "bun_composed"],
            params,
            "k",
            [1, 2],
            trials=1,
            seed=0,
            chunk_size=32,
        )
        assert len(table.rows) == 4


class TestReceiveAggregate:
    def test_matches_receive_batch(self):
        bits = np.array([1, -1, 1, 1, -1, 1], dtype=np.int8)
        batch_server = Server(8, 0.5)
        batch_server.advance_to(2)
        batch_server.receive_batch(1, 1, bits)
        aggregate_server = Server(8, 0.5)
        aggregate_server.advance_to(2)
        returned = aggregate_server.receive_aggregate(
            1, 1, float(bits.sum()), bits.size
        )
        assert returned == bits.size
        assert aggregate_server.reports_received == batch_server.reports_received
        assert aggregate_server.estimate(2) == batch_server.estimate(2)

    def test_rejects_infeasible_totals(self):
        server = Server(8, 0.5)
        server.advance_to(1)
        with pytest.raises(ValueError, match="not a feasible sum"):
            server.receive_aggregate(0, 1, 7.0, 5)  # |total| > count
        with pytest.raises(ValueError, match="not a feasible sum"):
            server.receive_aggregate(0, 1, 2.0, 5)  # parity mismatch
        with pytest.raises(ValueError, match="count"):
            server.receive_aggregate(0, 1, 0.0, -1)

    def test_respects_the_online_clock(self):
        server = Server(8, 0.5)
        server.advance_to(1)
        with pytest.raises(ValueError, match="advance_to"):
            server.receive_aggregate(2, 1, 0.0, 2)

    def test_zero_count_is_a_noop(self):
        server = Server(8, 0.5)
        server.advance_to(1)
        assert server.receive_aggregate(0, 1, 0.0, 0) == 0
        assert server.reports_received == 0


def _run_population(population, params, seed, chunk_size, block_rows=DEFAULT_BLOCK_ROWS):
    """Generate, randomize and aggregate in chunks from one root seed: one
    spawn child seeds the workload stream, the other the protocol."""
    workload_seed, protocol_seed = np.random.SeedSequence(seed).spawn(2)
    chunks = population.sample_chunks(
        params.n, chunk_size, workload_seed, block_rows=block_rows
    )
    return run_batch(
        chunks, params, protocol_seed, chunk_size=chunk_size, block_rows=block_rows
    )


class TestChunkedPopulationRun:
    def test_end_to_end_reproducible(self):
        population = BoundedChangePopulation(16, 3)
        params = ProtocolParams(n=300, d=16, k=3, epsilon=1.0)
        first = _run_population(population, params, 9, chunk_size=64)
        second = _run_population(population, params, 9, chunk_size=64)
        np.testing.assert_array_equal(first.estimates, second.estimates)
        np.testing.assert_array_equal(first.true_counts, second.true_counts)

    def test_chunk_size_does_not_change_the_run(self):
        population = BoundedChangePopulation(16, 2, start_prob=0.3)
        params = ProtocolParams(n=150, d=16, k=2, epsilon=1.0)
        reference = _run_population(
            population, params, 4, chunk_size=150, block_rows=40
        )
        varied = _run_population(population, params, 4, chunk_size=7, block_rows=40)
        np.testing.assert_array_equal(reference.estimates, varied.estimates)

    def test_rejects_bad_chunk_size(self):
        population = BoundedChangePopulation(16, 2)
        params = ProtocolParams(n=10, d=16, k=2, epsilon=1.0)
        with pytest.raises(ValueError, match="chunk_size"):
            _run_population(population, params, 0, chunk_size=0)


class TestSeedContractRobustness:
    """Review regressions: seeding must not depend on an object's history."""

    def test_protocol_block_seeds_ignore_prior_spawns(self, states):
        node = np.random.SeedSequence(21)
        node.spawn(3)  # a caller that already used this node elsewhere
        used = collect_tree_reports(states, _PARAMS, node, chunk_size=64)
        fresh = collect_tree_reports(
            states, _PARAMS, np.random.SeedSequence(21), chunk_size=64
        )
        np.testing.assert_array_equal(used.orders, fresh.orders)
        for sums_a, sums_b in zip(used.node_sums, fresh.node_sums, strict=True):
            np.testing.assert_array_equal(sums_a, sums_b)
        # And the advertised reproduce-any-block helper matches the run.
        spent = np.random.SeedSequence(21)
        spent.spawn(5)
        assert [child.spawn_key for child in protocol_block_seeds(spent, _PARAMS.n)] == [
            child.spawn_key
            for child in protocol_block_seeds(np.random.SeedSequence(21), _PARAMS.n)
        ]

    def test_sample_chunks_ignore_prior_spawns(self):
        population = BoundedChangePopulation(16, 2)
        node = np.random.SeedSequence(8)
        node.spawn(4)
        used = np.concatenate(list(population.sample_chunks(50, 9, node)))
        fresh = np.concatenate(
            list(population.sample_chunks(50, 9, np.random.SeedSequence(8)))
        )
        np.testing.assert_array_equal(used, fresh)


class TestChunkedArtifactKeys:
    def test_resume_reuses_shards_across_chunk_sizes(self, states, tmp_path):
        """Chunked output is chunk-size-invariant, so the store key must be too."""
        from repro.sim.store import ResultStore

        store = ResultStore(tmp_path)
        first = run_trials(
            None, states, _PARAMS, trials=2, seed=1, store=store, chunk_size=64
        )
        count = store.shard_count()
        second = run_trials(
            None, states, _PARAMS, trials=2, seed=1, store=store, chunk_size=17
        )
        assert store.shard_count() == count  # reloaded, not recomputed
        assert first == second

    def test_chunked_and_monolithic_keys_stay_distinct(self, states, tmp_path):
        from repro.sim.store import ResultStore

        store = ResultStore(tmp_path)
        monolithic = run_trials(None, states, _PARAMS, trials=2, seed=1, store=store)
        count = store.shard_count()
        chunked = run_trials(
            None, states, _PARAMS, trials=2, seed=1, store=store, chunk_size=64
        )
        assert store.shard_count() == 2 * count  # different randomness stream
        assert monolithic != chunked
