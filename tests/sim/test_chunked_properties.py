"""Property tests: chunked execution is bit-identical to monolithic ``run_batch``.

The out-of-core contract (mirroring the sharded-sweep determinism contract):
chunking changes *where* a user's reports are computed, never *what* they
are.  With the whole population inside one seed block, the chunked
mode must reproduce the monolithic driver bit for bit — node sums,
orders, group sizes, true counts and prefix estimates — for *any* chunk size
(1, primes, larger than n), any d/k, and any order-weight ablation.  With
multiple blocks, any two chunk sizes must agree with each other.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams
from repro.core.vectorized import collect_tree_reports, protocol_block_seeds, run_batch
from repro.workloads.generators import BoundedChangePopulation


def _workload(n: int, d: int, k: int, seed: int) -> np.ndarray:
    population = BoundedChangePopulation(d, k, start_prob=0.25)
    return population.sample(n, np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(
    log_d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=50),
    workload_seed=st.integers(min_value=0, max_value=2**32 - 1),
    protocol_seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_size=st.one_of(
        st.just(1), st.sampled_from([3, 7, 13]), st.integers(min_value=51, max_value=70)
    ),
)
def test_chunked_equals_monolithic_run_batch(
    log_d, k, n, workload_seed, protocol_seed, chunk_size
):
    d = 1 << log_d
    k = min(k, d)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
    states = _workload(n, d, k, workload_seed)

    # Single seed block (block_rows >= n): the chunked path must replay the
    # monolithic driver's exact randomness, drawn from the first spawn child.
    (child,) = protocol_block_seeds(protocol_seed, n, block_rows=128)
    monolithic = run_batch(states, params, np.random.default_rng(child))
    chunked = run_batch(
        states, params, protocol_seed, chunk_size=chunk_size, block_rows=128
    )
    np.testing.assert_array_equal(monolithic.estimates, chunked.estimates)
    np.testing.assert_array_equal(monolithic.true_counts, chunked.true_counts)
    np.testing.assert_array_equal(monolithic.orders, chunked.orders)
    assert monolithic.c_gap == chunked.c_gap
    assert monolithic.family_name == chunked.family_name


@settings(max_examples=20, deadline=None)
@given(
    log_d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_a=st.integers(min_value=1, max_value=70),
    chunk_b=st.integers(min_value=1, max_value=70),
    block_rows=st.sampled_from([5, 16, 23]),
)
def test_chunk_size_is_invariant_across_blocks(
    log_d, k, n, seed, chunk_a, chunk_b, block_rows
):
    """Multi-block streams: any two chunk sizes produce identical trees."""
    d = 1 << log_d
    k = min(k, d)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
    states = _workload(n, d, k, seed)
    first = collect_tree_reports(
        states, params, seed, chunk_size=chunk_a, block_rows=block_rows
    )
    second = collect_tree_reports(
        states, params, seed, chunk_size=chunk_b, block_rows=block_rows
    )
    for sums_a, sums_b in zip(first.node_sums, second.node_sums, strict=True):
        np.testing.assert_array_equal(sums_a, sums_b)
    np.testing.assert_array_equal(first.orders, second.orders)
    np.testing.assert_array_equal(first.group_sizes, second.group_sizes)
    np.testing.assert_array_equal(first.true_counts, second.true_counts)
    np.testing.assert_array_equal(
        first.prefix_estimates(), second.prefix_estimates()
    )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_size=st.sampled_from([1, 7, 64]),
)
def test_order_weight_ablation_matches_monolithic(n, seed, chunk_size):
    """The order-weights knob flows through the chunked path unchanged."""
    d, k = 8, 2
    params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
    states = _workload(n, d, k, seed)
    weights = [4.0, 2.0, 1.0, 1.0]
    (child,) = protocol_block_seeds(seed, n, block_rows=64)
    monolithic = collect_tree_reports(
        states, params, np.random.default_rng(child), order_weights=weights
    )
    chunked = collect_tree_reports(
        states,
        params,
        seed,
        chunk_size=chunk_size,
        order_weights=weights,
        block_rows=64,
    )
    np.testing.assert_array_equal(
        monolithic.order_probabilities, chunked.order_probabilities
    )
    np.testing.assert_array_equal(monolithic.node_scales, chunked.node_scales)
    for sums_a, sums_b in zip(monolithic.node_sums, chunked.node_sums, strict=True):
        np.testing.assert_array_equal(sums_a, sums_b)


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["uniform", "early", "late", "bursty"]),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_size=st.sampled_from([1, 7, 41, 100]),
)
def test_generator_output_concatenates_to_monolithic_sample(
    mode, n, seed, chunk_size
):
    """Chunked generator output == the monolithic draw, every generator mode."""
    d, k = 16, 3
    population = BoundedChangePopulation(d, k, mode=mode, start_prob=0.2)
    stream = np.concatenate(
        list(population.sample_chunks(n, chunk_size, seed, block_rows=64))
    )
    child = np.random.SeedSequence(seed).spawn(1)[0]
    monolithic = population.sample(n, np.random.default_rng(child))
    np.testing.assert_array_equal(stream, monolithic)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_size=st.sampled_from([1, 11, 60]),
    block_rows=st.sampled_from([8, 64]),
)
def test_generator_stream_equals_materialized_matrix(
    n, seed, chunk_size, block_rows
):
    """Feeding ``sample_chunks`` output equals materializing it first."""
    d, k = 16, 3
    params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
    population = BoundedChangePopulation(d, k, start_prob=0.2)
    materialized = np.concatenate(
        list(population.sample_chunks(n, n, seed, block_rows=block_rows))
    )
    streamed = run_batch(
        population.sample_chunks(n, chunk_size, seed, block_rows=block_rows),
        params,
        seed + 1,
        chunk_size=chunk_size,
        block_rows=block_rows,
    )
    direct = run_batch(
        materialized, params, seed + 1, chunk_size=chunk_size, block_rows=block_rows
    )
    np.testing.assert_array_equal(streamed.estimates, direct.estimates)
    np.testing.assert_array_equal(streamed.true_counts, direct.true_counts)
