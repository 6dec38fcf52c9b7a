"""Memory benchmarks for the out-of-core chunked pipeline.

Two claims are pinned here:

* **the acceptance budget** — a full n=10^6, d=256 end-to-end chunked run
  (generation + randomization + aggregation; the ``(n, d)`` matrix never
  exists) completes with a ``tracemalloc``-measured peak incremental
  allocation under **1 GB** (measured well under 100 MB; the budget leaves
  headroom for allocator/platform noise, while a monolithic run would need
  ~256 MB for the int8 states plus float64 score/argsort transients in the
  gigabytes).  Asserted on every run, marked ``slow`` — the nightly CI lane
  additionally wraps this file in a ``ulimit``-enforced address-space cap so
  the budget is enforced by the OS, not just by the assertion;
* **bit-identity** — chunked results are identical for any chunk size, and
  identical to the monolithic ``run_batch`` at a reference size that fits in
  one seed block (asserted on every run, any host).

Wall-clock numbers land in ``extra_info``; no speedup is asserted (memory,
not time, is this file's contract — and the 1-CPU dev container gates
timing assertions elsewhere via ``default_workers()``).
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.vectorized import protocol_block_seeds, run_batch
from repro.workloads.generators import BoundedChangePopulation

#: The acceptance configuration: a million users over the paper's d=256.
_MILLION = {"n": 1_000_000, "d": 256, "k": 4, "chunk_size": 8192, "seed": 0}
_PEAK_BUDGET_BYTES = 1 << 30  # 1 GB

#: Reference size for bit-identity: fits in one seed block.
_REFERENCE = {"n": 20_000, "d": 256, "k": 4, "seed": 7}


@pytest.mark.slow
def bench_chunked_million_users_under_one_gigabyte(benchmark):
    """n=10^6, d=256 out-of-core run: tracemalloc peak < 1 GB, asserted."""
    spec = _MILLION
    params = ProtocolParams(n=spec["n"], d=spec["d"], k=spec["k"], epsilon=1.0)
    population = BoundedChangePopulation(spec["d"], spec["k"], start_prob=0.2)

    def run():
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            started = time.perf_counter()
            # One root seed: one spawn child for the workload stream, one
            # for the protocol.
            workload_seed, protocol_seed = np.random.SeedSequence(spec["seed"]).spawn(2)
            chunks = population.sample_chunks(
                spec["n"], spec["chunk_size"], workload_seed
            )
            result = run_batch(
                chunks, params, protocol_seed, chunk_size=spec["chunk_size"]
            )
            seconds = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - before, seconds

    result, peak, seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.estimates.shape == (spec["d"],)
    assert peak < _PEAK_BUDGET_BYTES, (
        f"chunked n=10^6 run peaked at {peak / 1e6:.1f} MB, over the "
        f"{_PEAK_BUDGET_BYTES / 1e6:.0f} MB budget"
    )
    # Sanity: the estimates actually track a million-user population.
    assert result.true_counts.max() > 100_000
    benchmark.extra_info["peak_mb"] = round(peak / 1e6, 1)
    benchmark.extra_info["seconds_inside_tracemalloc"] = round(seconds, 2)
    benchmark.extra_info["user_periods_per_second"] = int(
        spec["n"] * spec["d"] / seconds
    )
    print(
        f"\nchunked n=1e6 d=256: peak {peak / 1e6:.1f} MB "
        f"(budget {_PEAK_BUDGET_BYTES / 1e6:.0f} MB), "
        f"{seconds:.1f}s under tracemalloc"
    )


def bench_chunked_bit_identity(benchmark):
    """Chunk-size invariance + monolithic equality at the reference size."""
    spec = _REFERENCE
    params = ProtocolParams(n=spec["n"], d=spec["d"], k=spec["k"], epsilon=1.0)
    population = BoundedChangePopulation(spec["d"], spec["k"], start_prob=0.2)
    block_rows = spec["n"]  # one seed block => monolithic comparison is exact
    states = np.concatenate(
        list(
            population.sample_chunks(
                spec["n"], spec["n"], spec["seed"], block_rows=block_rows
            )
        )
    )

    def chunked(chunk_size: int):
        return run_batch(
            states,
            params,
            spec["seed"],
            chunk_size=chunk_size,
            block_rows=block_rows,
        )

    reference = benchmark.pedantic(
        chunked, kwargs={"chunk_size": 1024}, rounds=1, iterations=1
    )
    for chunk_size in (257, spec["n"] + 1):
        other = chunked(chunk_size)
        np.testing.assert_array_equal(reference.estimates, other.estimates)
        np.testing.assert_array_equal(reference.orders, other.orders)

    (child,) = protocol_block_seeds(spec["seed"], spec["n"], block_rows=block_rows)
    monolithic = run_batch(states, params, np.random.default_rng(child))
    np.testing.assert_array_equal(reference.estimates, monolithic.estimates)
    np.testing.assert_array_equal(reference.true_counts, monolithic.true_counts)
    benchmark.extra_info["chunk_sizes_checked"] = [1024, 257, spec["n"] + 1]
    print("\nbit-identity: chunk sizes {1024, 257, n+1} == monolithic run_batch")
