"""Memory regression: the chunked pipeline's peak allocation is O(chunk).

Self-calibrating ``tracemalloc`` budget: the peak incremental allocation of a
full n=200,000, d=512 chunked run must stay below 3x the peak of processing a
*single* chunk (generation + randomization + accumulation), and far below one
monolithic ``(n, d)`` matrix.  If anyone reintroduces a full-population
materialization — states, reports, scores — the full-run peak scales with n
and both bounds blow up.

Timing/speedup assertions stay gated on ``default_workers()`` elsewhere (this
container exposes 1 CPU); memory bounds hold on any machine, so this test is
unconditional (just ``slow``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.vectorized import run_batch
from repro.workloads.generators import BoundedChangePopulation

_D = 512
_K = 4
_CHUNK = 4096
_N_FULL = 200_000


def _peak_of_run(n: int) -> tuple[float, np.ndarray]:
    """Peak incremental traced allocation of a full chunked run at size n."""
    params = ProtocolParams(n=n, d=_D, k=_K, epsilon=1.0)
    population = BoundedChangePopulation(_D, _K, start_prob=0.2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        workload_seed, protocol_seed = np.random.SeedSequence(1234).spawn(2)
        chunks = population.sample_chunks(n, _CHUNK, workload_seed, block_rows=_CHUNK)
        result = run_batch(
            chunks, params, protocol_seed, chunk_size=_CHUNK, block_rows=_CHUNK
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return float(peak - before), result.estimates


@pytest.mark.slow
def test_chunked_run_peak_memory_is_bounded_by_the_chunk():
    single_chunk_peak, _ = _peak_of_run(_CHUNK)
    full_peak, estimates = _peak_of_run(_N_FULL)
    assert estimates.shape == (_D,)

    # The full run touches 49x more users than one chunk; its peak must not
    # scale with n.  3x one chunk's working set is the contract.
    assert full_peak < 3.0 * single_chunk_peak, (
        f"full-run peak {full_peak / 1e6:.1f} MB exceeds 3x the "
        f"single-chunk peak {single_chunk_peak / 1e6:.1f} MB"
    )
    # And in absolute terms: far below one monolithic (n, d) int8 matrix,
    # which is itself ~12x smaller than the float64 score/report transients
    # a monolithic run would allocate on top.
    monolithic_matrix_bytes = _N_FULL * _D
    assert full_peak < 0.5 * monolithic_matrix_bytes, (
        f"full-run peak {full_peak / 1e6:.1f} MB is not small against a "
        f"{monolithic_matrix_bytes / 1e6:.1f} MB monolithic matrix"
    )
