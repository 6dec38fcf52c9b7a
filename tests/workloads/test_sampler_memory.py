"""Memory regression: the vectorized samplers' transients are O(tile).

Self-calibrating ``tracemalloc`` budget, like ``tests/sim/test_chunked_memory``:
for each sampler, the peak traced allocation *above the arrays it returns*
must not grow with ``n``.  Sampling ``4n`` users may cost at most 1.5x the
transients of sampling ``n`` (the per-user vectors — budgets, arrivals —
are O(n) but a few bytes a row), and the transients stay below half the
output.  An untiled sampler holds ``(n, d)`` float64 scores plus their
partition copy, about 16 bytes per output byte, so both bounds fail.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.workloads.generators import (
    BoundedChangePopulation,
    ChurnPopulation,
    TrendPopulation,
)

_D = 1024
_N = 1024

_SAMPLERS = {
    "bounded": lambda n, rng: BoundedChangePopulation(_D, 4, start_prob=0.3).sample(
        n, rng
    ),
    "trend": lambda n, rng: TrendPopulation(_D, 4).sample(n, rng),
    "churn": lambda n, rng: ChurnPopulation(_D, 4).sample_with_activity(n, rng),
}


def _transient_peak(sample, n: int) -> tuple[float, int]:
    """(peak traced bytes above the returned arrays, returned bytes)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        returned = sample(n, np.random.default_rng(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = returned if isinstance(returned, tuple) else (returned,)
    output = sum(array.nbytes for array in arrays)
    return float(peak - before - output), output


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_sampler_transients_do_not_grow_with_n(name):
    sample = _SAMPLERS[name]
    small, _ = _transient_peak(sample, _N)
    large, output = _transient_peak(sample, 4 * _N)
    assert large < 1.5 * small, (
        f"{name}: transients grew from {small / 1e6:.2f} MB at n={_N} to "
        f"{large / 1e6:.2f} MB at n={4 * _N}"
    )
    assert large < 0.5 * output, (
        f"{name}: {large / 1e6:.2f} MB of transients for a "
        f"{output / 1e6:.2f} MB output at n={4 * _N}"
    )
