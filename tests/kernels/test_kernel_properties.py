"""Property tests: invariants every kernel backend must satisfy.

For *any* registered backend, any family, and any valid ternary input:

* ``randomize_matrix`` outputs are exactly ``{-1, +1}`` int8 of the input
  shape (Property I's support requirement);
* batched ``R~(1^k)`` row distances always land inside the support of the
  law's exact distance pmf (inside the annulus, or in the uniform-outside
  complement — never at a zero-mass distance);
* sparsity violations and malformed entries are rejected identically.

Plus the fast-specific structural invariant: chunked and monolithic
``run_batch`` under the fast kernel agree bit-for-bit inside one seed block
(the chunked contract holds per backend).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import CalibratedFutureRandFamily
from repro.baselines.bun_composed import BunComposedFamily
from repro.core.annulus import AnnulusLaw
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.core.vectorized import protocol_block_seeds, run_batch
from repro.kernels import available_kernels, get_kernel
from repro.workloads.generators import BoundedChangePopulation

KERNELS = available_kernels()
FAMILY_TYPES = [FutureRandFamily, CalibratedFutureRandFamily, BunComposedFamily]


def _sparse_matrix(users: int, length: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = np.zeros((users, length), dtype=np.int8)
    for row in range(users):
        nonzeros = int(rng.integers(0, min(k, length) + 1))
        columns = rng.choice(length, size=nonzeros, replace=False)
        matrix[row, columns] = rng.choice([-1, 1], size=nonzeros)
    return matrix


@settings(max_examples=25, deadline=None)
@given(
    users=st.integers(min_value=0, max_value=40),
    length=st.integers(min_value=1, max_value=24),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(KERNELS),
    family_type=st.sampled_from(FAMILY_TYPES),
)
def test_randomize_matrix_outputs_are_signs(
    users, length, k, seed, kernel, family_type
):
    family = family_type(k, 1.0)
    matrix = _sparse_matrix(users, length, k, seed)
    output = family.randomize_matrix(
        matrix, np.random.default_rng(seed + 1), kernel=kernel
    )
    assert output.shape == matrix.shape
    assert output.dtype == np.int8
    assert set(np.unique(output)) <= {-1, 1}


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=24),
    epsilon=st.sampled_from([0.25, 1.0, 4.0]),
    count=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(KERNELS),
)
def test_batch_distances_inside_law_support(k, epsilon, count, seed, kernel):
    law = AnnulusLaw.for_future_rand(k, epsilon)
    b = np.ones(k, dtype=np.int8)
    draws = get_kernel(kernel).sample_composed_batch(
        law, b, count, np.random.default_rng(seed)
    )
    assert draws.shape == (count, k)
    distances = (draws != b[np.newaxis, :]).sum(axis=1)
    support = law.distance_pmf() > 0
    assert support[distances].all(), (
        f"{kernel} kernel produced a zero-mass distance at k={k}, "
        f"eps={epsilon}"
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family_type", FAMILY_TYPES)
def test_sparsity_violation_rejected(kernel, family_type):
    family = family_type(2, 1.0)
    matrix = np.ones((4, 8), dtype=np.int8)  # 8 non-zeros per row, k=2
    with pytest.raises(ValueError, match="non-zero values"):
        family.randomize_matrix(matrix, np.random.default_rng(0), kernel=kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family_type", FAMILY_TYPES)
def test_non_ternary_entries_rejected(kernel, family_type):
    family = family_type(4, 1.0)
    matrix = np.full((3, 8), 2, dtype=np.int8)
    with pytest.raises(ValueError, match="must all be in"):
        family.randomize_matrix(matrix, np.random.default_rng(0), kernel=kernel)
    floats = np.full((3, 8), 0.5)
    with pytest.raises(ValueError, match="must all be in"):
        family.randomize_matrix(floats, np.random.default_rng(0), kernel=kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family_type", FAMILY_TYPES)
def test_float_valued_ternary_entries_accepted(kernel, family_type):
    """Exact -1.0/0.0/1.0 floats are valid input for every backend."""
    family = family_type(4, 1.0)
    matrix = np.zeros((5, 8), dtype=np.float64)
    matrix[:, 1] = 1.0
    matrix[:, 6] = -1.0
    output = family.randomize_matrix(matrix, np.random.default_rng(0), kernel=kernel)
    assert set(np.unique(output)) <= {-1, 1}


@settings(max_examples=15, deadline=None)
@given(
    log_d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=50),
    workload_seed=st.integers(min_value=0, max_value=2**32 - 1),
    protocol_seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk_size=st.sampled_from([1, 7, 23, 64]),
)
def test_fast_chunked_equals_fast_monolithic_single_block(
    log_d, k, n, workload_seed, protocol_seed, chunk_size
):
    """Chunk-size invariance holds under the fast kernel, bit for bit."""
    d = 1 << log_d
    k = min(k, d)
    params = ProtocolParams(n=n, d=d, k=k, epsilon=1.0)
    states = BoundedChangePopulation(d, k, start_prob=0.25).sample(
        n, np.random.default_rng(workload_seed)
    )
    (child,) = protocol_block_seeds(protocol_seed, n, block_rows=128)
    monolithic = run_batch(
        states, params, np.random.default_rng(child), kernel="fast"
    )
    chunked = run_batch(
        states,
        params,
        protocol_seed,
        chunk_size=chunk_size,
        block_rows=128,
        kernel="fast",
    )
    np.testing.assert_array_equal(monolithic.estimates, chunked.estimates)
