"""Micro-benchmarks of the core computational kernels.

These quantify the practicality claims a deployment would care about: client
report generation is microseconds, the composed randomizer's pre-computation
is linear in ``k``, and the vectorized driver processes millions of
user-periods per second.

The kernel-backend benches at the bottom track the ``"fast"`` vs
``"reference"`` trajectory (the same measurement ``repro bench`` emits as
``BENCH_kernels.json``); the speedup *assertion* is gated on
``default_workers() > 1`` — single-CPU hosts still measure, they just don't
gate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import sparse_sign_matrix
from repro.core.annulus import AnnulusLaw
from repro.core.composed_randomizer import ComposedRandomizer
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.core.vectorized import run_batch
from repro.sim.batch_engine import BatchSimulationEngine
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import default_workers
from repro.utils.chunking import DEFAULT_BLOCK_ROWS
from repro.workloads.generators import BoundedChangePopulation


def bench_annulus_law_construction(benchmark):
    """Exact law + c_gap at k=1024 (the server's setup cost)."""

    def build():
        law = AnnulusLaw.for_future_rand(1024, 1.0)
        return law.c_gap

    c_gap = benchmark(build)
    assert c_gap > 0


def bench_composed_sampler_batch(benchmark):
    """10k independent R~(1^64) draws (client pre-computation, batched)."""
    law = AnnulusLaw.for_future_rand(64, 1.0)
    sampler = ComposedRandomizer(law)
    ones = np.ones(64, dtype=np.int8)
    rng = np.random.default_rng(0)
    result = benchmark(sampler.sample_batch, ones, 10_000, rng)
    assert result.shape == (10_000, 64)


def bench_future_rand_client_init(benchmark):
    """One client's M.init (pre-computation) at k=64, L=256."""
    family = FutureRandFamily(64, 1.0)
    rng = np.random.default_rng(0)
    randomizer = benchmark(family.spawn, 256, rng)
    assert randomizer.sparsity == 64


def bench_randomize_matrix(benchmark):
    """Vectorized FutureRand over a (5000, 128) partial-sum matrix."""
    family = FutureRandFamily(8, 1.0)
    rng = np.random.default_rng(1)
    values = np.zeros((5000, 128), dtype=np.int8)
    values[:, 3] = 1
    values[:, 77] = -1
    result = benchmark(family.randomize_matrix, values, rng)
    assert result.shape == (5000, 128)


def bench_protocol_run_batch(benchmark):
    """Full protocol, 20k users x 256 periods (the E2 'full' unit of work)."""
    params = ProtocolParams(n=20_000, d=256, k=4, epsilon=1.0)
    states = BoundedChangePopulation(params.d, params.k, exact_k=True).sample(
        params.n, np.random.default_rng(2)
    )
    rng = np.random.default_rng(3)
    result = benchmark.pedantic(
        run_batch, args=(states, params, rng), rounds=1, iterations=1
    )
    benchmark.extra_info["user_periods"] = params.n * params.d
    assert result.estimates.shape == (256,)


def bench_population_sample_block(benchmark):
    """One default 8192-user block at d=256, k=4: a service worker's draw."""
    population = BoundedChangePopulation(256, 4, exact_k=True)
    rng = np.random.default_rng(4)
    states = benchmark(population.sample, DEFAULT_BLOCK_ROWS, rng)
    assert states.shape == (DEFAULT_BLOCK_ROWS, 256)
    assert states.dtype == np.int8


def bench_composed_sampler_batch_fast(benchmark):
    """10k independent R~(1^64) draws through the fast kernel backend."""
    law = AnnulusLaw.for_future_rand(64, 1.0)
    sampler = ComposedRandomizer(law)
    ones = np.ones(64, dtype=np.int8)
    rng = np.random.default_rng(0)
    result = benchmark(sampler.sample_batch, ones, 10_000, rng, kernel="fast")
    assert result.shape == (10_000, 64)


def bench_randomize_matrix_fast(benchmark):
    """Vectorized FutureRand over a (5000, 128) matrix, fast kernel."""
    family = FutureRandFamily(8, 1.0)
    rng = np.random.default_rng(1)
    values = np.zeros((5000, 128), dtype=np.int8)
    values[:, 3] = 1
    values[:, 77] = -1
    result = benchmark(family.randomize_matrix, values, rng, kernel="fast")
    assert result.shape == (5000, 128)


def bench_kernel_speedup(benchmark):
    """Fast vs reference kernel on randomize_matrix: tracks the >=3x target.

    A scaled-down version of ``repro bench --scale quick``'s headline point
    (n=2e4, d=512 instead of n=1e5, d=1024 — same code paths, CI-friendly
    runtime).  The benchmarked callable is the fast kernel; the reference
    kernel is timed once alongside it and the ratio lands in ``extra_info``
    so the perf trajectory keeps the headline number.  The floor assertion
    only runs on hosts with more than one usable CPU (the
    ``default_workers()`` guard pattern — this dev container has 1).
    """
    n, d, k = 20_000, 512, 8
    family = FutureRandFamily(k, 1.0)
    matrix = sparse_sign_matrix(n, d, k, np.random.default_rng(2))

    result = benchmark.pedantic(
        family.randomize_matrix,
        args=(matrix,),
        kwargs={"rng": np.random.default_rng(3), "kernel": "fast"},
        rounds=3,
        iterations=1,
    )
    assert result.shape == (n, d)

    start = time.perf_counter()
    family.randomize_matrix(matrix, np.random.default_rng(4))
    reference_seconds = time.perf_counter() - start
    fast_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / fast_seconds
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["speedup_fast_vs_reference"] = speedup
    benchmark.extra_info["speedup_target"] = 3.0
    print(f"\nfast kernel speedup vs reference: {speedup:.1f}x (target >= 3x)")
    if default_workers() > 1:
        assert speedup >= 3.0, f"fast kernel only {speedup:.1f}x faster"


def _online_engine_workload() -> tuple[ProtocolParams, np.ndarray]:
    """The perf-trajectory reference point: n=10^4 users, d=256 periods."""
    params = ProtocolParams(n=10_000, d=256, k=4, epsilon=1.0)
    states = BoundedChangePopulation(params.d, params.k, exact_k=True).sample(
        params.n, np.random.default_rng(7)
    )
    return params, states


def bench_online_batch_engine(benchmark):
    """Batched online engine (per-period loop, vectorized population)."""
    params, states = _online_engine_workload()

    def run():
        engine = BatchSimulationEngine(params, rng=np.random.default_rng(8))
        return engine.run(states)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["user_periods"] = params.n * params.d
    assert result.estimates.shape == (params.d,)


def bench_online_engine_speedup(benchmark):
    """Batch vs. object engine at n=10^4, d=256: tracks the >=20x target.

    The benchmarked callable is the batch engine; the object engine is timed
    once alongside it and the ratio is recorded in ``extra_info`` so the perf
    trajectory keeps the headline speedup number.
    """
    params, states = _online_engine_workload()

    def run_batch_engine():
        engine = BatchSimulationEngine(params, rng=np.random.default_rng(9))
        return engine.run(states)

    result = benchmark.pedantic(run_batch_engine, rounds=3, iterations=1)
    assert result.estimates.shape == (params.d,)

    start = time.perf_counter()
    SimulationEngine(params, rng=np.random.default_rng(10)).run(states)
    object_seconds = time.perf_counter() - start
    batch_seconds = benchmark.stats.stats.min
    speedup = object_seconds / batch_seconds
    benchmark.extra_info["object_engine_seconds"] = object_seconds
    benchmark.extra_info["speedup_vs_object_engine"] = speedup
    benchmark.extra_info["speedup_target"] = 20.0
    print(f"\nbatch engine speedup vs object engine: {speedup:.1f}x "
          f"(target >= 20x; measured ~60x on the reference machine)")
    # Loose floor only: the 20x target is tracked via extra_info/print, and a
    # hard assert on a single-shot wall-clock ratio would flake on loaded or
    # unusually-proportioned hosts.  Below 5x something has genuinely broken.
    assert speedup >= 5.0, f"batch engine only {speedup:.1f}x faster"
