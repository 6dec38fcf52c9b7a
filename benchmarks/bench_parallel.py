"""Scaling benchmarks for the multiprocess sharded sweep engine.

The reference grid is the paper's d=256, n=10^4 configuration: a two-point
``k`` sweep of the full FutureRand protocol, enough single-trial work per
shard (~1 second each) that process fan-out — not pickling or pool startup —
dominates.  The headline claim tracked here: at 4 workers the sharded path
completes the grid in well under half the serial wall-clock (target >= 2.5x,
near-linear on unloaded hardware), while producing a **bit-identical** result
table (asserted on every run, whatever the host).

The speedup assertion is gated on the host actually having >= 4 usable CPUs;
on smaller machines the benchmark still runs both paths, records the measured
ratio in ``extra_info``, and enforces only bit-identity — a 1-CPU container
cannot demonstrate parallel wall-clock gains, and pretending otherwise would
just institutionalize a flaky benchmark.
"""

from __future__ import annotations

import time

from repro.core.params import ProtocolParams
from repro.sim.parallel import default_workers
from repro.sim.runner import sweep

#: The reference grid: d=256, n=1e4, two sweep points x 2 trials = 4 shards
#: of full-protocol work, evenly divisible across 1, 2 or 4 workers.
_GRID = {"n": 10_000, "d": 256, "ks": [2, 8], "trials": 2, "seed": 0}
_WORKERS = 4
_SPEEDUP_TARGET = 2.5


def _run_grid(workers: int):
    params = ProtocolParams(
        n=_GRID["n"], d=_GRID["d"], k=max(_GRID["ks"]), epsilon=1.0
    )
    return sweep(
        ["future_rand"],
        params,
        "k",
        _GRID["ks"],
        trials=_GRID["trials"],
        seed=_GRID["seed"],
        workers=workers,
        shard_size=1,
    )


def bench_parallel_sweep_speedup(benchmark):
    """Sharded (4-worker) vs serial sweep on the d=256, n=1e4 grid."""
    table = benchmark.pedantic(
        _run_grid, kwargs={"workers": _WORKERS}, rounds=1, iterations=1
    )

    start = time.perf_counter()
    serial_table = _run_grid(workers=1)
    serial_seconds = time.perf_counter() - start

    # Correctness is asserted unconditionally: sharding must never change
    # a single bit of the result table.
    assert table.to_json() == serial_table.to_json(), (
        "parallel sweep output differs from the serial path"
    )
    if benchmark.stats is None:  # --benchmark-disable: nothing was timed
        return
    parallel_seconds = benchmark.stats.stats.min
    speedup = serial_seconds / parallel_seconds

    benchmark.extra_info["workers"] = _WORKERS
    benchmark.extra_info["available_cpus"] = default_workers()
    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["speedup_vs_serial"] = speedup
    benchmark.extra_info["speedup_target"] = _SPEEDUP_TARGET
    print(
        f"\nsharded sweep ({_WORKERS} workers) speedup vs serial: "
        f"{speedup:.2f}x on {default_workers()} usable CPUs "
        f"(target >= {_SPEEDUP_TARGET}x with >= 4 CPUs)"
    )

    if default_workers() >= _WORKERS:
        assert speedup >= _SPEEDUP_TARGET, (
            f"sharded sweep only {speedup:.2f}x faster than serial at "
            f"{_WORKERS} workers (target {_SPEEDUP_TARGET}x)"
        )
