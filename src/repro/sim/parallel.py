"""Multiprocess sharded execution of protocol trials.

The unit of work is a :class:`ShardTask`: one protocol, one workload, one
contiguous chunk of trial indices, and the exact ``SeedSequence`` children
those trials would receive on the serial path.  Sharding therefore changes
*where* a trial runs, never *what* it computes: each trial's generator is
spawned from the same root node of the seed tree regardless of worker count
or shard boundaries, and the parent reassembles per-trial metrics in trial
order before aggregating.  ``workers=4`` is bit-identical to ``workers=1``
is bit-identical to the historical serial loop (regression-tested).

Runners cross the process boundary in one of two forms:

* registry protocols travel as their *name* and are re-resolved from
  :data:`repro.protocols.PROTOCOLS` inside the worker (no instance pickling);
* any other callable is pickled directly, which works for module-level
  functions such as ``run_batch`` — lambdas/closures require ``workers=1``.

``execute_shards`` runs shard batches through :func:`repro.faults.run_supervised`
and streams an ``on_complete`` callback as each shard finishes (in
completion order), which is how interrupted sweeps persist the shards they
*did* finish; results are still returned in submission order.  A dead
worker is retried; any other failure first delivers every finished batch,
then propagates as its own type with a note naming the shard's trials.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.accuracy import summarize_errors
from repro.core.params import ProtocolParams
from repro.faults import run_supervised

__all__ = [
    "METRIC_NAMES",
    "ShardTask",
    "compute_trial_metrics",
    "decode_runner",
    "default_workers",
    "encode_runner",
    "execute_shards",
    "metrics_from_columns",
    "metrics_to_columns",
    "plan_batches",
    "plan_shards",
]

#: Per-trial metric columns, in tuple order — the artifact schema's metric set.
METRIC_NAMES = ("max_abs", "mean_abs", "rmse")

#: One trial's metrics: ``(max_abs, mean_abs, rmse)``.
TrialMetrics = tuple[float, float, float]


def default_workers() -> int:
    """A sensible worker count for this machine (respects CPU affinity)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux fallback
        return max(1, os.cpu_count() or 1)


def plan_shards(trials: int, shard_size: int) -> list[tuple[int, int]]:
    """Split ``trials`` into contiguous ``[start, stop)`` chunks.

    The plan depends only on ``(trials, shard_size)`` — never on the worker
    count — so artifact keys (which embed the chunk bounds) are stable across
    reruns with different parallelism.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be at least 1, got {shard_size}")
    return [
        (start, min(start + shard_size, trials))
        for start in range(0, trials, shard_size)
    ]


def encode_runner(name: str, runner: Callable) -> tuple[str, object]:
    """Encode a resolved runner for transport to a worker process."""
    from repro.protocols.registry import PROTOCOLS

    if PROTOCOLS.get(name) is runner:
        return ("registry", name)
    return ("pickle", runner)


def decode_runner(encoded: tuple[str, object]) -> Callable:
    """Inverse of :func:`encode_runner` (runs inside the worker)."""
    kind, payload = encoded
    if kind == "registry":
        from repro.protocols.registry import get_protocol

        return get_protocol(payload)
    return payload


@dataclass(frozen=True)
class ShardTask:
    """One self-contained chunk of trials, executable in any process."""

    runner: tuple[str, object]
    states: np.ndarray
    params: ProtocolParams
    seeds: tuple[np.random.SeedSequence, ...]
    trial_start: int
    trial_stop: int


def compute_trial_metrics(
    runner: Callable,
    states: np.ndarray,
    params: ProtocolParams,
    seeds: Sequence[np.random.SeedSequence],
) -> list[TrialMetrics]:
    """Run one trial per seed and summarize its errors.

    This is the single implementation both the serial and the multiprocess
    paths execute — the shared kernel that makes them bit-identical.
    """
    metrics: list[TrialMetrics] = []
    for child in seeds:
        rng = np.random.default_rng(child)
        result = runner(states, params, rng)
        summary = summarize_errors(result.estimates, result.true_counts)
        metrics.append((summary.max_abs, summary.mean_abs, summary.rmse))
    return metrics


def _execute_shard_batch(
    batch: Sequence[ShardTask],
) -> list[tuple[list[TrialMetrics], float]]:
    """Worker entry point: run a batch of shards, timing each one.

    Module-level so the pool can pickle it.  Returns ``(metrics, seconds)``
    per shard — duration is measured here, in the worker, so artifact
    provenance records each shard's own compute time rather than elapsed
    wall-clock since the whole sweep started.
    """
    outcomes = []
    for task in batch:
        started = time.perf_counter()
        runner = decode_runner(task.runner)
        metrics = compute_trial_metrics(runner, task.states, task.params, task.seeds)
        outcomes.append((metrics, time.perf_counter() - started))
    return outcomes


def metrics_to_columns(metrics: Sequence[TrialMetrics]) -> dict[str, list[float]]:
    """Column-oriented view for artifact serialization."""
    return {
        name: [trial[index] for trial in metrics]
        for index, name in enumerate(METRIC_NAMES)
    }


def metrics_from_columns(columns: dict) -> list[TrialMetrics]:
    """Inverse of :func:`metrics_to_columns` (artifact deserialization)."""
    try:
        series = [columns[name] for name in METRIC_NAMES]
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed metric columns: {error}") from error
    lengths = {len(column) for column in series}
    if len(lengths) != 1:
        raise ValueError(f"ragged metric columns (lengths {sorted(lengths)})")
    return [tuple(float(column[i]) for column in series) for i in range(lengths.pop())]


def _runner_label(task: ShardTask) -> str:
    kind, payload = task.runner
    if kind == "registry":
        return repr(payload)
    return repr(getattr(payload, "__name__", payload))


def _describe_shards(tasks: Sequence[ShardTask], indices: Sequence[int]) -> str:
    """Human-readable coordinates of the named shards (for error surfaces)."""
    coords = ", ".join(
        f"[{tasks[i].trial_start}, {tasks[i].trial_stop})" for i in indices
    )
    return (
        f"protocol {_runner_label(tasks[indices[0]])} shard(s) at "
        f"trials {coords}"
    )


def plan_batches(tasks: Sequence[ShardTask], workers: int) -> list[list[int]]:
    """Group task indices for pool submission, one workload pickle per batch.

    Tasks sharing the same ``states`` array (every shard of one sweep point)
    are grouped, and each group is split into at most ``workers`` contiguous
    batches.  A batch is pickled as one object, and pickle memoizes the
    shared array, so the workload crosses the process boundary at most
    ``workers`` times per sweep point — not once per trial — while still
    keeping every worker busy.  Batching affects only transport: per-shard
    results and artifact keys are unchanged.
    """
    by_workload: dict[int, list[int]] = {}
    for index, task in enumerate(tasks):
        by_workload.setdefault(id(task.states), []).append(index)
    batches: list[list[int]] = []
    for indices in by_workload.values():
        size = max(1, -(-len(indices) // max(workers, 1)))
        batches.extend(
            indices[start : start + size] for start in range(0, len(indices), size)
        )
    return batches


def execute_shards(
    tasks: Sequence[ShardTask],
    *,
    workers: int = 1,
    on_complete: Optional[Callable[[int, list[TrialMetrics], float], None]] = None,
) -> list[list[TrialMetrics]]:
    """Execute shard tasks, returning their metrics in submission order.

    ``workers == 1`` runs one shard per unit in-process (no pool, no
    pickling — closures and counting test doubles work) and fires
    ``on_complete`` after every single shard.  With more workers, shards
    are submitted in workload-sharing batches (:func:`plan_batches`) and
    ``on_complete(task_index, metrics, seconds)`` fires per shard as each
    batch finishes, so callers can persist progress incrementally.  Both
    run through :func:`repro.faults.run_supervised`: a dead worker is
    retried, and any other failure first drains every batch that already
    finished through ``on_complete``, then propagates as its own type with
    a note naming the failed shard's trial coordinates.
    """
    units = (
        [[index] for index in range(len(tasks))]
        if workers == 1
        else plan_batches(tasks, workers)
    )
    results: list[Optional[list[TrialMetrics]]] = [None] * len(tasks)

    def on_result(
        unit: int, outcomes: Sequence[tuple[list[TrialMetrics], float]]
    ) -> None:
        for index, (metrics, seconds) in zip(units[unit], outcomes, strict=True):
            results[index] = metrics
            if on_complete is not None:
                on_complete(index, metrics, seconds)

    run_supervised(
        _execute_shard_batch,
        [[tasks[index] for index in unit] for unit in units],
        workers=min(workers, max(len(units), 1)),
        on_result=on_result,
        describe=lambda unit: _describe_shards(tasks, units[unit]),
    )
    return results  # type: ignore[return-value]
