"""Repeated-trial execution and parameter sweeps.

A *protocol runner* is any callable ``(states, params, rng) -> ProtocolResult``
— the FutureRand drivers and every baseline share this signature, and every
:class:`repro.protocols.LongitudinalProtocol` instance satisfies it.  The
runner utilities here layer reproducible repetition and sweeping on top:

* :func:`run_trials` — independent repetitions with spawned seeds, returning
  mean/std/extremes of each error metric;
* :func:`sweep` — vary one parameter (``k``, ``d``, ``n``, ``epsilon``),
  regenerate the workload per point, and tabulate the results — the engine
  behind experiments E2–E5 and E10.

Both accept, in place of a runner: ``None`` (defaults to the batched online
engine, the fastest full-fidelity FutureRand driver), a registry name such
as ``"erlingsson"`` (resolved through :mod:`repro.protocols`), a protocol
instance, or the historical plain callable.  ``sweep`` additionally accepts
a sequence of names/protocols — ``sweep(["future_rand", "erlingsson"], ...)``
— alongside the historical ``{name: runner}`` dict.

Scaling knobs (see :mod:`repro.sim.parallel` and :mod:`repro.sim.store`):
``workers=N`` fans trial shards across a supervised process pool with
bit-identical output for any worker count; ``store=ResultStore(...)``
persists every (protocol, sweep point, trial chunk) as a content-addressed
artifact, and ``resume=True`` (the default when a store is given) skips
shards whose artifacts already exist.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence, Union

import numpy as np

from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.protocols.registry import ProtocolLike, resolve_runner
from repro.sim.batch_engine import run_batch_engine
from repro.sim.parallel import (
    ShardTask,
    TrialMetrics,
    encode_runner,
    execute_shards,
    metrics_from_columns,
    metrics_to_columns,
    plan_shards,
)
from repro.sim.results import ResultTable
from repro.sim.store import ResultStore, ShardKey, states_digest
from repro.utils.rng import spawn_generators
from repro.workloads.generators import BoundedChangePopulation

__all__ = ["ProtocolRunner", "TrialStatistics", "run_trials", "sweep"]


class ProtocolRunner(Protocol):
    """Callable protocol shared by every driver and baseline."""

    def __call__(
        self,
        states: np.ndarray,
        params: ProtocolParams,
        rng: Optional[np.random.Generator] = None,
    ) -> ProtocolResult: ...


@dataclass(frozen=True)
class TrialStatistics:
    """Aggregated error metrics across independent repetitions."""

    trials: int
    mean_max_abs: float
    std_max_abs: float
    worst_max_abs: float
    best_max_abs: float
    mean_mae: float
    mean_rmse: float

    @classmethod
    def from_metrics(cls, metrics: Sequence[TrialMetrics]) -> "TrialStatistics":
        """Aggregate per-trial ``(max_abs, mean_abs, rmse)`` tuples.

        The single aggregation path shared by the serial, multiprocess and
        artifact-reload code — given the same per-trial floats in the same
        order, the statistics are bit-identical.
        """
        trials = len(metrics)
        max_array = np.array([trial[0] for trial in metrics])
        maes = [trial[1] for trial in metrics]
        rmses = [trial[2] for trial in metrics]
        return cls(
            trials=trials,
            mean_max_abs=float(max_array.mean()),
            std_max_abs=float(max_array.std(ddof=1)) if trials > 1 else 0.0,
            worst_max_abs=float(max_array.max()),
            best_max_abs=float(max_array.min()),
            mean_mae=float(np.mean(maes)),
            mean_rmse=float(np.mean(rmses)),
        )


def _prepare_runner(runner: Optional[ProtocolLike]) -> tuple[str, Callable]:
    """Resolve any accepted runner spec to its canonical ``(name, callable)``."""
    if runner is None:
        return "future_rand", run_batch_engine
    return resolve_runner(runner)


def _bound_duplicate_rate(runner: Callable) -> float:
    """The ``report_duplicate_rate`` already bound onto ``runner``, if any.

    Fuzz genomes and ad-hoc callers bind fault rates through
    ``functools.partial`` chains over :func:`run_batch_engine`; walking the
    chain here is what lets ``run_trials``/``sweep`` reject the
    duplicate-rate/chunk-size conflict during pre-validation instead of
    letting a worker process discover it mid-run.
    """
    while isinstance(runner, functools.partial):
        rate = runner.keywords.get("report_duplicate_rate", 0.0)
        if rate:
            return float(rate)
        runner = runner.func
    return 0.0


def _apply_execution_options(
    name: str,
    runner: Callable,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
) -> Callable:
    """Bind ``chunk_size``/``kernel`` onto an option-aware runner (or reject).

    Support is advertised with ``supports_chunk_size`` / ``supports_kernel``
    attributes (set on :func:`~repro.sim.batch_engine.run_batch_engine` and
    the hierarchical protocol adapters); for protocol instances the bound
    ``run`` method is wrapped, keeping the partial picklable for the
    multiprocess path (stateless registry singletons pickle by reference).
    Both options are validated against the *unwrapped* runner before a
    single partial is built, so they compose.
    """
    kwargs: dict[str, object] = {}
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        if _bound_duplicate_rate(runner):
            # The chunked accumulator folds node sums and cannot replay
            # per-report duplication; the engine raises the same conflict,
            # but only once a worker actually constructs it — mid-sweep.
            # Reject here, before any shard is planned or submitted.
            raise ValueError(
                "report_duplicate_rate requires the monolithic engine path "
                "and cannot be combined with chunk_size; drop one of the two"
            )
        if not getattr(runner, "supports_chunk_size", False):
            from repro.protocols.registry import PROTOCOLS

            chunk_aware = sorted(
                key for key, protocol in PROTOCOLS.items()
                if protocol.supports_chunk_size
            )
            raise ValueError(
                f"protocol {name!r} does not support chunk_size; chunk-aware "
                f"protocols: {', '.join(chunk_aware)}"
            )
        kwargs["chunk_size"] = chunk_size
    if kernel is not None:
        from repro.kernels import resolve_kernel

        resolve_kernel(kernel)  # unknown kernels fail here, not mid-sweep
        if not getattr(runner, "supports_kernel", False):
            from repro.protocols.registry import PROTOCOLS

            kernel_aware = sorted(
                key for key, protocol in PROTOCOLS.items()
                if protocol.supports_kernel
            )
            raise ValueError(
                f"protocol {name!r} does not support kernel selection; "
                f"kernel-aware protocols: {', '.join(kernel_aware)}"
            )
        kwargs["kernel"] = kernel
    if not kwargs:
        return runner
    target = runner.run if hasattr(runner, "run") else runner
    return functools.partial(target, **kwargs)


def _params_payload(
    params: ProtocolParams,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
    domain_size: Optional[int] = None,
) -> dict[str, Union[int, float, str]]:
    payload: dict[str, Union[int, float, str]] = {
        "n": params.n,
        "d": params.d,
        "k": params.k,
        "epsilon": params.epsilon,
        "beta": params.beta,
    }
    # Chunked execution consumes a different randomness stream than the
    # monolithic path, so the artifact key must distinguish the two — but
    # only as a boolean: chunked output is bit-identical for every chunk
    # size, so a resumed sweep may change the knob (say, on a smaller
    # machine) and still reuse its completed shards.  Omitted when unset to
    # keep every historical (non-chunked) key byte-stable.
    if chunk_size is not None:
        payload["chunked"] = True
    # Kernel backends likewise change the randomness stream, never the
    # distribution; recorded only when non-default so historical keys stay
    # byte-stable (``None`` and ``"reference"`` are bit-identical paths).
    kernel_name = getattr(kernel, "name", kernel)
    if kernel_name is not None and kernel_name != "reference":
        payload["kernel"] = str(kernel_name)
    # Item-domain protocols parameterize on the domain size m; Boolean
    # protocols carry ``domain_size=None`` and their keys stay byte-stable.
    if domain_size is not None:
        payload["domain_size"] = int(domain_size)
    return payload


@dataclass(frozen=True)
class _PlannedShard:
    """One shard of one (protocol, sweep point) unit, plus its artifact key."""

    task: ShardTask
    key: Optional[ShardKey]
    point: tuple  # grouping handle for reassembly, e.g. (position, name)


def _plan_point_shards(
    *,
    name: str,
    runner: Callable,
    states: np.ndarray,
    params: ProtocolParams,
    trial_seed: np.random.SeedSequence,
    trials: int,
    shard_size: int,
    store: Optional[ResultStore],
    digest: Optional[str],
    point: tuple,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
    domain_size: Optional[int] = None,
) -> list[_PlannedShard]:
    """Build the shard tasks (and keys) for one (protocol, sweep point)."""
    # Captured before spawning: a caller-supplied SeedSequence that has
    # already spawned children hands out *different* trial seeds, and the
    # artifact key must reflect that (else resume would hit stale artifacts).
    spawn_base = trial_seed.n_children_spawned
    children = tuple(trial_seed.spawn(trials))
    encoded = encode_runner(name, runner)
    planned = []
    for start, stop in plan_shards(trials, shard_size):
        key = None
        if store is not None:
            key = ShardKey(
                protocol=name,
                params=_params_payload(params, chunk_size, kernel, domain_size),
                seed_entropy=trial_seed.entropy,
                spawn_key=tuple(trial_seed.spawn_key),
                seed_spawn_base=spawn_base,
                trial_start=start,
                trial_stop=stop,
                trials_total=trials,
                states_sha256=digest,
            )
        planned.append(
            _PlannedShard(
                task=ShardTask(
                    runner=encoded,
                    states=states,
                    params=params,
                    seeds=children[start:stop],
                    trial_start=start,
                    trial_stop=stop,
                ),
                key=key,
                point=point,
            )
        )
    return planned


def _execute_planned(
    planned: Sequence[_PlannedShard],
    *,
    workers: int,
    store: Optional[ResultStore],
    resume: bool,
) -> dict[tuple, list[TrialMetrics]]:
    """Run (or reload) every planned shard; return metrics grouped by point.

    Shards whose artifacts already exist are reloaded when ``resume`` is
    true; everything else executes (across ``workers`` processes) and is
    persisted the moment it completes, so an interrupted run keeps its
    finished shards.  Reloaded and freshly-computed metrics are interleaved
    back into trial order per point — the output is independent of which
    shards were cached.
    """
    metrics_by_shard: list[Optional[list[TrialMetrics]]] = [None] * len(planned)
    pending: list[int] = []
    for index, shard in enumerate(planned):
        if store is not None and resume:
            body = store.load_shard(shard.key)
            if body is not None:
                metrics_by_shard[index] = metrics_from_columns(body["metrics"])
                continue
        pending.append(index)

    if pending:

        def on_complete(
            pending_index: int, metrics: list[TrialMetrics], seconds: float
        ) -> None:
            index = pending[pending_index]
            metrics_by_shard[index] = metrics
            if store is not None:
                store.write_shard(
                    planned[index].key,
                    metrics_to_columns(metrics),
                    meta={
                        "workers": workers,
                        "duration_s": round(seconds, 6),
                    },
                )

        execute_shards(
            [planned[index].task for index in pending],
            workers=workers,
            on_complete=on_complete,
        )

    grouped: dict[tuple, list[TrialMetrics]] = {}
    for shard, metrics in zip(planned, metrics_by_shard, strict=True):
        grouped.setdefault(shard.point, []).extend(metrics)
    return grouped


def run_trials(
    runner: Optional[ProtocolLike],
    states: np.ndarray,
    params: ProtocolParams,
    *,
    trials: int = 5,
    seed: Union[None, int, np.random.SeedSequence] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
) -> TrialStatistics:
    """Run ``runner`` repeatedly on the same workload with independent seeds.

    ``runner`` may be ``None`` (the batched online engine), a registry name
    such as ``"memoization"``, a protocol instance, or a plain callable.
    ``seed`` may be an ``int`` or a ``SeedSequence`` (the latter lets callers
    hand down a node of their own spawn tree for end-to-end reproducibility).

    ``workers > 1`` fans trial chunks across worker processes with
    bit-identical results for any worker count; ``store`` persists each chunk
    as a resumable artifact (``resume=False`` forces recomputation).
    ``chunk_size`` runs each trial in the memory-bounded chunked mode (the
    two knobs compose: shards bound a worker's *task*, chunks bound its
    *peak memory*); the runner must be chunk-aware — see the chunked mode
    of :mod:`repro.core.vectorized`.  ``kernel`` selects the randomizer
    backend for kernel-aware runners (:mod:`repro.kernels`); artifact keys
    record it only when non-default.
    """
    name, runner = _prepare_runner(runner)
    # Captured before option-wrapping: functools.partial hides the instance
    # attributes of the underlying protocol.
    domain_size = getattr(runner, "domain_size", None)
    runner = _apply_execution_options(name, runner, chunk_size, kernel)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    planned = _plan_point_shards(
        name=name,
        runner=runner,
        states=states,
        params=params,
        trial_seed=seed,
        trials=trials,
        shard_size=_default_shard_size(trials, workers, shard_size, store),
        store=store,
        digest=states_digest(states) if store is not None else None,
        point=(name,),
        chunk_size=chunk_size,
        kernel=kernel,
        domain_size=domain_size,
    )
    grouped = _execute_planned(planned, workers=workers, store=store, resume=resume)
    return TrialStatistics.from_metrics(grouped[(name,)])


def _default_shard_size(
    trials: int,
    workers: int,
    shard_size: Optional[int],
    store: Optional[ResultStore],
) -> int:
    """Pick a shard size: fine-grained when persisting, coarse otherwise.

    With a store, the default is one trial per shard so resume granularity is
    maximal and keys stay independent of the worker count.  Without one,
    chunks just need to keep every worker busy.
    """
    if shard_size is not None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be at least 1, got {shard_size}")
        return shard_size
    if store is not None:
        return 1
    return max(1, -(-trials // max(workers, 1)))


def _default_workload(params: ProtocolParams, rng: np.random.Generator) -> np.ndarray:
    population = BoundedChangePopulation(params.d, params.k, exact_k=True)
    return population.sample(params.n, rng)


def _normalize_runners(
    runners: Union[None, ProtocolLike, Sequence[ProtocolLike], dict[str, ProtocolLike]],
) -> dict[str, Callable]:
    """Coerce every accepted runner specification into ``{name: callable}``."""
    if runners is None:
        return {"future_rand": run_batch_engine}
    if isinstance(runners, dict):
        return {
            name: resolve_runner(spec)[1] for name, spec in runners.items()
        }
    if isinstance(runners, str) or not isinstance(runners, Sequence):
        runners = [runners]
    normalized: dict[str, Callable] = {}
    for spec in runners:
        name, runner = resolve_runner(spec)
        if name in normalized:
            raise ValueError(f"duplicate runner name {name!r} in sweep")
        normalized[name] = runner
    return normalized


def _stable_name_key(name: str) -> int:
    """Process-stable integer fingerprint of a runner name.

    ``hash(str)`` is salted per interpreter process, which silently broke
    sweep reproducibility across runs; CRC32 is deterministic everywhere.
    """
    return zlib.crc32(name.encode("utf-8"))


def sweep(
    runners: Union[None, ProtocolLike, Sequence[ProtocolLike], dict[str, ProtocolLike]],
    base_params: ProtocolParams,
    parameter: str,
    values: Sequence[float],
    *,
    trials: int = 3,
    seed: Optional[int] = None,
    workload: Optional[
        Callable[[ProtocolParams, np.random.Generator], np.ndarray]
    ] = None,
    title: Optional[str] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
) -> ResultTable:
    """Sweep one protocol parameter and tabulate every runner's error.

    For each value the workload is regenerated (same seed stream, so runners
    at the same sweep point see the same population) and each runner executes
    ``trials`` independent repetitions.  ``runners`` may be ``None`` (the
    batched online engine under the name ``"future_rand"``), a single
    protocol name/instance/callable, a sequence of those (named after each
    protocol), or the historical ``{name: runner}`` dict.

    All trial seeds descend from the root ``SeedSequence`` spawn tree, keyed
    by sweep position and a process-stable fingerprint of the runner name —
    two same-seed sweeps produce identical tables, in any process.

    ``workers > 1`` executes trial shards from *all* sweep points and runners
    concurrently in one process pool; the assembled table is bit-identical
    for any worker count.  ``store`` persists every shard as a
    content-addressed artifact; with ``resume=True`` (default) shards whose
    artifacts exist are reloaded instead of recomputed, so an interrupted
    sweep continues where it stopped.

    ``chunk_size`` executes every trial in the memory-bounded chunked mode
    (chunk-aware runners only): ``workers`` fans shards across processes,
    ``chunk_size`` bounds each process's peak memory.  ``kernel`` selects
    the randomizer backend for every kernel-aware runner
    (:mod:`repro.kernels`); artifact keys record it only when non-default,
    so ``"reference"`` sweeps keep reusing historical artifacts.

    >>> params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
    >>> table = sweep(None, params, "k", [1, 2], trials=1, seed=0)
    >>> table.column("k")
    [1.0, 2.0]
    """
    runners = _normalize_runners(runners)
    # Captured before option-wrapping (partials hide protocol attributes).
    domain_sizes = {
        name: getattr(runner, "domain_size", None)
        for name, runner in runners.items()
    }
    runners = {
        name: _apply_execution_options(name, runner, chunk_size, kernel)
        for name, runner in runners.items()
    }
    if parameter not in ("n", "d", "k", "epsilon"):
        raise ValueError(f"cannot sweep {parameter!r}; pick one of n/d/k/epsilon")
    if not values:
        raise ValueError("values must be non-empty")
    make_states = workload if workload is not None else _default_workload
    table = ResultTable(
        title=title or f"sweep over {parameter}",
        columns=[parameter, "protocol", "mean_max_abs", "std_max_abs", "mean_mae"],
    )
    root = np.random.SeedSequence(seed)
    workload_rngs = spawn_generators(root, len(values))
    trial_base = root.spawn(1)[0]
    effective_shard_size = _default_shard_size(trials, workers, shard_size, store)

    planned: list[_PlannedShard] = []
    point_order: list[tuple] = []
    for position, value in enumerate(values):
        cast = float(value) if parameter == "epsilon" else int(value)
        params = base_params.with_updates(**{parameter: cast})
        states = make_states(params, workload_rngs[position])
        digest = states_digest(states) if store is not None else None
        for name, runner in runners.items():
            # One spawn-tree node per (sweep point, runner): deterministic,
            # independent of dict iteration order and of the process hash salt.
            trial_seed = np.random.SeedSequence(
                entropy=trial_base.entropy,
                spawn_key=(*trial_base.spawn_key, position, _stable_name_key(name)),
            )
            point = (position, float(value), name)
            point_order.append(point)
            planned.extend(
                _plan_point_shards(
                    name=name,
                    runner=runner,
                    states=states,
                    params=params,
                    trial_seed=trial_seed,
                    trials=trials,
                    shard_size=effective_shard_size,
                    store=store,
                    digest=digest,
                    point=point,
                    chunk_size=chunk_size,
                    kernel=kernel,
                    domain_size=domain_sizes[name],
                )
            )

    grouped = _execute_planned(planned, workers=workers, store=store, resume=resume)
    for point in point_order:
        _, value, name = point
        statistics = TrialStatistics.from_metrics(grouped[point])
        table.add_row(
            **{parameter: value},
            protocol=name,
            mean_max_abs=statistics.mean_max_abs,
            std_max_abs=statistics.std_max_abs,
            mean_mae=statistics.mean_mae,
        )
    return table
