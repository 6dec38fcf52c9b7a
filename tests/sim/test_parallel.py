"""Determinism and resume regressions for the sharded sweep engine.

The contract under test: sharding changes *where* a trial runs, never *what*
it computes.  ``workers=4`` must be bit-identical to ``workers=1``, which
must be bit-identical to the pre-parallel serial loop (re-implemented here
verbatim as the frozen reference); an interrupted store-backed sweep must
resume by executing only the missing shards and still produce the identical
table.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pytest

from repro.analysis.accuracy import summarize_errors
from repro.core.params import ProtocolParams
from repro.sim.batch_engine import run_batch_engine
from repro.sim.parallel import plan_shards
from repro.sim.results import ResultTable
from repro.sim.runner import (
    TrialStatistics,
    _stable_name_key,
    run_trials,
    sweep,
)
from repro.sim.store import ResultStore
from repro.utils.rng import spawn_generators
from repro.workloads.generators import BoundedChangePopulation

_PARAMS = ProtocolParams(n=250, d=16, k=2, epsilon=1.0)
_SWEEP_KS = [1, 2]
_TRIALS = 4


@pytest.fixture
def states() -> np.ndarray:
    population = BoundedChangePopulation(_PARAMS.d, _PARAMS.k, exact_k=True)
    return population.sample(_PARAMS.n, np.random.default_rng(99))


# -- the frozen pre-parallel reference implementations ----------------------


def _pre_pr_run_trials(runner, states, params, *, trials, seed) -> TrialStatistics:
    """The historical serial ``run_trials`` loop, verbatim."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    generators = spawn_generators(seed, trials)
    max_errors, maes, rmses = [], [], []
    for rng in generators:
        result = runner(states, params, rng)
        summary = summarize_errors(result.estimates, result.true_counts)
        max_errors.append(summary.max_abs)
        maes.append(summary.mean_abs)
        rmses.append(summary.rmse)
    max_array = np.array(max_errors)
    return TrialStatistics(
        trials=trials,
        mean_max_abs=float(max_array.mean()),
        std_max_abs=float(max_array.std(ddof=1)) if trials > 1 else 0.0,
        worst_max_abs=float(max_array.max()),
        best_max_abs=float(max_array.min()),
        mean_mae=float(np.mean(maes)),
        mean_rmse=float(np.mean(rmses)),
    )


def _pre_pr_sweep(runners, base_params, parameter, values, *, trials, seed):
    """The historical serial ``sweep`` loop, verbatim."""
    table = ResultTable(
        title=f"sweep over {parameter}",
        columns=[parameter, "protocol", "mean_max_abs", "std_max_abs", "mean_mae"],
    )
    root = np.random.SeedSequence(seed)
    workload_rngs = spawn_generators(root, len(values))
    trial_base = root.spawn(1)[0]
    for position, value in enumerate(values):
        cast = float(value) if parameter == "epsilon" else int(value)
        params = base_params.with_updates(**{parameter: cast})
        population = BoundedChangePopulation(params.d, params.k, exact_k=True)
        point_states = population.sample(params.n, workload_rngs[position])
        for name, runner in runners.items():
            trial_seed = np.random.SeedSequence(
                entropy=trial_base.entropy,
                spawn_key=(*trial_base.spawn_key, position, _stable_name_key(name)),
            )
            statistics = _pre_pr_run_trials(
                runner, point_states, params, trials=trials, seed=trial_seed
            )
            table.add_row(
                **{parameter: float(value)},
                protocol=name,
                mean_max_abs=statistics.mean_max_abs,
                std_max_abs=statistics.std_max_abs,
                mean_mae=statistics.mean_mae,
            )
    return table


# -- bit-identity across worker counts --------------------------------------


def test_run_trials_bit_identical_across_worker_counts(states):
    serial = run_trials(None, states, _PARAMS, trials=_TRIALS, seed=7)
    for workers in (2, 4):
        parallel = run_trials(
            None, states, _PARAMS, trials=_TRIALS, seed=7, workers=workers
        )
        assert parallel == serial, f"workers={workers} diverged from serial"


def test_run_trials_matches_pre_pr_serial_path(states):
    expected = _pre_pr_run_trials(
        run_batch_engine, states, _PARAMS, trials=_TRIALS, seed=7
    )
    assert run_trials(None, states, _PARAMS, trials=_TRIALS, seed=7) == expected
    assert (
        run_trials(None, states, _PARAMS, trials=_TRIALS, seed=7, workers=4)
        == expected
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_sweep_bit_identical_across_worker_counts(workers):
    serial = sweep(
        ["future_rand", "naive_unsplit"],
        _PARAMS,
        "k",
        _SWEEP_KS,
        trials=_TRIALS,
        seed=0,
    )
    parallel = sweep(
        ["future_rand", "naive_unsplit"],
        _PARAMS,
        "k",
        _SWEEP_KS,
        trials=_TRIALS,
        seed=0,
        workers=workers,
    )
    assert parallel.to_json() == serial.to_json()


def test_sweep_matches_pre_pr_serial_path():
    from repro.protocols import get_protocol

    runners = {
        "future_rand": run_batch_engine,
        "naive_unsplit": get_protocol("naive_unsplit"),
    }
    expected = _pre_pr_sweep(
        runners, _PARAMS, "k", _SWEEP_KS, trials=_TRIALS, seed=3
    )
    for workers in (1, 4):
        actual = sweep(
            ["future_rand", "naive_unsplit"],
            _PARAMS,
            "k",
            _SWEEP_KS,
            trials=_TRIALS,
            seed=3,
            workers=workers,
        )
        assert actual.to_json() == expected.to_json()


def test_sweep_shard_size_does_not_change_results():
    kwargs = dict(trials=_TRIALS, seed=5, workers=2)
    reference = sweep(None, _PARAMS, "k", _SWEEP_KS, shard_size=1, **kwargs)
    for shard_size in (2, 3, _TRIALS):
        other = sweep(None, _PARAMS, "k", _SWEEP_KS, shard_size=shard_size, **kwargs)
        assert other.to_json() == reference.to_json()


def test_plan_shards_covers_all_trials_exactly_once():
    assert plan_shards(5, 2) == [(0, 2), (2, 4), (4, 5)]
    assert plan_shards(4, 4) == [(0, 4)]
    assert plan_shards(1, 3) == [(0, 1)]
    with pytest.raises(ValueError):
        plan_shards(0, 1)
    with pytest.raises(ValueError):
        plan_shards(3, 0)


# -- store-backed execution and resume --------------------------------------

#: Mutable state for the interruptible runner (module-level so the runner
#: itself stays picklable; only exercised at workers=1).
_FLAKY = {"calls": 0, "fail_after": None}


def _flaky_runner(states, params, rng=None):
    _FLAKY["calls"] += 1
    if _FLAKY["fail_after"] is not None and _FLAKY["calls"] > _FLAKY["fail_after"]:
        raise RuntimeError("simulated crash mid-sweep")
    return run_batch_engine(states, params, rng)


@pytest.fixture
def flaky():
    _FLAKY["calls"] = 0
    _FLAKY["fail_after"] = None
    yield _FLAKY
    _FLAKY["calls"] = 0
    _FLAKY["fail_after"] = None


def _flaky_sweep(store, **overrides):
    kwargs = dict(trials=_TRIALS, seed=11, workers=1, store=store)
    kwargs.update(overrides)
    return sweep({"flaky": _flaky_runner}, _PARAMS, "k", _SWEEP_KS, **kwargs)


def test_interrupted_sweep_resumes_executing_only_missing_shards(
    tmp_path, flaky
):
    total_shards = len(_SWEEP_KS) * _TRIALS  # shard_size defaults to 1
    store = ResultStore(tmp_path / "results")

    flaky["fail_after"] = 5
    with pytest.raises(RuntimeError, match="simulated crash"):
        _flaky_sweep(store)
    completed = store.shard_count()
    assert 0 < completed < total_shards
    assert completed == 5  # everything that finished before the crash persisted

    flaky["fail_after"] = None
    flaky["calls"] = 0
    resumed = _flaky_sweep(store)
    assert flaky["calls"] == total_shards - completed, (
        "resume must execute exactly the missing shards"
    )
    assert store.shard_count() == total_shards

    uninterrupted = _flaky_sweep(store=None)
    assert resumed.to_json() == uninterrupted.to_json(), (
        "resumed table must be bit-identical to an uninterrupted run"
    )


def test_completed_sweep_rerun_recomputes_nothing(tmp_path, flaky):
    store = ResultStore(tmp_path / "results")
    first = _flaky_sweep(store)
    computed = flaky["calls"]
    assert computed == len(_SWEEP_KS) * _TRIALS

    flaky["calls"] = 0
    second = _flaky_sweep(store)
    assert flaky["calls"] == 0, "a completed sweep must reload every shard"
    assert second.to_json() == first.to_json()


def test_resume_false_recomputes_every_shard(tmp_path, flaky):
    store = ResultStore(tmp_path / "results")
    first = _flaky_sweep(store)
    flaky["calls"] = 0
    second = _flaky_sweep(store, resume=False)
    assert flaky["calls"] == len(_SWEEP_KS) * _TRIALS
    assert second.to_json() == first.to_json()


def test_store_backed_sweep_with_workers_matches_serial(tmp_path):
    store = ResultStore(tmp_path / "results")
    parallel = sweep(
        None, _PARAMS, "k", _SWEEP_KS, trials=_TRIALS, seed=2, workers=4,
        store=store,
    )
    assert store.shard_count() == len(_SWEEP_KS) * _TRIALS
    serial = sweep(None, _PARAMS, "k", _SWEEP_KS, trials=_TRIALS, seed=2)
    assert parallel.to_json() == serial.to_json()
    # And a reload-only pass (fresh sweep over a warm store) is identical too.
    reloaded = sweep(
        None, _PARAMS, "k", _SWEEP_KS, trials=_TRIALS, seed=2, store=store
    )
    assert reloaded.to_json() == serial.to_json()


def test_prespawned_seed_sequence_does_not_hit_stale_artifacts(tmp_path, states):
    """A SeedSequence that already spawned children gets fresh artifacts.

    ``seed.spawn`` advances the node's child counter, so two ``run_trials``
    calls with the *same* SeedSequence object draw different trial seeds and
    must produce different results — the artifact key includes the spawn
    state precisely so the second call cannot reload the first call's shards.
    """
    store = ResultStore(tmp_path / "results")
    seed = np.random.SeedSequence(0)
    first = run_trials(None, states, _PARAMS, trials=2, seed=seed, store=store)

    # Same store: different spawn state -> new artifacts, not a cache hit.
    second = run_trials(None, states, _PARAMS, trials=2, seed=seed, store=store)
    assert second != first
    assert store.shard_count() == 4

    # And each call matches what the store-less path computes.
    plain_first = run_trials(
        None, states, _PARAMS, trials=2, seed=np.random.SeedSequence(0)
    )
    assert first == plain_first


def test_run_trials_store_roundtrip_is_bit_identical(tmp_path, states):
    store = ResultStore(tmp_path / "results")
    computed = run_trials(
        None, states, _PARAMS, trials=_TRIALS, seed=13, store=store
    )
    assert store.shard_count() == _TRIALS
    reloaded = run_trials(
        None, states, _PARAMS, trials=_TRIALS, seed=13, store=store
    )
    assert reloaded == computed
    plain = run_trials(None, states, _PARAMS, trials=_TRIALS, seed=13)
    assert plain == computed


# -- the supervised pool: worker deaths and application errors --------------


def _dies_once(marker, states, params, rng=None):
    """Kill the calling worker process on the first call ever (the marker
    file records it), then behave like the batch engine."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return run_batch_engine(states, params, rng)
    os._exit(1)


def test_sweep_survives_a_worker_death_bit_identically(tmp_path):
    runner = functools.partial(_dies_once, tmp_path / "died")
    kwargs = dict(trials=_TRIALS, seed=17)
    pooled = sweep({"dies": runner}, _PARAMS, "k", _SWEEP_KS, workers=2, **kwargs)
    assert (tmp_path / "died").exists()
    serial = sweep({"dies": runner}, _PARAMS, "k", _SWEEP_KS, workers=1, **kwargs)
    assert pooled.to_json() == serial.to_json()


class _ShardBug(RuntimeError):
    """The runner's own error type (module-level, so it crosses processes)."""


def _fails_at_k2(states, params, rng=None):
    if params.k == 2:
        time.sleep(2.0)
        raise _ShardBug("shards at k=2 are broken")
    return run_batch_engine(states, params, rng)


def test_failed_parallel_sweep_keeps_finished_shards_and_its_error(tmp_path):
    store = ResultStore(tmp_path / "results")
    with pytest.raises(_ShardBug) as info:
        sweep(
            {"k2bug": _fails_at_k2}, _PARAMS, "k", _SWEEP_KS,
            trials=_TRIALS, seed=11, workers=2, store=store,
        )
    assert store.shard_count() == _TRIALS  # every k == 1 shard persisted
    (note,) = info.value.__notes__
    assert note.startswith("protocol '_fails_at_k2' shard(s) at trials [")
    assert note.endswith("failed with a non-retryable error")
