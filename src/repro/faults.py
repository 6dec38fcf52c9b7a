"""Deterministic fault models and the supervised multiprocess executor.

The production story of this repo is a long-running ingestion service, and
production machines fail: workers crash mid-shard, hang past any reasonable
deadline, or hand back bit-rotted payloads.  This module makes those
failures *first-class, deterministic inputs* instead of flaky accidents:

* A :class:`FaultModel` describes *what* goes wrong (crash / hang / corrupt
  payload), *how often*, and *for how many attempts* (transient
  fail-N-then-succeed, or permanent loss).  :data:`FAULT_MODELS` registers
  the named presets the chaos CLI, the benchmark suite, and the fuzzer's
  chaos genes all share.
* :func:`plan_fault_schedule` turns a model into a :class:`FaultSchedule` —
  one row of injected failure kinds per unit of work — drawn from a
  ``SeedSequence`` node of the caller's spawn tree.  The schedule is a pure
  function of ``(model, units, seed)``, so a chaos run is exactly as
  replayable as a fault-free one.
* :func:`run_supervised` is the repo's one executor: every fan-out of
  units to worker processes (sweep shards, fuzzer evaluations, service
  blocks) and its in-process counterpart runs through it, with or without
  a schedule.  It runs module-level worker functions with bounded retries,
  per-shard wallclock timeouts, pool respawn after ``BrokenProcessPool``,
  and preservation of already-completed results — a non-retryable error
  first delivers every unit that already finished, then propagates as its
  own type with the failed unit named in a note.  Backoff accumulates on a
  :class:`SimulatedClock` — never ``time.sleep`` — so supervision adds
  *zero* wallclock stalls and the retry accounting itself is deterministic
  (the REP110 lint rule enforces this repo-wide).

Because every shard/block seed is a pure function of its spawn-key
coordinates, a retried unit recomputes *bit-identical* output: supervision
changes where and how often work runs, never what it computes.  That is the
contract the chaos tests pin — injected crash at any shard, same estimates.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_seed_sequence

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FAULT_KINDS",
    "FAULT_MODELS",
    "FaultInjectionError",
    "FaultInjector",
    "FaultModel",
    "FaultSchedule",
    "InjectedCrash",
    "InjectedHang",
    "PayloadCorruptionError",
    "RetryPolicy",
    "ShardEnvelope",
    "ShardExecutionError",
    "ShardTimeoutError",
    "SimulatedClock",
    "SupervisionReport",
    "get_fault_model",
    "plan_fault_schedule",
    "run_supervised",
    "seal",
    "tamper",
    "unseal",
]

#: Injectable failure kinds, in the order the schedule's kind draw resolves.
FAULT_KINDS = ("crash", "hang", "corrupt")

#: Exit code an injected hard crash kills its worker process with — distinct
#: from common signal codes so a genuine worker death is distinguishable in
#: test logs from a scheduled one.
_CRASH_EXIT_CODE = 113


class FaultInjectionError(RuntimeError):
    """Base class for failures raised *by* the fault-injection layer."""


class InjectedCrash(FaultInjectionError):
    """A scheduled worker crash (soft flavor: exception, not process death)."""


class InjectedHang(FaultInjectionError):
    """A scheduled hang — the supervisor accounts it as a shard timeout."""


class PayloadCorruptionError(RuntimeError):
    """A worker payload failed its checksum (injected or genuine bit-rot)."""


class ShardTimeoutError(RuntimeError):
    """A shard exceeded its per-attempt wallclock deadline."""


class ShardExecutionError(RuntimeError):
    """A unit was lost after exhausting its retries and nobody took the loss.

    Raised by :func:`run_supervised` only when no ``on_lost`` callback is
    given: the message says *which* unit failed (shard trial range, service
    block user range) and chains the last infrastructure error as
    ``__cause__``.  Application errors never turn into this type.
    """


@dataclass(frozen=True)
class FaultModel:
    """One deterministic failure regime.

    ``crash_rate`` / ``hang_rate`` / ``corrupt_rate`` are independent
    per-unit probabilities that the unit is assigned that failure kind
    (at most one kind per unit; the kind draw is proportional to the
    rates).  A faulted unit fails its first ``failures`` attempts and then
    succeeds — unless ``permanent`` is set, in which case it fails every
    attempt and is eventually declared lost (the graceful-degradation
    path).
    """

    name: str = "none"
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    failures: int = 1
    permanent: bool = False

    def __post_init__(self) -> None:
        for attr in ("crash_rate", "hang_rate", "corrupt_rate"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        if self.total_rate > 1.0:
            raise ValueError(
                f"fault rates must sum to at most 1, got {self.total_rate}"
            )
        if self.failures < 1:
            raise ValueError(f"failures must be at least 1, got {self.failures}")

    @property
    def total_rate(self) -> float:
        """Probability that a unit is faulted at all."""
        return self.crash_rate + self.hang_rate + self.corrupt_rate

    @property
    def active(self) -> bool:
        """Whether this model injects anything."""
        return self.total_rate > 0.0


#: Named presets shared by the chaos CLI, the bench suite, and the fuzzer.
FAULT_MODELS: dict[str, FaultModel] = {
    "none": FaultModel(),
    "crash": FaultModel(name="crash", crash_rate=0.3),
    "hang": FaultModel(name="hang", hang_rate=0.3),
    "corrupt": FaultModel(name="corrupt", corrupt_rate=0.3),
    "transient": FaultModel(name="transient", crash_rate=0.5, failures=2),
    "chaos": FaultModel(
        name="chaos", crash_rate=0.15, hang_rate=0.1, corrupt_rate=0.1
    ),
    "lost-shard": FaultModel(name="lost-shard", crash_rate=0.3, permanent=True),
}


def get_fault_model(model) -> FaultModel:
    """Resolve a :class:`FaultModel` or a :data:`FAULT_MODELS` preset name."""
    if isinstance(model, FaultModel):
        return model
    try:
        return FAULT_MODELS[model]
    except (KeyError, TypeError):
        known = ", ".join(sorted(FAULT_MODELS))
        raise ValueError(
            f"unknown fault model {model!r}; known presets: {known}"
        ) from None


@dataclass(frozen=True)
class FaultInjector:
    """One unit-attempt's scheduled failure (picklable, crosses the pool).

    ``hard`` selects the crash flavor: process death (``os._exit``) on the
    pool path — the only way to genuinely produce ``BrokenProcessPool`` —
    versus an :class:`InjectedCrash` exception in-process.
    """

    unit: int
    attempt: int
    kind: str
    hard: bool = False

    def fire(self) -> None:
        """Raise (or die) if this attempt is scheduled to crash or hang."""
        if self.kind == "crash":
            if self.hard:
                os._exit(_CRASH_EXIT_CODE)
            raise InjectedCrash(
                f"injected crash on unit {self.unit} attempt {self.attempt}"
            )
        if self.kind == "hang":
            raise InjectedHang(
                f"injected hang on unit {self.unit} attempt {self.attempt}"
            )

    @property
    def corrupts(self) -> bool:
        """Whether this attempt's payload is tampered after computation."""
        return self.kind == "corrupt"


@dataclass(frozen=True)
class FaultSchedule:
    """Per-unit failure plans: a pure function of ``(model, units, seed)``."""

    model: FaultModel
    rows: tuple[tuple[str, ...], ...]
    permanent: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def kind_at(self, unit: int, attempt: int) -> Optional[str]:
        """The failure kind scheduled for ``unit``'s ``attempt``, if any."""
        row = self.rows[unit]
        if not row:
            return None
        if attempt < len(row):
            return row[attempt]
        if self.permanent[unit]:
            return row[-1]
        return None

    def injector(
        self, unit: int, attempt: int, *, hard: bool = False
    ) -> Optional[FaultInjector]:
        """The injector for one unit-attempt, or ``None`` if it runs clean."""
        kind = self.kind_at(unit, attempt)
        if kind is None:
            return None
        return FaultInjector(unit=unit, attempt=attempt, kind=kind, hard=hard)


def plan_fault_schedule(
    model, units: int, seed: SeedLike = None
) -> FaultSchedule:
    """Draw one :class:`FaultSchedule` from a node of the seed spawn tree.

    Two uniform draws per unit — faulted-or-not, then the kind — are always
    consumed, so the schedule for unit ``i`` never depends on how earlier
    units resolved.  Callers hand in the dedicated fault stream of their
    root ``SeedSequence`` (e.g. ``run_service``'s stream 3), which keeps
    chaos runs on the same reproducibility footing as everything else.
    """
    resolved = get_fault_model(model)
    if units < 0:
        raise ValueError(f"units must be non-negative, got {units}")
    rng = np.random.default_rng(as_seed_sequence(seed, reset_spawn_counter=True))
    faulted_draw = rng.random(units)
    kind_draw = rng.random(units)
    rows: list[tuple[str, ...]] = []
    permanent: list[bool] = []
    total = resolved.total_rate
    for i in range(units):
        if total <= 0.0 or faulted_draw[i] >= total:
            rows.append(())
            permanent.append(False)
            continue
        point = kind_draw[i] * total
        if point < resolved.crash_rate:
            kind = "crash"
        elif point < resolved.crash_rate + resolved.hang_rate:
            kind = "hang"
        else:
            kind = "corrupt"
        rows.append((kind,) * resolved.failures)
        permanent.append(resolved.permanent)
    return FaultSchedule(
        model=resolved, rows=tuple(rows), permanent=tuple(permanent)
    )


# -- payload envelopes ------------------------------------------------------


@dataclass(frozen=True)
class ShardEnvelope:
    """A worker payload plus the checksum it was sealed with."""

    payload: object
    checksum: str


def _payload_checksum(payload: object) -> str:
    return hashlib.sha256(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def seal(payload: object) -> ShardEnvelope:
    """Wrap a payload with its checksum (computed worker-side)."""
    return ShardEnvelope(payload=payload, checksum=_payload_checksum(payload))


def tamper(envelope: ShardEnvelope) -> ShardEnvelope:
    """Corrupt an envelope's payload while keeping its (now stale) checksum."""
    return replace(envelope, payload=("__corrupted__", envelope.payload))


def unseal(envelope: ShardEnvelope) -> object:
    """Verify and unwrap a payload; corruption raises, never passes through."""
    if _payload_checksum(envelope.payload) != envelope.checksum:
        raise PayloadCorruptionError(
            "worker payload failed its checksum (corrupted in flight)"
        )
    return envelope.payload


def _supervised_call(
    fn: Callable, item: object, injector: Optional[FaultInjector]
) -> ShardEnvelope:
    """Worker entry point: fire the scheduled fault, compute, seal.

    Module-level so the pool can pickle it.  Corruption is injected *after*
    the checksum is computed — the tampered payload travels back with a
    stale seal, exactly the failure :func:`unseal` exists to catch.
    """
    if injector is not None:
        injector.fire()
    envelope = seal(fn(item))
    if injector is not None and injector.corrupts:
        envelope = tamper(envelope)
    return envelope


# -- retry policy and the simulated backoff clock ---------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs for :func:`run_supervised`.

    ``backoff_base``/``backoff_factor`` describe exponential backoff in
    *simulated* seconds, accumulated on a :class:`SimulatedClock` — the
    supervisor never sleeps.  ``timeout_seconds`` (wallclock, pool path
    only) bounds one attempt; a shard past its deadline is charged a
    :class:`ShardTimeoutError` and the abandoned pool is respawned.
    """

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError(
                "need backoff_base >= 0 and backoff_factor >= 1, got "
                f"base={self.backoff_base}, factor={self.backoff_factor}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )

    def backoff(self, attempt: int) -> float:
        """Simulated delay before retry number ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


DEFAULT_RETRY_POLICY = RetryPolicy()


class SimulatedClock:
    """A deterministic clock that only moves when told to.

    All retry backoff accrues here, so chaos runs report *how long* a real
    deployment would have waited without ever stalling the test suite —
    and without the wallclock nondeterminism REP110 bans.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Accumulated simulated seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} seconds")
        self._now += float(seconds)
        return self._now


@dataclass
class SupervisionReport:
    """What supervision observed and absorbed during one run."""

    attempts: int = 0
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    timeouts: int = 0
    corrupt_payloads: int = 0
    pool_respawns: int = 0
    lost_units: tuple[int, ...] = ()
    backoff_seconds: float = 0.0

    def as_payload(self) -> dict:
        """JSON-serializable view (bench reports, journal provenance)."""
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "timeouts": self.timeouts,
            "corrupt_payloads": self.corrupt_payloads,
            "pool_respawns": self.pool_respawns,
            "lost_units": list(self.lost_units),
            "backoff_seconds": self.backoff_seconds,
        }


#: Failures worth retrying: injected faults, checksum mismatches, worker
#: process death, and deadline overruns.  Anything else is an application
#: error — the computation is a pure function of its seeds, so re-running
#: it can only fail identically; those propagate at once as their own type,
#: with a note naming the unit.
_RETRYABLE = (
    InjectedCrash,
    InjectedHang,
    PayloadCorruptionError,
    BrokenProcessPool,
    ShardTimeoutError,
)


def _default_describe(unit: int) -> str:
    return f"unit {unit}"


def run_supervised(
    fn: Callable[[object], object],
    items: Sequence[object],
    *,
    workers: int = 1,
    schedule: Optional[FaultSchedule] = None,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    on_lost: Optional[Callable[[int, Exception], None]] = None,
    describe: Optional[Callable[[int], str]] = None,
) -> tuple[list, SupervisionReport]:
    """Run ``fn`` over ``items`` under supervision; results in item order.

    ``fn`` must be module-level (pool-picklable) and pure given its item —
    the property that makes retries bit-identical.  Each unit is retried up
    to ``retry.max_attempts`` times on infrastructure failures (injected
    faults, ``BrokenProcessPool``, timeouts, corrupt payloads), with
    exponential backoff accumulated on a :class:`SimulatedClock`.  A unit
    that exhausts its attempts is *lost*: with ``on_lost`` the slot stays
    ``None`` and the caller degrades gracefully; without it a
    :class:`ShardExecutionError` names the unit via ``describe``.

    Any other exception is an application error: it is not retried, and it
    propagates as its own type with a note naming the unit.  Before it
    does, every other unit that already finished is delivered.

    ``on_result(index, payload)`` streams completions (in completion
    order), so callers can persist progress that survives a later failure.
    ``workers == 1`` runs in-process (nothing is pickled); more workers run
    in a process pool, shut down and reaped when the run completes.
    Returns ``(results, report)``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    if schedule is not None and len(schedule) != len(items):
        raise ValueError(
            f"schedule covers {len(schedule)} units but got {len(items)} items"
        )
    label = describe if describe is not None else _default_describe
    results: list = [None] * len(items)
    report = SupervisionReport()
    clock = SimulatedClock()

    def count_failure(error: Exception) -> None:
        if isinstance(error, (InjectedCrash, BrokenProcessPool)):
            report.crashes += 1
        elif isinstance(error, InjectedHang):
            report.hangs += 1
        elif isinstance(error, ShardTimeoutError):
            report.timeouts += 1
        elif isinstance(error, PayloadCorruptionError):
            report.corrupt_payloads += 1

    def finish(index: int, payload: object) -> None:
        results[index] = payload
        if on_result is not None:
            on_result(index, payload)

    def charge(index: int, attempts: int, error: Exception) -> bool:
        """Account a failed attempt; True if the unit may run again."""
        count_failure(error)
        if attempts < policy.max_attempts:
            report.retries += 1
            clock.advance(policy.backoff(attempts))
            return True
        if on_lost is None:
            raise ShardExecutionError(
                f"{label(index)} permanently failed after "
                f"{policy.max_attempts} attempts: {error!r}"
            ) from error
        report.lost_units = (*report.lost_units, index)
        on_lost(index, error)
        return False

    if workers == 1:
        _run_supervised_serial(fn, items, schedule, report, label, finish, charge)
    else:
        _run_supervised_pool(
            fn, items, workers, schedule, policy, report, label, finish, charge
        )
    report.backoff_seconds = clock.now
    return results, report


def _run_supervised_serial(
    fn, items, schedule, report, label, finish, charge
) -> None:
    """The in-process supervision loop (soft crash flavor, no pool).

    Nothing crosses a process here, so a payload is sealed and unsealed
    only on an attempt scheduled to corrupt it; every other attempt calls
    ``fn`` directly (after firing its crash or hang, if any).
    """
    for index, item in enumerate(items):
        attempt = 0
        while True:
            injector = (
                schedule.injector(index, attempt) if schedule is not None else None
            )
            report.attempts += 1
            attempt += 1
            try:
                if injector is not None and injector.corrupts:
                    payload = unseal(_supervised_call(fn, item, injector))
                else:
                    if injector is not None:
                        injector.fire()
                    payload = fn(item)
            except _RETRYABLE as error:
                if charge(index, attempt, error):
                    continue
                break
            except Exception as error:
                error.add_note(f"{label(index)} failed with a non-retryable error")
                raise
            finish(index, payload)
            break


def _run_supervised_pool(
    fn, items, workers, schedule, policy, report, label, finish, charge
) -> None:
    """The pool supervision loop: timeouts, retries, and pool respawn."""
    max_workers = min(workers, max(len(items), 1))
    attempts = [0] * len(items)
    ready: deque[int] = deque(range(len(items)))
    in_flight: dict[Future, int] = {}
    deadlines: dict[Future, float] = {}
    pool = ProcessPoolExecutor(max_workers=max_workers)

    def submit(index: int) -> bool:
        injector = (
            schedule.injector(index, attempts[index], hard=True)
            if schedule is not None
            else None
        )
        attempts[index] += 1
        report.attempts += 1
        try:
            future = pool.submit(_supervised_call, fn, items[index], injector)
        except BrokenProcessPool:
            # A worker died since the last wait.  The break surfaces through
            # the in-flight futures, or, with none left, an empty wait.
            requeue_uncharged(index)
            return False
        in_flight[future] = index
        if policy.timeout_seconds is not None:
            deadlines[future] = time.perf_counter() + policy.timeout_seconds
        return True

    def requeue_uncharged(index: int) -> None:
        # Collateral victims of a pool break or an abandoned hung worker did
        # not themselves fail: resubmit without charging an attempt (their
        # charge was already taken at submit time, so roll it back).
        attempts[index] -= 1
        report.attempts -= 1
        ready.appendleft(index)

    def retry_or_lose(index: int, error: Exception) -> None:
        if charge(index, attempts[index], error):
            ready.append(index)

    def respawn_pool() -> None:
        nonlocal pool
        report.pool_respawns += 1
        for victim in in_flight.values():
            requeue_uncharged(victim)
        in_flight.clear()
        deadlines.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=max_workers)

    def drain() -> None:
        # A non-retryable failure ends the run: first deliver every unit
        # that has finished meanwhile, so its result persists.
        finished, _ = wait(set(in_flight), timeout=0)
        for future in finished:
            try:
                payload = unseal(future.result())
            except Exception:
                continue
            finish(in_flight[future], payload)

    try:
        while ready or in_flight:
            while ready and len(in_flight) < max_workers:
                if not submit(ready.popleft()):
                    break
            timeout = None
            if deadlines:
                timeout = max(
                    0.0, min(deadlines.values()) - time.perf_counter()
                )
            done, _ = wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # At least one shard blew its deadline (or the pool broke
                # with nothing in flight).  The pool cannot reclaim a
                # running worker, so the hung attempts are charged a timeout
                # and the whole pool is abandoned and respawned; unexpired
                # in-flight work is requeued uncharged.
                now = time.perf_counter()
                expired = [f for f, dl in deadlines.items() if dl <= now]
                for future in expired:
                    index = in_flight.pop(future)
                    deadlines.pop(future, None)
                    retry_or_lose(
                        index,
                        ShardTimeoutError(
                            f"{label(index)} exceeded its "
                            f"{policy.timeout_seconds}s deadline"
                        ),
                    )
                respawn_pool()
                continue
            broken: Optional[BrokenProcessPool] = None
            victims: list[int] = []
            failure: Optional[tuple[int, Exception]] = None
            for future in done:
                index = in_flight.pop(future)
                deadlines.pop(future, None)
                try:
                    payload = unseal(future.result())
                except BrokenProcessPool as error:
                    broken = error
                    victims.append(index)
                    continue
                except _RETRYABLE as error:
                    retry_or_lose(index, error)
                    continue
                except Exception as error:
                    failure = failure or (index, error)
                    continue
                finish(index, payload)
            if failure is not None:
                drain()
                index, error = failure
                error.add_note(f"{label(index)} failed with a non-retryable error")
                raise error
            if broken is not None:
                # A worker process died; every in-flight future collapsed
                # with it.  Charge the failure only to units the schedule
                # says crashed at their current attempt — the rest are
                # collateral and requeue uncharged.  A real-world (never
                # scheduled) death is unattributable: charge all victims.
                charged = [
                    i
                    for i in victims
                    if schedule is not None
                    and schedule.kind_at(i, attempts[i] - 1) == "crash"
                ]
                if not charged:
                    charged = victims
                for index in victims:
                    if index not in charged:
                        requeue_uncharged(index)
                for index in charged:
                    retry_or_lose(index, broken)
                respawn_pool()
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
