"""Timed passes of ``run_service``, the output check, and the metrics.

A *pass* is one ``run_service`` call on a workload's inputs.  A run sets the
workload up several times, then repeats passes for the requested number of
seconds.  Each end-to-end figure is the *slow quartile* over passes: the
third quartile of a per-pass time, the first quartile of per-pass
throughput.  On a shared 2-vCPU host the speed of a pass swings by up to
about 1.8x from one pass to the next with the load of other tenants, and a
run's median follows the mix of fast and slow passes it happened to get;
the slow quartile tracks the contended speed, which every run sees.  In
ten-run sets it narrowed the run-to-run spread on ``population`` and
``fan-in`` and left ``durable``'s about the same.

Every period of every pass is one operation.  A period fails when it is not
released, when its estimate lies outside the fault-adjusted radius of
``repro.analysis.conformance``, or when the pass's released estimates do not
hash to the expected digest (then all ``d`` periods of the pass fail).  A
pass that raises fails all ``d`` of its periods.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.analysis.conformance import fault_adjusted_radius, protocol_radius
from repro.bench import git_sha
from repro.sim.journal import ServiceJournal
from repro.sim.service import run_service
from tracer import GAP_METRICS, LAYER_METRICS, Tracer, file_size
from workloads import (
    DEFAULT_SEED,
    PINNED_DIGESTS,
    Workload,
    estimates_digest,
    make_inputs,
    seeds,
)

#: Set-ups per run; ``setup_s`` is their median plus the one-time imports.
SETUP_REPEATS = 3

#: Passes (untraced runs) or pass pairs (traced runs) made even when
#: ``--seconds`` is shorter, so that every quartile has something to take.
MIN_PASSES = 3

P95 = 95.0

END_TO_END_UNITS = {
    "reports_per_s": "1/s",
    "first_release_s": "s",
    "release_ms_p50": "ms",
    "release_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Check:
    """The output check of one pass."""

    digest: str
    failed_periods: int
    max_abs_error: float
    radius: float


@dataclass
class Pass:
    """What one ``run_service`` call measured."""

    wall_s: float
    first_release_s: float
    intervals_ms: np.ndarray
    delivered_reports: int
    check: Check
    layers: Optional[dict[str, float]] = None

    @property
    def reports_per_s(self) -> float:
        return self.delivered_reports / self.wall_s


def check_output(
    workload: Workload,
    estimates: np.ndarray,
    true_counts: np.ndarray,
    c_gap: float,
    drop_rate: float,
    duplicate_rate: float,
    expected_digest: Optional[str],
) -> Check:
    """Check one pass's released estimates (see the module docstring)."""
    params = workload.params()
    bound, _failure = protocol_radius("future_rand", params, c_gap)
    radius = fault_adjusted_radius(
        bound, params, drop_rate=drop_rate, duplicate_rate=duplicate_rate
    )
    released = min(estimates.size, workload.d)
    errors = np.abs(estimates[:released] - true_counts[:released])
    digest = estimates_digest(estimates)
    if expected_digest is not None and digest != expected_digest:
        failed = workload.d
    else:
        failed = (workload.d - released) + int((errors > radius).sum())
    return Check(
        digest=digest,
        failed_periods=failed,
        max_abs_error=float(errors.max()) if released else float("inf"),
        radius=radius,
    )


def timed_pass(
    workload: Workload,
    inputs,
    seed: int,
    work_dir: Path,
    *,
    expected_digest: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """One timed ``run_service`` call, checked.

    With ``tracer`` the layer wrappers are installed for the call (before
    the clock starts) and the pass carries its per-layer values.
    """
    _, service_seed = seeds(seed)
    kwargs = {
        "traffic": workload.traffic,
        "workers": workload.workers,
        "block_rows": workload.block_rows,
    }
    journal_root = None
    if workload.snapshot_every is not None:
        journal_root = Path(tempfile.mkdtemp(prefix="journal-", dir=work_dir))
        kwargs["journal"] = journal_root / "wal"
        kwargs["snapshot_every"] = workload.snapshot_every
    releases: list[float] = []
    kwargs["callback"] = lambda _snapshot: releases.append(time.perf_counter())
    params = workload.params()
    gc.collect()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            if tracer is not None:
                tracer.install_layers()
            started = time.perf_counter()
            result = run_service(inputs, params, service_seed, **kwargs)
            ended = time.perf_counter()
        journal_bytes = (
            file_size(ServiceJournal(kwargs["journal"]).path)
            if journal_root is not None
            else 0
        )
    finally:
        if journal_root is not None:
            shutil.rmtree(journal_root)
    stats = result.stats
    check = check_output(
        workload,
        result.estimates,
        result.true_counts,
        result.c_gap,
        stats.effective_drop_rate,
        stats.effective_duplicate_rate,
        expected_digest,
    )
    layers = None
    if tracer is not None:
        layers = _layer_values(tracer, started, ended, result, journal_bytes)
    return Pass(
        wall_s=ended - started,
        first_release_s=releases[0] - started if releases else float("inf"),
        intervals_ms=np.diff(np.asarray(releases)) * 1e3,
        delivered_reports=stats.delivered_reports,
        check=check,
        layers=layers,
    )


def _layer_values(
    tracer: Tracer, started: float, ended: float, result, journal_bytes: int
) -> dict[str, float]:
    seconds, counts = tracer.seconds, tracer.counts
    init_at, traced_before_init = tracer.marks["service_init"]
    open_at, _ = tracer.marks["first_open"]
    serve_s = ended - open_at
    folds = counts["server.fold"]
    stats = result.stats
    routed = stats.delivered_messages + stats.duplicates_discarded
    return {
        "generators.sample_s": seconds["generators.sample"],
        "vectorized.validate_s": seconds["vectorized.validate"],
        "vectorized.partition_s": seconds["vectorized.partition"],
        "vectorized.partials_s": seconds["vectorized.partials"],
        "kernel.randomize_s": seconds["kernel.randomize"],
        "kernel.entries": counts["kernel.entries"],
        "kernel.ns_per_entry": (
            seconds["kernel.randomize"] / counts["kernel.entries"] * 1e9
        ),
        "service.block_other_s": (init_at - started) - traced_before_init,
        "traffic.schedule_s": seconds["traffic.schedule"],
        "service.plan_s": open_at - init_at,
        "server.fold_s": seconds["server.fold"],
        "server.folds": folds,
        "server.fold_us_per_message": seconds["server.fold"] / folds * 1e6,
        "service.close_s": seconds["service.close"],
        "service.serve_s": serve_s,
        "service.messages_per_s": folds / serve_s,
        "service.peak_queue_depth": stats.peak_queue_depth,
        "service.dedup_ratio": stats.duplicates_discarded / routed,
        "journal.append_s": seconds["journal.append"],
        "journal.appends": counts["journal.append"],
        "journal.bytes": journal_bytes,
        "journal.snapshot_s": seconds["journal.snapshot"],
        "journal.snapshots": counts["journal.snapshot"],
        "journal.snapshot_bytes": counts["journal.snapshot_bytes"],
        "trace.wall_s": ended - started,
    }


class Run:
    """One benchmark run: set-up, timed passes, and the accounting."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.expected_digest = (
            PINNED_DIGESTS.get(workload.name) or None
            if seed == DEFAULT_SEED
            else None
        )
        self.inputs = None
        self.attempted = 0
        self.failed = 0
        self.checks: list[Check] = []

    def set_up(self, tracer: Optional[Tracer] = None) -> float:
        """Make the inputs and warm up, ``SETUP_REPEATS`` times; the median.

        ``tracer`` (if given) traces the first input generation, which is
        where pre-sampled workloads call ``Population.sample``.
        """
        warm = dataclasses.replace(
            self.workload, n=min(self.workload.n, 2 * self.workload.block_rows)
        )
        durations = []
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            if repeat == 0 and tracer is not None:
                with tracer:
                    tracer.install_layers()
                    self.inputs = make_inputs(self.workload, self.seed)
            else:
                self.inputs = make_inputs(self.workload, self.seed)
            warm_inputs = (
                self.inputs[: warm.n] if self.workload.presampled else self.inputs
            )
            timed_pass(warm, warm_inputs, self.seed, self.work_dir)
            durations.append(time.perf_counter() - started)
        return statistics.median(durations)

    def run_pass(
        self,
        workload: Optional[Workload] = None,
        tracer: Optional[Tracer] = None,
    ) -> Optional[Pass]:
        """One checked pass; its periods enter ``attempted``/``failed``."""
        workload = workload or self.workload
        self.attempted += workload.d
        try:
            measured = timed_pass(
                workload, self.inputs, self.seed, self.work_dir,
                expected_digest=self.expected_digest, tracer=tracer,
            )
        except Exception:  # a raising pass fails its periods; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += workload.d
            return None
        self.failed += measured.check.failed_periods
        self.checks.append(measured.check)
        if self.expected_digest is None:
            # Every later pass must release the first pass's bits.
            self.expected_digest = measured.check.digest
        return measured

    def repeat(self, step: Callable[[], None], seconds: float) -> None:
        """Call ``step`` until ``seconds`` would be exceeded by one more."""
        started = time.perf_counter()
        steps = 0
        last = 0.0
        while steps < MIN_PASSES or time.perf_counter() - started + last <= seconds:
            step_started = time.perf_counter()
            step()
            last = time.perf_counter() - step_started
            steps += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.checks)

    def check_summary(self) -> dict:
        return {
            "digest": self.checks[0].digest if self.checks else None,
            "pinned_digest": PINNED_DIGESTS.get(self.workload.name) or None,
            "checked_against_pin": self.seed == DEFAULT_SEED,
            "distinct_digests": len({c.digest for c in self.checks}),
            "max_abs_error": max((c.max_abs_error for c in self.checks), default=None),
            "fault_adjusted_radius": min((c.radius for c in self.checks), default=None),
        }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker, MB."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (parent + children) / 1024.0


def _median(values) -> float:
    return float(statistics.median(values))


def _slow_quartile(values, better: str) -> float:
    """The first quartile of a higher-is-better figure, else the third."""
    return float(np.percentile(list(values), 25 if better == "higher" else 75))


def end_to_end(run: Run, import_s: float, seconds: float) -> tuple[dict, dict]:
    """The untraced run: every end-to-end metric, and its sample counts."""
    setup_s = import_s + run.set_up()
    passes: list[Pass] = []

    def step() -> None:
        measured = run.run_pass()
        if measured is not None:
            passes.append(measured)

    run.repeat(step, seconds)
    rss = peak_rss_mb()
    if not passes:
        return {}, {"passes": 0}
    odd = [p.intervals_ms[1::2] for p in passes]  # intervals ending at t = 3, 5, ...
    per_pass = {
        "reports_per_s": [p.reports_per_s for p in passes],
        "first_release_s": [p.first_release_s for p in passes],
        "release_ms_p50": [float(np.median(o)) for o in odd],
        "release_ms_p95": [float(np.percentile(p.intervals_ms, P95)) for p in passes],
    }
    metrics = {
        name: _slow_quartile(values, "higher" if name == "reports_per_s" else "lower")
        for name, values in per_pass.items()
    }
    metrics["peak_rss_mb"] = rss
    metrics["setup_s"] = setup_s
    intervals = passes[0].intervals_ms.size
    samples = {
        "passes": len(passes),
        "statistic": "slow quartile over passes (first quartile of "
        "reports_per_s, third quartile of the times)",
        "per_pass": per_pass,
        "setup_repeats": SETUP_REPEATS,
        "release_ms_p50": {
            "per_pass": "median of the odd-period release intervals",
            "samples_per_pass": int(odd[0].size),
        },
        "release_ms_p95": {
            "per_pass": "95th percentile of all release intervals",
            "samples_per_pass": int(intervals),
            "beyond_per_pass": int(intervals * (100 - P95) / 100),
        },
    }
    return metrics, samples


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """The traced run: every per-layer metric, and how it was taken.

    Untraced and traced passes alternate at ``workers=1`` so that the
    in-worker layers run in this process; their ratio is
    ``trace.overhead``.  A workload with a process pool gets one more pass
    at its own worker count with only the pool stand-in installed.
    """
    setup_tracer = Tracer()
    run.set_up(tracer=setup_tracer)
    inline = dataclasses.replace(run.workload, workers=1)
    untraced_passes: list[Pass] = []
    traced_passes: list[Pass] = []

    def step() -> None:
        for tracer, into in ((None, untraced_passes), (Tracer(), traced_passes)):
            measured = run.run_pass(inline, tracer=tracer)
            if measured is not None:
                into.append(measured)

    run.repeat(step, seconds)
    if not traced_passes or not untraced_passes:
        return {}, {"passes": 0}
    metrics = {
        name: _median(p.layers[name] for p in traced_passes)
        for name in traced_passes[0].layers
    }
    if run.workload.presampled:
        metrics["generators.sample_s"] = setup_tracer.seconds["generators.sample"]
    pool = Tracer()
    if run.workload.workers > 1:
        with pool:
            pool.install_pool()
            run.run_pass()
    metrics["pool.start_s"] = pool.seconds["pool.start"]
    metrics["pool.map_s"] = pool.seconds["pool.map"]
    metrics["pool.bytes_in"] = pool.counts["pool.bytes_in"]
    metrics["pool.bytes_out"] = pool.counts["pool.bytes_out"]
    base = _median(p.reports_per_s for p in untraced_passes)
    metrics["trace.overhead"] = _median(p.reports_per_s for p in traced_passes) / base
    metrics["trace.base_reports_per_s"] = base
    metrics["trace.target_share"] = _median(
        sum(p.layers[name] for name in run.workload.targets) / p.layers["trace.wall_s"]
        for p in traced_passes
    )
    off_path = [
        m.name for m in LAYER_METRICS
        if m.name.startswith("pool.") and run.workload.workers == 1
        or m.name.startswith("journal.") and run.workload.snapshot_every is None
    ]
    notes = {
        "passes": {"untraced": len(untraced_passes), "traced": len(traced_passes),
                   "pool": int(run.workload.workers > 1)},
        "statistic": "median over traced passes; counts repeat exactly",
        "in_worker_layers_traced_at": "workers=1",
        "pool_layer_traced_at": f"workers={run.workload.workers}",
        "overhead_base": "trace.base_reports_per_s: untraced passes at workers=1",
        "gaps": {
            name: "gap between spans, no public entry point" for name in GAP_METRICS
        },
        "off_path": {name: "layer not on this workload's path: 0" for name in off_path},
        "target_layers": list(run.workload.targets),
        "moves": {m.name: m.moves for m in LAYER_METRICS},
    }
    if run.workload.presampled:
        notes["generators.sample_s"] = "measured in set-up (pre-sampled inputs)"
    return {m.name: metrics[m.name] for m in LAYER_METRICS}, notes


def provenance(run: Run, seconds: float, trace: bool, samples: dict) -> dict:
    return {
        "workload": run.workload.name,
        "why": run.workload.why,
        "params": run.workload.describe(),
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop: period t+1 opens after a_hat[t] is released",
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "samples": samples,
        "check": run.check_summary(),
    }
