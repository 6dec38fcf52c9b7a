"""Machine-readable kernel benchmark trajectory (the ``repro bench`` engine).

Times ``RandomizerFamily.randomize_matrix`` — the wall-clock bottleneck of
every paper-scale run — for each registered kernel backend over an
``(n, d, k, epsilon)`` grid and emits ``BENCH_kernels.json``: per-kernel
seconds and ns/report, per-point reference-vs-fast speedups, and provenance
(git SHA, timestamp, numpy/python versions).  Each emitted file is one point
of the repository's performance trajectory; CI uploads it as an artifact so
regressions are visible as a time series rather than anecdotes.

Scales:

* ``smoke`` — a tiny point for tests/CI sanity (~a second);
* ``quick`` — the headline point only (``n=1e5, d=1024``), the configuration
  the >= 3x fast-kernel speedup target is pinned to;
* ``full`` — the headline plus a small n/d/k grid.

The speedup *assertion* is separate from the measurement: JSON is always
emitted, and :func:`repro.cli.main` only enforces the floor when the host
has more than one usable CPU (single-CPU containers time too noisily to
gate on — the ``default_workers()`` guard pattern).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core.future_rand import FutureRandFamily

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_SEED_SCHEME",
    "HEADLINE_POINT",
    "HEADLINE_SPEEDUP_FLOOR",
    "bench_grid",
    "bench_rng",
    "format_bench_table",
    "format_protocol_bench_table",
    "git_sha",
    "headline_speedup",
    "protocol_bench_grid",
    "run_kernel_bench",
    "run_protocol_bench",
    "sparse_sign_matrix",
    "write_bench_report",
]

#: Bump when the JSON layout changes incompatibly.
#: v2: seeds derive from a keyed SeedSequence tree (``bench_rng``), replacing
#: the overlapping ``seed + 1000 * point_index`` offset arithmetic, and the
#: payload records the derivation under ``seed_scheme``.
BENCH_SCHEMA_VERSION = 2

#: The derivation recorded in every payload's provenance block: stream ``s``
#: at grid point ``p`` draws from
#: ``SeedSequence(entropy=seed, spawn_key=(p, s))`` — independent streams by
#: construction (no ad-hoc offsets), stable under grid edits that do not
#: reorder points.
BENCH_SEED_SCHEME = "SeedSequence(entropy=seed, spawn_key=(point_index, stream))"

#: Stream indices under each grid point's seed-tree node.
_STREAM_INPUT = 0  # the shared input matrix / workload at the point
_STREAM_PROTOCOL = 1  # protocol randomness (same stream for every protocol)
_STREAM_ROUNDS = 2  # kernel timing rounds: stream 2 + round_index

#: The perf-trajectory reference configuration for ``randomize_matrix``.
HEADLINE_POINT = {"n": 100_000, "d": 1024, "k": 8, "epsilon": 1.0}

#: Required fast-over-reference speedup at the headline point.
HEADLINE_SPEEDUP_FLOOR = 3.0

_SCALES = ("smoke", "quick", "full")


def bench_grid(scale: str = "quick") -> list[dict]:
    """Return the ``(n, d, k, epsilon, rounds)`` points for ``scale``."""
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")
    if scale == "smoke":
        return [{"n": 2_000, "d": 64, "k": 4, "epsilon": 1.0, "rounds": 1}]
    headline = dict(HEADLINE_POINT, rounds=1)
    if scale == "quick":
        return [headline]
    return [
        {"n": 20_000, "d": 256, "k": 4, "epsilon": 1.0, "rounds": 2},
        {"n": 20_000, "d": 256, "k": 16, "epsilon": 0.5, "rounds": 2},
        {"n": 50_000, "d": 512, "k": 8, "epsilon": 1.0, "rounds": 2},
        headline,
    ]


def sparse_sign_matrix(
    n: int, d: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """A ``(n, d)`` matrix in {-1, 0, 1} with at most ``k`` non-zeros per row.

    The shape ``randomize_matrix`` sees in production: per-user partial-sum
    rows with ``<= k`` boundary changes scattered across the horizon
    (duplicate column draws simply collapse, keeping rows k-sparse).
    """
    matrix = np.zeros((n, d), dtype=np.int8)
    columns = rng.integers(0, d, size=(n, k))
    signs = (rng.integers(0, 2, size=(n, k), dtype=np.int8) << 1) - 1
    matrix[np.repeat(np.arange(n), k), columns.ravel()] = signs.ravel()
    return matrix


def git_sha() -> str:
    """The repository HEAD this measurement belongs to (``"unknown"`` offline)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def bench_rng(seed: int, point_index: int, stream: int) -> np.random.Generator:
    """One generator leaf of the bench seed tree (see ``BENCH_SEED_SCHEME``).

    Every stream is a keyed ``SeedSequence`` child of the root seed — the
    blessed derivation (cf. ``repro.sim.runner``'s trial tree) instead of
    ``seed + offset`` arithmetic, whose streams are not independent and
    collide across layers.  Reconstructing the same ``(point_index, stream)``
    leaf always yields an identical generator, which is what keeps every
    kernel (and every protocol) at a point on the same input matrix.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_index, stream))
    )


def _time_randomize_matrix(
    kernel: str,
    point: dict,
    seed: int,
    point_index: int,
) -> float:
    """Best-of-``rounds`` seconds for one (kernel, grid point) cell."""
    family = FutureRandFamily(point["k"], point["epsilon"])
    matrix = sparse_sign_matrix(
        point["n"], point["d"], point["k"],
        bench_rng(seed, point_index, _STREAM_INPUT),
    )
    best = float("inf")
    for round_index in range(point.get("rounds", 1)):
        rng = bench_rng(seed, point_index, _STREAM_ROUNDS + round_index)
        start = time.perf_counter()
        output = family.randomize_matrix(matrix, rng, kernel=kernel)
        elapsed = time.perf_counter() - start
        if output.shape != matrix.shape:
            raise RuntimeError(
                f"kernel {kernel!r} returned shape {output.shape}, "
                f"expected {matrix.shape}"
            )
        best = min(best, elapsed)
    return best


def run_kernel_bench(
    *,
    scale: str = "quick",
    kernels: Sequence[str] = ("reference", "fast"),
    seed: int = 0,
) -> dict:
    """Run the grid and return the ``BENCH_kernels.json`` payload."""
    grid = bench_grid(scale)
    results = []
    for point_index, point in enumerate(grid):
        for kernel in kernels:
            seconds = _time_randomize_matrix(kernel, point, seed, point_index)
            reports = point["n"] * point["d"]
            results.append(
                {
                    "kernel": kernel,
                    "n": point["n"],
                    "d": point["d"],
                    "k": point["k"],
                    "epsilon": point["epsilon"],
                    "rounds": point.get("rounds", 1),
                    "seconds": seconds,
                    "ns_per_report": seconds / reports * 1e9,
                }
            )
    speedups = []
    for point in grid:
        cells = {
            row["kernel"]: row
            for row in results
            if (row["n"], row["d"], row["k"], row["epsilon"])
            == (point["n"], point["d"], point["k"], point["epsilon"])
        }
        if "reference" in cells and "fast" in cells:
            speedups.append(
                {
                    "n": point["n"],
                    "d": point["d"],
                    "k": point["k"],
                    "epsilon": point["epsilon"],
                    "reference_seconds": cells["reference"]["seconds"],
                    "fast_seconds": cells["fast"]["seconds"],
                    "speedup": cells["reference"]["seconds"]
                    / cells["fast"]["seconds"],
                }
            )
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": "randomize_matrix",
        "scale": scale,
        "seed": seed,
        "seed_scheme": BENCH_SEED_SCHEME,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "headline": dict(HEADLINE_POINT),
        "headline_speedup_floor": HEADLINE_SPEEDUP_FLOOR,
        "results": results,
        "speedups": speedups,
    }
    payload["headline_speedup"] = headline_speedup(payload)
    return payload


def headline_speedup(payload: dict) -> Optional[float]:
    """The fast-over-reference speedup at the headline point, if measured."""
    target = payload.get("headline", HEADLINE_POINT)
    for row in payload.get("speedups", []):
        if all(row[field] == target[field] for field in ("n", "d", "k", "epsilon")):
            return row["speedup"]
    return None


def write_bench_report(payload: dict, path) -> Path:
    """Write the payload as pretty JSON; return the path."""
    out_path = Path(path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return out_path


def format_bench_table(payload: dict) -> str:
    """Human-readable summary of a bench payload (printed by the CLI)."""
    lines = [
        f"randomize_matrix kernel trajectory "
        f"(scale={payload['scale']}, git={payload['git_sha'][:12]})",
        f"{'kernel':<10} {'n':>8} {'d':>6} {'k':>4} {'eps':>5} "
        f"{'seconds':>9} {'ns/report':>10}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['kernel']:<10} {row['n']:>8,} {row['d']:>6} {row['k']:>4} "
            f"{row['epsilon']:>5.2f} {row['seconds']:>9.3f} "
            f"{row['ns_per_report']:>10.2f}"
        )
    for row in payload["speedups"]:
        lines.append(
            f"speedup fast vs reference at n={row['n']:,} d={row['d']} "
            f"k={row['k']} eps={row['epsilon']}: {row['speedup']:.2f}x"
        )
    headline = payload.get("headline_speedup")
    if headline is not None:
        lines.append(
            f"headline (n={payload['headline']['n']:,}, "
            f"d={payload['headline']['d']}): {headline:.2f}x "
            f"(target >= {payload['headline_speedup_floor']:.1f}x)"
        )
    return "\n".join(lines)


def protocol_bench_grid(scale: str = "quick") -> list[dict]:
    """Return the shared ``(n, d, k, epsilon)`` points for the protocols mode.

    Every point is run by *every* registry protocol, so the sizes are pinned
    to what the slowest entry (the per-user-object reference driver) can
    sustain; the cross-protocol comparison needs a shared grid, not a large
    one.
    """
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")
    if scale == "smoke":
        return [{"n": 300, "d": 8, "k": 2, "epsilon": 1.0}]
    if scale == "quick":
        return [{"n": 2_000, "d": 32, "k": 4, "epsilon": 1.0}]
    return [
        {"n": 2_000, "d": 32, "k": 4, "epsilon": 1.0},
        {"n": 2_000, "d": 32, "k": 4, "epsilon": 0.5},
        {"n": 5_000, "d": 64, "k": 8, "epsilon": 1.0},
    ]


def run_protocol_bench(*, scale: str = "quick", seed: int = 0) -> dict:
    """Benchmark every ``PROTOCOLS`` entry; return the ``BENCH_protocols.json`` payload.

    One row per (protocol, grid point): wall-clock seconds of one full run,
    the run's max/mean absolute error, the expected per-user report bits,
    and the deployed ``c_gap`` — the accuracy/cost counterpart of the kernel
    trajectory.  All protocols at a point share the same generated Boolean
    workload, so rows are directly comparable within a point.
    """
    from repro.core.params import ProtocolParams
    from repro.protocols import PROTOCOLS
    from repro.workloads.generators import BoundedChangePopulation

    grid = protocol_bench_grid(scale)
    results = []
    for point_index, point in enumerate(grid):
        params = ProtocolParams(
            n=point["n"], d=point["d"], k=point["k"], epsilon=point["epsilon"]
        )
        workload_rng = bench_rng(seed, point_index, _STREAM_INPUT)
        states = BoundedChangePopulation(
            point["d"], point["k"], exact_k=True
        ).sample(point["n"], workload_rng)
        for name in sorted(PROTOCOLS):
            protocol = PROTOCOLS[name]
            # The same leaf for every protocol at the point: rows stay
            # directly comparable (identical randomness budget), and the
            # leaf is independent of the workload stream by construction.
            rng = bench_rng(seed, point_index, _STREAM_PROTOCOL)
            start = time.perf_counter()
            result = protocol.run(states, params, rng)
            seconds = time.perf_counter() - start
            results.append(
                {
                    "protocol": name,
                    "n": point["n"],
                    "d": point["d"],
                    "k": point["k"],
                    "epsilon": point["epsilon"],
                    "seconds": seconds,
                    "max_abs_error": result.max_abs_error,
                    "mean_abs_error": result.mean_abs_error,
                    "expected_report_bits": protocol.expected_report_bits(params),
                    "c_gap": protocol.c_gap(params),
                }
            )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": "protocols",
        "scale": scale,
        "seed": seed,
        "seed_scheme": BENCH_SEED_SCHEME,
        "git_sha": git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "protocols": sorted({row["protocol"] for row in results}),
        "results": results,
    }


def format_protocol_bench_table(payload: dict) -> str:
    """Human-readable summary of a protocols-mode payload (printed by the CLI)."""
    lines = [
        f"protocol accuracy/cost trajectory "
        f"(scale={payload['scale']}, git={payload['git_sha'][:12]})",
        f"{'protocol':<20} {'n':>7} {'d':>5} {'k':>3} {'eps':>5} "
        f"{'seconds':>8} {'max|err|':>10} {'mean|err|':>10} {'bits/user':>10}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['protocol']:<20} {row['n']:>7,} {row['d']:>5} {row['k']:>3} "
            f"{row['epsilon']:>5.2f} {row['seconds']:>8.3f} "
            f"{row['max_abs_error']:>10.1f} {row['mean_abs_error']:>10.1f} "
            f"{row['expected_report_bits']:>10.1f}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """Tiny standalone entry point (``python -m repro.bench``)."""
    from repro.cli import main as cli_main

    return cli_main(["bench", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
