"""Service benchmark: one workload of ``repro.sim.service.run_service``.

Run from the repository root:

    python3 perfbench/run.py --workload population --seed 3 --seconds 50 --trace 0

The program is imported from ``src/`` beside this directory; nothing is
installed.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``).
Lines before the last are a readable summary and a provenance record; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every checked period passed.

Workloads are defined in ``workloads.py``; ``selftest.py`` checks the
benchmark itself at toy size.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it from there."""
    sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {SOURCE}: {error}")
    if Path(repro.__file__).resolve().parents[1] != SOURCE:
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not from {SOURCE}"
        )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    import_program()
    import measure
    from workloads import WORKLOADS

    import_s = time.perf_counter() - started
    try:
        workload = WORKLOADS[args.workload]
    except KeyError:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}"
        ) from None
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = measure.Run(workload, args.seed, work_dir)
        if args.trace:
            metrics, samples = measure.traced(run, args.seconds)
            units = {m.name: m.unit for m in measure.LAYER_METRICS}
        else:
            metrics, samples = measure.end_to_end(run, import_s, args.seconds)
            units = measure.END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6g} {units[name]}")
    record = measure.provenance(run, args.seconds, bool(args.trace), samples)
    print(json.dumps({"provenance": record}))
    correct = run.correct and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
