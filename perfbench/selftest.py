"""Self-test of the benchmark at toy size.

Run from the repository root (a few seconds):

    python3 perfbench/selftest.py

It runs every workload at a toy shape through the benchmark's own command
line, untraced and traced, and checks that:

* every metric ``BENCHMARK.json`` names is emitted with its unit, and the
  last line has exactly the keys of the result contract;
* traced and untraced passes of the same seed release the same digest;
* a corrupted estimate fails the digest check, both directly and through a
  wrong pinned digest on the command line.

Exits with 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run as bench_run

bench_run.import_program()

import numpy as np  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402
from repro.sim.service import IngestionService, run_service  # noqa: E402
from tracer import Tracer  # noqa: E402

TOY_SHAPES = {
    "population": {"n": 4096, "d": 16, "k": 2, "block_rows": 1024},
    "fan-in": {"n": 1024, "d": 32, "k": 2, "block_rows": 64},
    "durable": {"n": 2048, "d": 16, "k": 2, "block_rows": 256, "snapshot_every": 4},
}
SEED = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTest:
    def __init__(self) -> None:
        self.failures: list[str] = []
        spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
        self.expected_units = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def cli(self, name: str, seed: int, trace: int) -> tuple[int, dict, dict]:
        """One run through ``run.main``: exit code, last line, provenance."""
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            code = bench_run.main(
                ["--workload", name, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace)]
            )
        lines = output.getvalue().splitlines()
        return code, json.loads(lines[-1]), json.loads(lines[-2])["provenance"]

    def check_workload(self, name: str) -> None:
        digests = {}
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            code, result, provenance = self.cli(name, SEED, trace)
            self.expect(code == 0, f"{label}: exit code {code}")
            self.expect(set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}")
            self.expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{label}: correct={result['correct']} failed={result['failed']}",
            )
            emitted = {key: value["unit"] for key, value in result["metrics"].items()}
            self.expect(
                emitted == self.expected_units[trace],
                f"{label}: metrics/units differ from BENCHMARK.json: {emitted}",
            )
            self.expect(
                provenance["check"]["distinct_digests"] == 1,
                f"{label}: passes released different digests",
            )
            digests[trace] = provenance["check"]["digest"]
        self.expect(
            digests[0] == digests[1],
            f"{name}: traced digest {digests[1]} != untraced {digests[0]}",
        )

    def check_corruption(self, name: str) -> None:
        workload = workloads.WORKLOADS[name]
        _, service_seed = workloads.seeds(SEED)
        result = run_service(
            workloads.make_inputs(workload, SEED),
            workload.params(),
            service_seed,
            traffic=workload.traffic,
            block_rows=workload.block_rows,
        )
        digest = workloads.estimates_digest(result.estimates)
        stats = result.stats
        rates = (stats.effective_drop_rate, stats.effective_duplicate_rate)

        def failed(estimates) -> int:
            return measure.check_output(
                workload, estimates, result.true_counts, result.c_gap, *rates, digest
            ).failed_periods

        corrupted = result.estimates.copy()
        corrupted[workload.d // 2] = np.nextafter(corrupted[workload.d // 2], np.inf)
        self.expect(failed(result.estimates) == 0, f"{name}: clean output failed")
        self.expect(
            failed(corrupted) == workload.d,
            f"{name}: a one-ulp corruption passed the digest check",
        )

        workloads.PINNED_DIGESTS[name] = "0" * 64
        try:
            code, result_line, _ = self.cli(name, workloads.DEFAULT_SEED, 0)
        finally:
            workloads.PINNED_DIGESTS[name] = ""
        self.expect(
            code != 0
            and not result_line["correct"]
            and result_line["failed"] == result_line["attempted"],
            f"{name}: a wrong pinned digest did not fail the run",
        )

    def check_tracer_restores(self) -> None:
        original = IngestionService.close_period
        with Tracer() as tracer:
            tracer.install_layers()
            tracer.install_pool()
        self.expect(
            IngestionService.close_period is original,
            "Tracer did not restore the wrapped methods",
        )


def main() -> int:
    for name, shape in TOY_SHAPES.items():
        workloads.WORKLOADS[name] = dataclasses.replace(
            workloads.WORKLOADS[name], **shape
        )
        workloads.PINNED_DIGESTS[name] = ""
    test = SelfTest()
    test.check_tracer_restores()
    for name in TOY_SHAPES:
        test.check_workload(name)
        test.check_corruption(name)
    for failure in test.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    summary = f"{len(test.failures)} failures" if test.failures else "ok"
    print(f"selftest: {summary}")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
