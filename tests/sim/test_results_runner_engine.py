"""Tests for the simulation layer: results, runner, engine."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.simple_randomizer import SimpleRandomizerFamily
from repro.core.vectorized import run_batch
from repro.sim.engine import SimulationEngine, StepSnapshot
from repro.sim.results import ResultTable, format_markdown_table
from repro.sim.runner import run_trials, sweep
from repro.workloads.generators import BoundedChangePopulation


def _estimates_digest(estimates: np.ndarray) -> str:
    """sha256 of an estimate vector's little-endian float64 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(estimates, dtype="<f8").tobytes()
    ).hexdigest()


class TestResultTable:
    def test_add_row_and_column(self):
        table = ResultTable(title="t", columns=["a"])
        table.add_row(a=1, b=2)
        assert table.columns == ["a", "b"]
        assert table.column("a") == [1]
        assert table.column("b") == [2]

    def test_markdown_render(self):
        table = ResultTable(title="demo", columns=["x", "y"])
        table.add_row(x=1, y=0.5)
        text = table.to_markdown()
        assert "### demo" in text
        assert "| x | y   |" in text

    def test_markdown_formats_floats(self):
        assert "1.234e-05" in format_markdown_table(
            ["v"], [{"v": 1.234e-5}]
        )
        assert "0" in format_markdown_table(["v"], [{"v": 0.0}])

    def test_json_roundtrip(self):
        table = ResultTable(title="t", columns=["a"], notes="n")
        table.add_row(a=1.5)
        clone = ResultTable.from_json(table.to_json())
        assert clone.title == "t"
        assert clone.notes == "n"
        assert clone.rows == table.rows

    def test_csv(self):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"
        assert lines[2] == "3,"

    def test_missing_cells_render_empty(self):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(a=1)
        assert "| 1 |   |" in table.to_markdown()


class TestRunTrials:
    def test_statistics_fields(self, small_params, small_states):
        stats = run_trials(run_batch, small_states, small_params, trials=3, seed=0)
        assert stats.trials == 3
        assert stats.best_max_abs <= stats.mean_max_abs <= stats.worst_max_abs
        assert stats.std_max_abs >= 0.0
        assert set(stats.as_dict()) >= {"mean_max_abs", "mean_mae", "mean_rmse"}

    def test_single_trial_zero_std(self, small_params, small_states):
        stats = run_trials(run_batch, small_states, small_params, trials=1, seed=0)
        assert stats.std_max_abs == 0.0

    def test_reproducible(self, small_params, small_states):
        a = run_trials(run_batch, small_states, small_params, trials=2, seed=9)
        b = run_trials(run_batch, small_states, small_params, trials=2, seed=9)
        assert a.mean_max_abs == b.mean_max_abs

    def test_rejects_zero_trials(self, small_params, small_states):
        with pytest.raises(ValueError):
            run_trials(run_batch, small_states, small_params, trials=0)


class TestSweep:
    def test_table_shape(self):
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        table = sweep({"fr": run_batch}, params, "k", [1, 2], trials=1, seed=0)
        assert table.column("k") == [1.0, 2.0]
        assert len(table.rows) == 2

    def test_multiple_runners_share_workload(self):
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        table = sweep(
            {"a": run_batch, "b": run_batch}, params, "n", [100, 200], trials=1, seed=0
        )
        assert len(table.rows) == 4
        assert set(table.column("protocol")) == {"a", "b"}

    def test_rejects_unknown_parameter(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            sweep({"fr": run_batch}, params, "beta", [0.1], trials=1)

    def test_rejects_empty_values(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=1.0)
        with pytest.raises(ValueError):
            sweep({"fr": run_batch}, params, "k", [], trials=1)

    def test_custom_workload(self):
        params = ProtocolParams(n=100, d=16, k=2, epsilon=1.0)
        calls = []

        def workload(p, rng):
            calls.append(p.k)
            return np.zeros((p.n, p.d), dtype=np.int8)

        sweep({"fr": run_batch}, params, "k", [1, 2], trials=1, workload=workload)
        assert calls == [1, 2]


class TestSweepReproducibility:
    """Trial seeds descend from the root SeedSequence spawn tree — not from
    ``hash(str)``, which is salted per process and silently broke same-seed
    reproducibility."""

    def test_same_seed_sweeps_are_identical(self):
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        first = sweep(
            ["future_rand", "erlingsson"], params, "k", [1, 2], trials=2, seed=11
        )
        second = sweep(
            ["future_rand", "erlingsson"], params, "k", [1, 2], trials=2, seed=11
        )
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        first = sweep(None, params, "k", [2], trials=2, seed=1)
        second = sweep(None, params, "k", [2], trials=2, seed=2)
        assert first.rows[0]["mean_max_abs"] != second.rows[0]["mean_max_abs"]

    def test_runners_get_independent_trial_seeds(self):
        # Two names for the same runner at the same sweep point must not
        # replay each other's randomness.
        params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)
        table = sweep(
            {"a": run_batch, "b": run_batch}, params, "k", [2], trials=2, seed=0
        )
        assert table.rows[0]["mean_max_abs"] != table.rows[1]["mean_max_abs"]

    def test_reproducible_across_processes(self, tmp_path):
        """The real regression: ``hash(str)`` salting differs per process."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import json\n"
            "from repro.core.params import ProtocolParams\n"
            "from repro.sim.runner import sweep\n"
            "params = ProtocolParams(n=200, d=16, k=2, epsilon=1.0)\n"
            "table = sweep(['future_rand', 'naive_split'], params, 'k', [1, 2],"
            " trials=2, seed=17)\n"
            "print(json.dumps(table.to_json()))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        env.pop("PYTHONHASHSEED", None)  # let each process pick its own salt
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert json.loads(outputs[0]) == json.loads(outputs[1])


class TestSimulationEngine:
    def test_callback_invoked_every_period(self, rng):
        params = ProtocolParams(n=40, d=8, k=2, epsilon=1.0)
        states = np.zeros((40, 8), dtype=np.int8)
        engine = SimulationEngine(params, rng=rng)
        snapshots: list[StepSnapshot] = []
        engine.run(states, snapshots.append)
        assert [snap.t for snap in snapshots] == list(range(1, 9))
        assert all(snap.true_count == 0 for snap in snapshots)

    def test_snapshot_error_property(self):
        snapshot = StepSnapshot(t=1, estimate=5.0, true_count=3, reports_this_period=2)
        assert snapshot.error == 2.0

    def test_result_matches_protocol_result_contract(self, rng):
        params = ProtocolParams(n=30, d=8, k=2, epsilon=1.0)
        states = np.zeros((30, 8), dtype=np.int8)
        states[:10, 4:] = 1
        result = SimulationEngine(params, rng=rng).run(states)
        assert result.estimates.shape == (8,)
        assert result.true_counts[-1] == 10

    def test_drop_rate_biases_towards_zero(self):
        """With most reports dropped, estimates shrink towards zero."""
        params = ProtocolParams(n=150, d=8, k=1, epsilon=1.0)
        family = SimpleRandomizerFamily(1, 1.0)
        states = np.ones((150, 8), dtype=np.int8)
        full_mags, dropped_mags = [], []
        for trial in range(10):
            full = SimulationEngine(
                params, family=family, rng=np.random.default_rng(trial)
            ).run(states)
            dropped = SimulationEngine(
                params,
                family=family,
                rng=np.random.default_rng(trial),
                report_drop_rate=0.9,
            ).run(states)
            full_mags.append(abs(full.estimates[-1]))
            dropped_mags.append(abs(dropped.estimates[-1]))
        # The undropped run estimates ~n at the end; dropping 90% of reports
        # shrinks the (debiased) estimate magnitude accordingly.
        assert np.mean(dropped_mags) < np.mean(full_mags)

    def test_invalid_drop_rate(self):
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        with pytest.raises(ValueError):
            SimulationEngine(params, report_drop_rate=1.0)

    def test_estimate_bias_scales_with_drop_rate(self):
        """Each report survives with probability 1 - q, so the (debiased)
        estimate's expectation shrinks by exactly that factor: the mean final
        estimate at drop rate q must track (1 - q) * n."""
        params = ProtocolParams(n=200, d=8, k=1, epsilon=1.0)
        family = SimpleRandomizerFamily(1, 1.0)
        states = np.ones((200, 8), dtype=np.int8)
        trials = 12
        mean_final = {}
        for q in (0.0, 0.5, 0.9):
            finals = [
                SimulationEngine(
                    params,
                    family=family,
                    rng=np.random.default_rng(1000 * trial + int(q * 10)),
                    report_drop_rate=q,
                ).run(states).estimates[-1]
                for trial in range(trials)
            ]
            mean_final[q] = float(np.mean(finals))
        # Monotone shrinkage towards zero...
        assert abs(mean_final[0.9]) < abs(mean_final[0.5]) < abs(mean_final[0.0])
        # ...and proportional to the survival rate, within Monte-Carlo slack.
        for q in (0.5, 0.9):
            expected = (1.0 - q) * params.n
            assert mean_final[q] == pytest.approx(expected, abs=0.35 * params.n)

    def test_reports_this_period_accounts_for_drops(self):
        """Snapshot report counts must reflect delivery, not emission: without
        drops the total equals the exact per-order schedule; with drops it
        falls binomially below it."""
        params = ProtocolParams(n=300, d=16, k=2, epsilon=1.0)
        states = np.zeros((300, 16), dtype=np.int8)
        full_snaps: list[StepSnapshot] = []
        result = SimulationEngine(params, rng=np.random.default_rng(7)).run(
            states, full_snaps.append
        )
        sent = int((params.d >> result.orders).sum())
        assert sum(snap.reports_this_period for snap in full_snaps) == sent

        dropped_snaps: list[StepSnapshot] = []
        dropped_result = SimulationEngine(
            params, rng=np.random.default_rng(7), report_drop_rate=0.5
        ).run(states, dropped_snaps.append)
        dropped_sent = int((params.d >> dropped_result.orders).sum())
        delivered = sum(snap.reports_this_period for snap in dropped_snaps)
        # Binomial(sent, 0.5) concentrates well inside (0.4, 0.6) * sent.
        assert 0.4 * dropped_sent < delivered < 0.6 * dropped_sent

    def test_draw_streams_are_pinned(self):
        """Exact output with and without drops.

        Pins the per-client spawn, each client's order and noise draws, and
        the engine stream's one drop draw per emitted report (client order).
        """
        params = ProtocolParams(n=120, d=16, k=3, epsilon=1.0)
        states = BoundedChangePopulation(16, 3, start_prob=0.2).sample(
            120, np.random.default_rng(0)
        )
        clean_snaps: list[StepSnapshot] = []
        clean = SimulationEngine(params, rng=np.random.default_rng(2)).run(
            states, clean_snaps.append
        )
        assert _estimates_digest(clean.estimates) == (
            "30fae943795a6d5fad46622d047d6b9a202ee589cbcbed147155b7e3f62cd0c0"
        )
        assert [snap.reports_this_period for snap in clean_snaps] == [
            16, 48, 16, 70, 16, 48, 16, 94, 16, 48, 16, 70, 16, 48, 16, 120,
        ]
        lossy_snaps: list[StepSnapshot] = []
        lossy = SimulationEngine(
            params, rng=np.random.default_rng(2), report_drop_rate=0.3
        ).run(states, lossy_snaps.append)
        assert _estimates_digest(lossy.estimates) == (
            "d8323325015c25733b36463f2fcd0cf666bedde9b1d2fc9efd599636b1822bab"
        )
        assert [snap.reports_this_period for snap in lossy_snaps] == [
            10, 36, 13, 44, 12, 30, 9, 64, 13, 32, 13, 44, 14, 33, 10, 88,
        ]

    def test_shape_validation(self, rng):
        params = ProtocolParams(n=10, d=8, k=1, epsilon=1.0)
        engine = SimulationEngine(params, rng=rng)
        with pytest.raises(ValueError):
            engine.run(np.zeros((10, 4), dtype=np.int8))
