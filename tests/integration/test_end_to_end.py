"""Integration tests: full pipelines across modules."""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import hoeffding_radius
from repro.core.vectorized import run_batch
from repro.protocols import get_protocol
from repro.sim.engine import SimulationEngine
from repro.workloads.scenarios import telemetry_fleet_scenario, url_tracking_scenario

#: The per-user object reference driver (one Client per user).
OBJECT_REFERENCE = get_protocol("future_rand_object")


class TestScenarioPipelines:
    def test_url_tracking_end_to_end(self):
        scenario = url_tracking_scenario(n=500, d=32, k=4, rng=np.random.default_rng(0))
        result = run_batch(scenario.states, scenario.params, np.random.default_rng(1))
        radius = hoeffding_radius(
            scenario.params, result.c_gap, scenario.params.beta / scenario.params.d
        )
        assert result.max_abs_error <= radius

    def test_telemetry_online_engine(self):
        scenario = telemetry_fleet_scenario(
            n=150, d=16, k=3, rng=np.random.default_rng(2)
        )
        snapshots = []
        engine = SimulationEngine(scenario.params, rng=np.random.default_rng(3))
        result = engine.run(scenario.states, snapshots.append)
        assert len(snapshots) == 16
        # The online estimates and the final result agree period by period.
        assert np.allclose(
            [snap.estimate for snap in snapshots], result.estimates
        )
        # Reports arrive every period (the order-0 group reports each time).
        assert all(snap.reports_this_period > 0 for snap in snapshots)

    def test_online_and_batch_drivers_both_track_truth(self):
        scenario = url_tracking_scenario(n=300, d=16, k=3, rng=np.random.default_rng(4))
        online = OBJECT_REFERENCE.run(scenario.states, scenario.params, np.random.default_rng(5))
        batch = run_batch(scenario.states, scenario.params, np.random.default_rng(6))
        radius = hoeffding_radius(
            scenario.params, online.c_gap, scenario.params.beta / scenario.params.d
        )
        assert online.max_abs_error <= radius
        assert batch.max_abs_error <= radius

    def test_baseline_runs_on_same_scenario(self):
        scenario = url_tracking_scenario(n=300, d=16, k=3, rng=np.random.default_rng(7))
        result = get_protocol("erlingsson").run(
            scenario.states, scenario.params, np.random.default_rng(8)
        )
        assert result.estimates.shape == (16,)


class TestReproducibility:
    def test_full_pipeline_is_deterministic(self):
        scenario = url_tracking_scenario(n=200, d=16, k=2, rng=np.random.default_rng(11))
        a = run_batch(scenario.states, scenario.params, np.random.default_rng(12))
        b = run_batch(scenario.states, scenario.params, np.random.default_rng(12))
        assert np.array_equal(a.estimates, b.estimates)

    def test_different_seeds_differ(self):
        scenario = url_tracking_scenario(n=200, d=16, k=2, rng=np.random.default_rng(13))
        a = run_batch(scenario.states, scenario.params, np.random.default_rng(14))
        b = run_batch(scenario.states, scenario.params, np.random.default_rng(15))
        assert not np.array_equal(a.estimates, b.estimates)
