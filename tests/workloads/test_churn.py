"""The churn workload family: arrivals, departures, activity masks, budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.core.vectorized import validate_states
from repro.workloads import SCENARIOS, ChurnPopulation, churn_scenario


class TestChurnPopulation:
    def test_states_are_valid_bounded_change_populations(self):
        population = ChurnPopulation(d=32, k=4)
        states = population.sample(800, np.random.default_rng(0))
        params = ProtocolParams(n=800, d=32, k=4, epsilon=1.0)
        validate_states(states, params)  # 0/1 entries + change budget

    def test_absent_users_hold_zero(self):
        population = ChurnPopulation(d=32, k=3)
        states, active = population.sample_with_activity(
            500, np.random.default_rng(1)
        )
        assert active.shape == states.shape
        assert (states[~active] == 0).all()

    def test_sample_matches_sample_with_activity(self):
        population = ChurnPopulation(d=16, k=3)
        states = population.sample(200, np.random.default_rng(2))
        paired, _ = population.sample_with_activity(200, np.random.default_rng(2))
        np.testing.assert_array_equal(states, paired)

    def test_activity_windows_are_contiguous(self):
        population = ChurnPopulation(d=32, k=2)
        _, active = population.sample_with_activity(300, np.random.default_rng(3))
        # Exactly one arrival transition per user: 0 -> 1 happens once.
        arrivals = np.count_nonzero(
            (~active[:, :-1]) & active[:, 1:], axis=1
        ) + active[:, 0]
        assert (arrivals == 1).all()

    def test_population_actually_churns(self):
        population = ChurnPopulation(d=64, k=4, mean_lifetime=8)
        states, active = population.sample_with_activity(
            2000, np.random.default_rng(4)
        )
        # Some users depart before the horizon, some arrive after period 1,
        # and present users do hold non-zero values.
        assert (~active[:, -1]).any()
        assert (~active[:, 0]).any()
        assert states.sum() > 0

    def test_short_lifetimes_shrink_the_active_fraction(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        brief = ChurnPopulation(d=64, k=3, mean_lifetime=4)
        lasting = ChurnPopulation(d=64, k=3, mean_lifetime=64)
        _, active_brief = brief.sample_with_activity(1500, rng_a)
        _, active_lasting = lasting.sample_with_activity(1500, rng_b)
        assert active_brief.mean() < active_lasting.mean()

    def test_exposes_horizon_and_budget(self):
        states = ChurnPopulation(16, 3).sample(50, np.random.default_rng(0))
        assert states.shape == (50, 16)
        changes = np.count_nonzero(np.diff(states, axis=1, prepend=0), axis=1)
        assert changes.max() <= 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="k must be at least 2"):
            ChurnPopulation(d=16, k=1)
        with pytest.raises(ValueError, match="arrival_window"):
            ChurnPopulation(d=16, k=2, arrival_window=17)
        with pytest.raises(ValueError, match="mean_lifetime"):
            ChurnPopulation(d=16, k=2, mean_lifetime=0)
        with pytest.raises(ValueError, match="cannot exceed"):
            ChurnPopulation(d=4, k=8)


class TestChurnScenario:
    def test_registered_in_scenarios(self):
        assert SCENARIOS["churn"] is churn_scenario
        assert set(SCENARIOS) >= {"url_tracking", "telemetry_fleet", "churn"}

    def test_scenario_runs_through_the_engine(self):
        scenario = churn_scenario(n=400, d=16, k=4, rng=np.random.default_rng(6))
        assert scenario.name == "churn"
        result = scenario.run(np.random.default_rng(7))
        assert result.estimates.shape == (16,)
        np.testing.assert_array_equal(
            result.true_counts, scenario.states.sum(axis=0)
        )

    def test_scenario_is_reproducible(self):
        a = churn_scenario(n=100, d=16, k=3, rng=np.random.default_rng(8))
        b = churn_scenario(n=100, d=16, k=3, rng=np.random.default_rng(8))
        np.testing.assert_array_equal(a.states, b.states)
