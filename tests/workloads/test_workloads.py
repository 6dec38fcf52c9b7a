"""Tests for the workload generators, scenarios and stream helpers."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import (
    BoundedChangePopulation,
    ChurnPopulation,
    PeriodicPopulation,
    TrendPopulation,
)
from repro.workloads.scenarios import (
    telemetry_fleet_scenario,
    url_tracking_scenario,
)


def _changes(states: np.ndarray) -> np.ndarray:
    return np.count_nonzero(np.diff(states, axis=1, prepend=0), axis=1)


class TestBoundedChangePopulation:
    def test_shape_and_domain(self, rng):
        states = BoundedChangePopulation(32, 4).sample(50, rng)
        assert states.shape == (50, 32)
        assert set(np.unique(states).tolist()) <= {0, 1}

    @given(
        st.sampled_from([8, 16, 32]),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["uniform", "early", "late", "bursty"]),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_change_budget_respected(self, d, k, mode, exact):
        population = BoundedChangePopulation(
            d, k, mode=mode, start_prob=0.3, exact_k=exact
        )
        states = population.sample(25, np.random.default_rng(0))
        assert _changes(states).max() <= k

    def test_exact_k_uses_full_budget(self, rng):
        population = BoundedChangePopulation(64, 3, exact_k=True)
        states = population.sample(40, rng)
        assert (_changes(states) == 3).all()

    def test_start_prob_zero_starts_at_zero(self, rng):
        population = BoundedChangePopulation(16, 2)
        states = population.sample(200, rng)
        # Starting at 1 without a change at t=1 is impossible.
        assert (states[:, 0] == 1).mean() < 0.7  # changes at t=1 still allowed

    def test_start_prob_shifts_initial_state(self):
        low = BoundedChangePopulation(16, 3, start_prob=0.0)
        high = BoundedChangePopulation(16, 3, start_prob=0.8, exact_k=True)
        rng_low = np.random.default_rng(1)
        rng_high = np.random.default_rng(1)
        fraction_low = low.sample(300, rng_low)[:, 0].mean()
        fraction_high = high.sample(300, rng_high)[:, 0].mean()
        assert fraction_high > fraction_low + 0.3

    def test_bursty_changes_inside_window(self, rng):
        population = BoundedChangePopulation(64, 4, mode="bursty", burst_width=8, exact_k=True)
        states = population.sample(50, rng)
        deriv = np.diff(states, axis=1, prepend=0)
        for row in deriv:
            nonzeros = np.flatnonzero(row)
            if nonzeros.size > 1:
                assert nonzeros.max() - nonzeros.min() < 8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BoundedChangePopulation(12, 2)  # not a power of two
        with pytest.raises(ValueError):
            BoundedChangePopulation(8, 9)  # k > d
        with pytest.raises(ValueError):
            BoundedChangePopulation(8, 2, mode="weird")
        with pytest.raises(ValueError):
            BoundedChangePopulation(8, 4, mode="bursty", burst_width=2)
        with pytest.raises(ValueError):
            BoundedChangePopulation(8, 2, start_prob=1.5)

    def test_properties(self):
        """Samples span the horizon ``d`` and respect the budget ``k``."""
        states = BoundedChangePopulation(16, 3).sample(50, np.random.default_rng(0))
        assert states.shape == (50, 16)
        changes = np.count_nonzero(np.diff(states, axis=1, prepend=0), axis=1)
        assert changes.max() <= 3


class TestTrendPopulation:
    def test_budget_respected(self, rng):
        states = TrendPopulation(64, 4).sample(60, rng)
        assert _changes(states).max() <= 4

    def test_sigmoid_counts_ramp_up(self, rng):
        states = TrendPopulation(64, 6, curve="sigmoid").sample(800, rng)
        counts = states.sum(axis=0)
        assert counts[-1] > counts[0] + 200  # strong adoption by the end

    def test_spike_curve_peaks_early(self):
        curve = TrendPopulation(64, 4, curve="spike").target_curve()
        assert curve.argmax() < 32

    def test_linear_curve(self):
        curve = TrendPopulation(16, 2, curve="linear").target_curve()
        assert curve[0] == pytest.approx(1 / 16)
        assert curve[-1] == pytest.approx(1.0)

    def test_invalid_curve(self):
        with pytest.raises(ValueError):
            TrendPopulation(16, 2, curve="exp")


class TestPeriodicPopulation:
    def test_budget_respected(self, rng):
        states = PeriodicPopulation(64, 5, period=4).sample(40, rng)
        assert _changes(states).max() <= 5

    def test_toggling_visible(self, rng):
        states = PeriodicPopulation(32, 8, period=4).sample(40, rng)
        assert _changes(states).max() >= 2

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicPopulation(16, 2, period=0)


_POPULATIONS = {
    "bounded": BoundedChangePopulation,
    "trend": TrendPopulation,
    "periodic": PeriodicPopulation,
    "churn": ChurnPopulation,
}


class TestChangeBudgetValidation:
    @pytest.mark.parametrize("kind", sorted(_POPULATIONS))
    def test_budget_above_horizon_rejected_at_construction(self, kind):
        with pytest.raises(ValueError, match=r"^k=9 cannot exceed d=8$"):
            _POPULATIONS[kind](8, 9)

    @pytest.mark.parametrize("kind", sorted(_POPULATIONS))
    def test_budget_equal_to_horizon_samples(self, kind, rng):
        sample = _POPULATIONS[kind](8, 8).sample(200, rng)
        assert sample.shape == (200, 8)
        assert _changes(sample).max() <= 8


class TestScenarios:
    def test_url_tracking(self):
        scenario = url_tracking_scenario(n=200, d=32, k=4)
        assert scenario.states.shape == (200, 32)
        assert _changes(scenario.states).max() <= 4
        assert scenario.params.n == 200
        assert scenario.name == "url_tracking"
        assert scenario.true_counts.shape == (32,)

    def test_telemetry_fleet(self):
        scenario = telemetry_fleet_scenario(n=200, d=32, k=3)
        assert scenario.states.shape == (200, 32)
        assert _changes(scenario.states).max() <= 3
        assert "feature" in scenario.description

    def test_scenarios_reproducible(self):
        a = url_tracking_scenario(n=50, d=16, k=2, rng=np.random.default_rng(5))
        b = url_tracking_scenario(n=50, d=16, k=2, rng=np.random.default_rng(5))
        assert np.array_equal(a.states, b.states)

    def test_run_trials_sharded_and_persisted(self, tmp_path):
        from repro.sim.runner import run_trials
        from repro.sim.store import ResultStore

        scenario = url_tracking_scenario(
            n=150, d=16, k=2, rng=np.random.default_rng(6)
        )
        repeat = functools.partial(
            run_trials, None, scenario.states, scenario.params, trials=3, seed=0
        )
        serial = repeat()
        assert serial.trials == 3
        sharded = repeat(workers=2)
        assert sharded == serial

        store = ResultStore(tmp_path / "results")
        persisted = repeat(store=store)
        assert persisted == serial
        assert store.shard_count() == 3
        reloaded = repeat(store=store)
        assert reloaded == serial
