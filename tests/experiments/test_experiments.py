"""Tests for the experiment registry: every experiment runs and its headline
claim holds at small scale with a fixed seed."""

from __future__ import annotations


import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.sim.results import ResultTable


class TestRegistry:
    def test_all_registered(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 15)}

    def test_lookup_case_insensitive(self):
        assert get_experiment("e3").experiment_id == "E3"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_specs_have_claims(self):
        for spec in EXPERIMENTS.values():
            assert spec.paper_claim
            assert spec.title


class TestE1Figure1:
    def test_runs_and_matches_paper(self):
        table = get_experiment("E1").run()
        assert len(table.rows) == 7  # 2d - 1 intervals for d = 4
        highlighted = [row["interval"] for row in table.rows if row["in_C(3)"]]
        assert highlighted == ["I_{0,3}", "I_{1,1}"]


class TestE2ErrorVsK:
    def test_sqrt_k_scaling(self):
        table = get_experiment("E2").run(scale="small", seed=1)
        fit_rows = [row for row in table.rows if row["protocol"] == "fit"]
        assert len(fit_rows) == 1
        exponent = fit_rows[0]["mean_max_abs"]
        assert 0.25 < exponent < 0.75  # sqrt-like, nowhere near linear


class TestE3ErrorVsD:
    def test_sub_polynomial_in_d(self):
        table = get_experiment("E3").run(scale="small", seed=1)
        fit_rows = [row for row in table.rows if row["protocol"] == "fit"]
        exponent = fit_rows[0]["mean_max_abs"]
        assert exponent < 0.6  # far below naive repetition's ~1.0


class TestE4ErrorVsNEps:
    def test_exponents(self):
        table = get_experiment("E4").run(scale="small", seed=1)
        fits = {row["sweep"]: row["value"] for row in table.rows if "fit" in str(row["sweep"])}
        assert 0.3 < fits["fit_n_exponent"] < 0.7
        assert -1.4 < fits["fit_eps_exponent"] < -0.6


class TestE5VsErlingsson:
    def test_future_rand_wins_at_largest_k(self):
        table = get_experiment("E5").run(scale="small", seed=1)
        rows = [row for row in table.rows]
        largest = max(rows, key=lambda row: row["k"])
        assert largest["winner"] == "future_rand"

    def test_ratio_increases_with_k(self):
        table = get_experiment("E5").run(scale="small", seed=2)
        ratios = [row["ratio_erl_over_fr"] for row in table.rows]
        assert ratios[-1] > ratios[0]


class TestE6CGap:
    def test_normalized_constant_bounded_below(self):
        table = get_experiment("E6").run(scale="small")
        normalized = [
            row["future_normalized"] for row in table.rows if row["k"] >= 4
        ]
        assert min(normalized) > 0.05


class TestE7Privacy:
    def test_all_hold(self):
        table = get_experiment("E7").run(scale="small")
        assert all(row["holds"] == "yes" for row in table.rows)
        assert all(
            row["client_log_ratio"] <= row["epsilon"] + 1e-9 for row in table.rows
        )


class TestE8Bun:
    def test_advantage_tracks_sqrt_log(self):
        table = get_experiment("E8").run(scale="small")
        for row in table.rows:
            ratio = row["advantage_ratio"] / row["predicted_sqrt_log"]
            assert 0.5 < ratio < 2.0


class TestE9Concentration:
    def test_unbiased_and_within_radius(self):
        table = get_experiment("E9").run(scale="small", seed=3)
        assert all(abs(row["bias_z_score"]) < 4.0 for row in table.rows)
        assert all(row["within_radius_fraction"] == 1.0 for row in table.rows)


class TestE10Landscape:
    def test_expected_ordering_at_largest_d(self):
        table = get_experiment("E10").run(scale="small", seed=1)
        last = max(table.rows, key=lambda row: row["d"])
        assert last["central_tree"] < last["future_rand"]
        assert last["naive_unsplit"] < last["future_rand"]

    def test_naive_split_grows_fastest(self):
        table = get_experiment("E10").run(scale="small", seed=1)
        rows = sorted(table.rows, key=lambda row: row["d"])
        naive_growth = rows[-1]["naive_split"] / rows[0]["naive_split"]
        ours_growth = rows[-1]["future_rand"] / rows[0]["future_rand"]
        assert naive_growth > ours_growth


class TestE11Consistency:
    def test_consistency_improves_everywhere(self):
        table = get_experiment("E11").run(scale="small", seed=1)
        assert all(row["improvement"] > 1.0 for row in table.rows)


class TestE12OrderAllocation:
    def test_uniform_beats_root_heavy(self):
        table = get_experiment("E12").run(scale="small", seed=1)
        errors = {row["allocation"]: row["raw_max_abs"] for row in table.rows}
        assert errors["uniform"] < errors["root_heavy"]


class TestAllExperimentsReturnTables:
    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_returns_result_table(self, experiment_id):
        table = get_experiment(experiment_id).run(scale="small", seed=0)
        assert isinstance(table, ResultTable)
        assert table.rows
        assert table.title.startswith(experiment_id)
