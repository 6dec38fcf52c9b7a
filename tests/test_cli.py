"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.scale == "small"
        assert args.seed == 0

    def test_cgap_requires_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cgap"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E10" in output

    def test_run_e1(self, capsys):
        assert main(["run", "E1"]) == 0
        output = capsys.readouterr().out
        assert "I_{1,1}" in output

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "E42"])

    def test_run_with_json_output(self, capsys, tmp_path):
        target = tmp_path / "results"
        assert main(["run", "E1", "--json", str(target)]) == 0
        payload = json.loads((target / "E1.json").read_text())
        assert payload["columns"][0] == "interval"

    def test_cgap_command(self, capsys):
        assert main(["cgap", "--k", "16", "--epsilon", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 16
        assert payload["c_gap"] > 0
        assert payload["privacy_log_ratio"] <= 0.5 + 1e-9

    def test_verify_command(self, capsys):
        assert main(["verify", "--k", "8", "--epsilon", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "lemma52" in output
        assert "FAILED" not in output

    def test_communication_command(self, capsys):
        assert main(["communication", "--d", "64"]) == 0
        output = capsys.readouterr().out
        assert "future_rand" in output
        assert "naive_rr_split" in output

    def test_simulate_command(self, capsys):
        assert main(
            ["simulate", "--n", "500", "--d", "16", "--k", "2", "--seed", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "max |error|" in output

    def test_simulate_with_consistency(self, capsys):
        assert main(
            [
                "simulate", "--n", "500", "--d", "16", "--k", "2",
                "--consistency",
            ]
        ) == 0
        assert "+consistency" in capsys.readouterr().out

    def test_simulate_baseline(self, capsys):
        assert main(
            ["simulate", "--protocol", "naive_split", "--n", "300", "--d", "16",
             "--k", "2"]
        ) == 0
        assert "naive_rr_split" in capsys.readouterr().out

    def test_simulate_consistency_rejected_for_baselines(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--protocol", "naive_split", "--n", "100",
                 "--d", "16", "--k", "2", "--consistency"]
            )


_SWEEP_ARGS = [
    "sweep", "--protocols", "future_rand", "naive_unsplit",
    "--parameter", "k", "--values", "1", "2",
    "--n", "300", "--d", "16", "--trials", "2", "--seed", "0",
]


class TestSweepAndResults:
    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--parameter", "k", "--values", "2", "4"]
        )
        assert args.protocols == ["future_rand"]
        assert args.workers == 1
        assert args.resume is True
        assert args.store_dir is None

    def test_sweep_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--protocols", "nope", "--parameter", "k",
                 "--values", "2"]
            )

    def test_sweep_without_store(self, capsys):
        assert main(_SWEEP_ARGS) == 0
        output = capsys.readouterr().out
        assert "future_rand" in output and "naive_unsplit" in output
        assert "store:" not in output

    def test_sweep_persists_and_resumes(self, capsys, tmp_path):
        store_dir = str(tmp_path / "results")
        assert main([*_SWEEP_ARGS, "--workers", "2", "--out", store_dir]) == 0
        first = capsys.readouterr().out
        # 2 protocols x 2 sweep points x 2 trials, one-trial shards.
        assert "8 shard artifacts, 8 new this run" in first

        assert main([*_SWEEP_ARGS, "--out", store_dir, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "8 shard artifacts, 0 new this run" in second

        def table_lines(text):
            return [line for line in text.splitlines() if line.startswith("|")]

        assert table_lines(first) == table_lines(second)

    def test_results_show_store_and_table(self, capsys, tmp_path):
        store_dir = tmp_path / "results"
        assert main([*_SWEEP_ARGS, "--out", str(store_dir)]) == 0
        capsys.readouterr()

        assert main(["results", "show", str(store_dir)]) == 0
        summary = capsys.readouterr().out
        assert "shard artifacts: 8" in summary
        assert "future_rand: 4 shards" in summary
        assert "tables: 1" in summary

        table_path = next((store_dir / "tables").glob("*.json"))
        assert main(["results", "show", str(table_path)]) == 0
        assert "mean_max_abs" in capsys.readouterr().out

    def test_results_merge(self, capsys, tmp_path):
        store_dir = tmp_path / "results"
        assert main([*_SWEEP_ARGS, "--out", str(store_dir)]) == 0
        capsys.readouterr()
        table_path = next((store_dir / "tables").glob("*.json"))
        out_path = tmp_path / "merged.json"
        assert main(
            ["results", "merge", str(out_path), str(table_path), str(table_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "merged 2 tables, 4 rows" in output
        assert out_path.exists()

    def test_run_experiment_with_store(self, capsys, tmp_path):
        store_dir = tmp_path / "e2-artifacts"
        assert main(
            ["run", "E2", "--scale", "small", "--workers", "2",
             "--out", str(store_dir)]
        ) == 0
        assert "fitted exponent" in capsys.readouterr().out
        assert any((store_dir / "shards").glob("*.json"))


class TestErrorPaths:
    """Every failure exits non-zero with a readable message, never a traceback."""

    def test_results_merge_missing_store(self, capsys, tmp_path):
        out_path = tmp_path / "merged.json"
        missing = tmp_path / "no-such-store"
        assert main(["results", "merge", str(out_path), str(missing)]) == 1
        error = capsys.readouterr().err
        assert "no such table file or result store" in error
        assert str(missing) in error
        assert not out_path.exists()

    def test_results_merge_empty_store(self, capsys, tmp_path):
        empty = tmp_path / "empty-store"
        empty.mkdir()
        assert main(["results", "merge", str(tmp_path / "m.json"), str(empty)]) == 1
        error = capsys.readouterr().err
        assert "contains no saved tables" in error

    def test_results_merge_expands_store_directories(self, capsys, tmp_path):
        store_dir = tmp_path / "results"
        assert main([*_SWEEP_ARGS, "--out", str(store_dir)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "merged.json"
        assert main(["results", "merge", str(out_path), str(store_dir)]) == 0
        assert "4 rows" in capsys.readouterr().out
        assert out_path.exists()

    def test_results_merge_unreadable_table(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json at all")
        assert main(["results", "merge", str(tmp_path / "m.json"), str(garbage)]) == 1
        assert "cannot read table" in capsys.readouterr().err

    def test_results_show_missing_path(self, capsys, tmp_path):
        assert main(["results", "show", str(tmp_path / "nope.json")]) == 1
        assert "no such file or result store" in capsys.readouterr().err

    def test_run_protocol_unknown_name_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-protocol", "definitely-not-registered"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice" in error
        assert "future_rand" in error  # the message lists the registry

    def test_chunk_size_zero_is_rejected_with_readable_message(self, capsys):
        for command in (
            ["sweep", "--parameter", "k", "--values", "2", "--chunk-size", "0"],
            ["simulate", "--chunk-size", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(command)
            assert excinfo.value.code == 2
            assert "must be a positive integer" in capsys.readouterr().err

    def test_sweep_chunk_size_with_non_chunkable_protocol(self, capsys):
        code = main(
            ["sweep", "--protocols", "erlingsson", "--parameter", "k",
             "--values", "2", "--n", "200", "--d", "8", "--trials", "1",
             "--chunk-size", "64"]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "not support --chunk-size" in error
        assert "future_rand" in error  # names the chunk-aware alternatives


class TestChunkSize:
    def test_simulate_chunked_future_rand(self, capsys):
        assert main(
            ["simulate", "--n", "1500", "--d", "16", "--k", "3",
             "--chunk-size", "256"]
        ) == 0
        assert "max |error|" in capsys.readouterr().out

    def test_simulate_chunked_with_consistency(self, capsys):
        assert main(
            ["simulate", "--n", "1000", "--d", "16", "--k", "2",
             "--chunk-size", "128", "--consistency"]
        ) == 0
        assert "max |error|" in capsys.readouterr().out

    def test_simulate_chunked_non_chunkable_protocol(self, capsys):
        assert main(
            ["simulate", "--protocol", "memoization", "--n", "500", "--d", "16",
             "--chunk-size", "64"]
        ) == 2
        assert "does not support --chunk-size" in capsys.readouterr().err

    def test_sweep_chunked(self, capsys):
        assert main(
            ["sweep", "--parameter", "k", "--values", "2", "4", "--n", "400",
             "--d", "16", "--trials", "1", "--chunk-size", "128"]
        ) == 0
        assert "future_rand" in capsys.readouterr().out


class TestItemDomainCli:
    def test_run_protocol_heavy_hitters_with_domain_size(self, capsys):
        assert main(
            ["run-protocol", "heavy_hitters", "--n", "2000", "--d", "4",
             "--k", "1", "--epsilon", "8.0", "--domain-size", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "item domain:  m=32" in out
        assert "top items" in out

    def test_run_protocol_categorical_with_domain_size(self, capsys):
        assert main(
            ["run-protocol", "categorical", "--n", "500", "--d", "8",
             "--k", "2", "--domain-size", "8"]
        ) == 0
        assert "item domain:  m=8" in capsys.readouterr().out

    def test_run_protocol_heavy_hitters_chunked(self, capsys):
        assert main(
            ["run-protocol", "heavy_hitters", "--n", "2000", "--d", "4",
             "--k", "1", "--epsilon", "8.0", "--domain-size", "32",
             "--chunk-size", "512"]
        ) == 0
        assert "item domain" in capsys.readouterr().out

    def test_domain_size_on_boolean_protocol_exits_2(self, capsys):
        code = main(
            ["run-protocol", "future_rand", "--n", "300", "--d", "16",
             "--k", "2", "--domain-size", "64"]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "--domain-size does not apply" in error
        # Lists the item-domain alternatives so the fix is one rename away.
        assert "heavy_hitters" in error and "categorical" in error

    def test_run_protocol_item_streaming(self, capsys):
        assert main(
            ["run-protocol", "hashed_frequency", "--n", "400", "--d", "8",
             "--k", "2", "--domain-size", "16", "--streaming"]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming" in out and "item domain" in out


class TestServeSim:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.scenario is None
        assert args.traffic is None
        assert args.workers == 1
        assert args.no_dedup is False
        assert args.n is None  # scenario presets win unless overridden

    def test_population_path_smoke(self, capsys):
        assert main(
            ["serve-sim", "--n", "800", "--d", "16", "--k", "2",
             "--traffic", "soak", "--progress", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving bounded_change" in out
        assert "traffic=soak" in out
        assert "within the fault-adjusted conformance radius" in out

    def test_scenario_path_with_overrides(self, capsys):
        assert main(
            ["serve-sim", "--scenario", "flash_crowd", "--n", "1000",
             "--d", "16", "--workers", "2", "--progress", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving flash_crowd" in out
        assert "workers=2" in out

    def test_rate_overrides_reach_the_traffic_model(self, capsys):
        assert main(
            ["serve-sim", "--n", "800", "--d", "16", "--k", "2",
             "--duplicate-rate", "0.2", "--no-dedup", "--progress", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "dedup=off" in out
        assert "duplicate" in out

    def test_faults_flag_drills_recovery(self, capsys):
        assert main(
            ["serve-sim", "--n", "800", "--d", "16", "--k", "2",
             "--faults", "chaos", "--progress", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "supervision:" in out
        assert "simulated backoff" in out
        assert "within the fault-adjusted conformance radius" in out

    def test_fault_free_run_prints_no_supervision_line(self, capsys):
        assert main(
            ["serve-sim", "--n", "800", "--d", "16", "--k", "2",
             "--progress", "0"]
        ) == 0
        assert "supervision:" not in capsys.readouterr().out

    def test_journal_kill_resume_round_trip(self, capsys, tmp_path):
        journal = tmp_path / "journal"
        # d=32 so the default snapshot cadence (16) leaves a mid-run
        # snapshot for the resume to restart from.
        base = ["serve-sim", "--n", "800", "--d", "32", "--k", "2",
                "--progress", "0", "--journal", str(journal)]
        assert main(base) == 0
        capsys.readouterr()
        # A second run without --resume must refuse to clobber the journal.
        assert main(base) == 1
        assert "resume" in capsys.readouterr().err
        assert main([*base, "--resume"]) == 0
        assert "resumed from the journal" in capsys.readouterr().out

    def test_resume_without_journal_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--n", "800", "--d", "16", "--k", "2",
                  "--resume"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "--journal" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--drop-rate", "1.5"),
            ("--drop-rate", "1"),
            ("--late-rate", "-0.1"),
            ("--duplicate-rate", "nan"),
            ("--duplicate-rate", "often"),
            ("--progress", "-3"),
            ("--progress", "2.5"),
        ],
    )
    def test_bad_flag_values_exit_2_naming_the_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-sim", "--n", "800", "--d", "16", "--k", "2",
                  flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_unknown_fault_model_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--faults", "nope"])

    def test_unknown_scenario_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--scenario", "nope"])

    def test_unknown_traffic_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--traffic", "nope"])

    def test_heavy_domain_is_not_servable(self):
        # heavy_domain states hold item ids, not ±1 reports; the parser
        # never offers it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--scenario", "heavy_domain"])
