"""The bench engine and the ``repro bench`` / ``--kernel`` CLI surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BENCH_SEED_SCHEME,
    HEADLINE_POINT,
    bench_grid as _bench_grid,  # aliased: pytest.ini collects bench_* names
    bench_rng as _bench_rng,
    format_bench_table,
    format_protocol_bench_table,
    headline_speedup,
    protocol_bench_grid as _protocol_bench_grid,
    run_kernel_bench,
    run_protocol_bench,
    sparse_sign_matrix,
    write_bench_report,
)
from repro.cli import build_parser, main


class TestBenchEngine:
    def test_grid_scales(self):
        assert _bench_grid("smoke")
        quick = _bench_grid("quick")
        assert [
            {key: point[key] for key in HEADLINE_POINT} for point in quick
        ] == [HEADLINE_POINT]
        full = _bench_grid("full")
        assert len(full) > len(quick)
        assert any(
            all(point[key] == HEADLINE_POINT[key] for key in HEADLINE_POINT)
            for point in full
        ), "the full grid must include the headline point"
        with pytest.raises(ValueError, match="scale"):
            _bench_grid("huge")

    def test_sparse_sign_matrix_shape_and_sparsity(self):
        matrix = sparse_sign_matrix(50, 32, 4, np.random.default_rng(0))
        assert matrix.shape == (50, 32)
        assert matrix.dtype == np.int8
        assert set(np.unique(matrix)) <= {-1, 0, 1}
        assert (np.count_nonzero(matrix, axis=1) <= 4).all()
        assert np.count_nonzero(matrix) > 0

    def test_smoke_payload_structure(self):
        payload = run_kernel_bench(scale="smoke", seed=3)
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["benchmark"] == "randomize_matrix"
        kernels = {row["kernel"] for row in payload["results"]}
        assert kernels == {"reference", "fast"}
        for row in payload["results"]:
            assert row["seconds"] > 0
            assert row["ns_per_report"] > 0
        assert len(payload["speedups"]) == 1
        assert payload["speedups"][0]["speedup"] > 0
        # smoke doesn't measure the headline point, so no headline speedup
        assert payload["headline_speedup"] is None
        assert headline_speedup(payload) is None
        assert "git_sha" in payload and payload["git_sha"]

    def test_write_report_round_trips(self, tmp_path):
        payload = run_kernel_bench(scale="smoke", seed=1)
        path = write_bench_report(payload, tmp_path / "sub" / "BENCH_kernels.json")
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(payload))

    def test_format_table_mentions_kernels(self):
        payload = run_kernel_bench(scale="smoke", seed=2)
        text = format_bench_table(payload)
        assert "reference" in text and "fast" in text and "speedup" in text


class TestBenchSeedTree:
    """The v2 seed scheme: keyed SeedSequence leaves, no offset arithmetic."""

    def test_leaves_are_pinned(self):
        # Regression pins for the schema-2 seed derivation: if these move,
        # every archived BENCH_*.json seed becomes unreproducible — bump
        # BENCH_SCHEMA_VERSION and say so in the provenance block.
        assert list(_bench_rng(0, 0, 0).integers(0, 2**31, 4)) == [
            36989502, 1213611225, 1953115865, 2008827365,
        ]
        assert list(_bench_rng(0, 0, 1).integers(0, 2**31, 4)) == [
            1281360082, 783408694, 811107819, 2019249523,
        ]
        assert list(_bench_rng(7, 1, 2).integers(0, 2**31, 4)) == [
            1283693412, 1028419496, 716457693, 303220593,
        ]

    def test_leaves_are_reconstructible_and_distinct(self):
        a = _bench_rng(5, 2, 3).integers(0, 2**63, 8)
        b = _bench_rng(5, 2, 3).integers(0, 2**63, 8)
        assert (a == b).all(), "the same leaf must always yield the same stream"
        for other in [(5, 2, 4), (5, 3, 3), (6, 2, 3)]:
            c = _bench_rng(*other).integers(0, 2**63, 8)
            assert not (a == c).all(), f"leaf {other} must differ from (5, 2, 3)"

    def test_payloads_record_the_scheme(self):
        assert BENCH_SCHEMA_VERSION == 2
        kernel_payload = run_kernel_bench(scale="smoke", seed=0)
        assert kernel_payload["seed_scheme"] == BENCH_SEED_SCHEME
        protocol_payload = run_protocol_bench(scale="smoke", seed=0)
        assert protocol_payload["seed_scheme"] == BENCH_SEED_SCHEME

    def test_protocol_bench_is_deterministic(self):
        def errors(payload):
            return [
                (row["protocol"], row["max_abs_error"], row["mean_abs_error"])
                for row in payload["results"]
            ]

        first = run_protocol_bench(scale="smoke", seed=11)
        second = run_protocol_bench(scale="smoke", seed=11)
        assert errors(first) == errors(second)


class TestProtocolBench:
    def test_grid_scales(self):
        assert _protocol_bench_grid("smoke")
        assert len(_protocol_bench_grid("full")) > len(_protocol_bench_grid("quick"))
        with pytest.raises(ValueError, match="scale"):
            _protocol_bench_grid("huge")

    def test_smoke_payload_covers_every_registry_entry(self):
        from repro.protocols import PROTOCOLS

        payload = run_protocol_bench(scale="smoke", seed=0)
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["benchmark"] == "protocols"
        assert payload["protocols"] == sorted(PROTOCOLS)
        covered = {row["protocol"] for row in payload["results"]}
        assert covered == set(PROTOCOLS)
        for row in payload["results"]:
            assert row["seconds"] > 0
            assert row["max_abs_error"] >= row["mean_abs_error"] >= 0
            assert row["expected_report_bits"] > 0
            assert row["c_gap"] > 0
        assert "git_sha" in payload and payload["git_sha"]

    def test_rows_at_a_point_share_the_workload_grid(self):
        payload = run_protocol_bench(scale="smoke", seed=1)
        points = {
            (row["n"], row["d"], row["k"], row["epsilon"])
            for row in payload["results"]
        }
        assert len(points) == len(_protocol_bench_grid("smoke"))

    def test_format_table_lists_protocols(self):
        payload = run_protocol_bench(scale="smoke", seed=2)
        text = format_protocol_bench_table(payload)
        assert "central_tree" in text and "future_rand" in text
        assert "bits/user" in text

    def test_write_report_round_trips(self, tmp_path):
        payload = run_protocol_bench(scale="smoke", seed=3)
        path = write_bench_report(payload, tmp_path / "BENCH_protocols.json")
        assert json.loads(path.read_text()) == json.loads(json.dumps(payload))

    def test_cli_mode_protocols_emits_json(self, capsys, tmp_path):
        out = tmp_path / "BENCH_protocols.json"
        assert main(
            ["bench", "--mode", "protocols", "--scale", "smoke", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "protocols"
        assert "protocol" in capsys.readouterr().out

    def test_cli_mode_protocols_retargets_default_out(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--mode", "protocols", "--scale", "smoke"]) == 0
        assert (tmp_path / "BENCH_protocols.json").exists()
        assert not (tmp_path / "BENCH_kernels.json").exists()


class TestBenchCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.scale == "quick"
        assert args.out == "BENCH_kernels.json"
        assert args.assert_speedup == "auto"

    @pytest.mark.parametrize(
        "argv", [["chaos"], ["bench", "--mode", "service"]]
    )
    def test_retired_service_commands_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_bench_smoke_emits_json(self, capsys, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        assert main(["bench", "--scale", "smoke", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["scale"] == "smoke"
        assert "randomize_matrix" in capsys.readouterr().out

    def test_bench_assert_on_without_headline_fails(self, capsys, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        code = main(
            [
                "bench", "--scale", "smoke", "--out", str(out),
                "--assert-speedup", "on",
            ]
        )
        assert code == 1
        assert out.exists(), "JSON must be emitted even when the assert fails"
        assert "headline" in capsys.readouterr().err

    def test_bench_assert_off_always_passes(self, tmp_path):
        out = tmp_path / "BENCH_kernels.json"
        assert main(
            [
                "bench", "--scale", "smoke", "--out", str(out),
                "--assert-speedup", "off",
            ]
        ) == 0


class TestKernelCli:
    def test_simulate_fast_kernel(self, capsys):
        assert main(
            [
                "simulate", "--protocol", "future_rand", "--n", "400",
                "--d", "16", "--k", "2", "--kernel", "fast",
            ]
        ) == 0
        assert "future_rand" in capsys.readouterr().out

    def test_simulate_fast_kernel_chunked(self, capsys):
        assert main(
            [
                "simulate", "--protocol", "future_rand", "--n", "400",
                "--d", "16", "--k", "2", "--kernel", "fast",
                "--chunk-size", "128",
            ]
        ) == 0

    def test_simulate_kernel_unaware_protocol_exits_2(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "erlingsson", "--n", "200",
                "--d", "16", "--k", "2", "--kernel", "fast",
            ]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "does not support --kernel" in error
        assert "future_rand" in error  # lists the kernel-aware protocols

    def test_unknown_kernel_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--kernel", "turbo"]
            )

    def test_sweep_fast_kernel(self, capsys):
        assert main(
            [
                "sweep", "--protocols", "future_rand", "--parameter", "k",
                "--values", "2", "--n", "300", "--d", "16", "--trials", "1",
                "--kernel", "fast",
            ]
        ) == 0
        assert "future_rand" in capsys.readouterr().out

    def test_sweep_kernel_unaware_protocol_exits_2(self, capsys):
        code = main(
            [
                "sweep", "--protocols", "memoization", "--parameter", "k",
                "--values", "2", "--n", "300", "--d", "16", "--trials", "1",
                "--kernel", "fast",
            ]
        )
        assert code == 2
        assert "do(es) not support --kernel" in capsys.readouterr().err

    def test_simulate_fast_kernel_streaming(self, capsys):
        assert main(
            [
                "simulate", "--protocol", "future_rand", "--n", "300",
                "--d", "16", "--k", "2", "--kernel", "fast", "--streaming",
            ]
        ) == 0
        assert "streaming" in capsys.readouterr().out

    def test_simulate_streaming_chunked_fast_kernel(self, capsys):
        """The session path with both options: the chunked b~ pre-draw
        under the fast kernel."""
        assert main(
            [
                "simulate", "--protocol", "future_rand", "--n", "300",
                "--d", "16", "--k", "2", "--streaming", "--chunk-size", "64",
                "--kernel", "fast",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming future_rand over 16 periods (n=300)" in out
        assert "t=   16  estimate=" in out

    def test_sweep_kernel_unaware_erlingsson_exits_2(self, capsys):
        code = main(
            [
                "sweep", "--kernel", "fast", "--protocols", "erlingsson",
                "--parameter", "k", "--values", "2", "--n", "300",
                "--d", "16", "--trials", "1",
            ]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "erlingsson do(es) not support --kernel" in error
        assert "future_rand" in error  # lists the kernel-aware protocols

    def test_simulate_kernel_unaware_central_tree_exits_2(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "central_tree", "--n", "300",
                "--d", "16", "--k", "2", "--kernel", "fast",
            ]
        )
        assert code == 2
