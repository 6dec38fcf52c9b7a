"""`repro fuzz` CLI: exit codes, error paths, and a small happy path.

Exit-code contract: 2 for usage errors (argparse rejects the invocation
before any work), 1 for runtime failures with a readable message on stderr
(missing/corrupt/empty corpus, bound violations), 0 on success.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.protocol == "future_rand"
        assert args.budget == 48
        assert args.seed == 0
        assert args.workers == 1
        assert args.survivors == 3
        assert args.corpus is None  # replay reads results/fuzz; search needs one
        assert not args.replay
        assert args.kernel is None

    def test_search_without_corpus_exits_2(self, capsys):
        """A search never writes into the committed corpus by default."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--budget", "2"])
        assert excinfo.value.code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_unknown_protocol_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fuzz", "--protocol", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_object_reference_is_not_a_fuzz_target(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fuzz", "--protocol", "future_rand_object"])
        assert excinfo.value.code == 2

    def test_budget_zero_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fuzz", "--budget", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_budget_garbage_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fuzz", "--budget", "lots"])
        assert excinfo.value.code == 2

    def test_unknown_kernel_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fuzz", "--kernel", "warp"])
        assert excinfo.value.code == 2


class TestReplayErrors:
    def test_missing_corpus_dir_exits_1(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--replay", "--corpus", str(tmp_path / "absent")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "does not exist" in err and "repro fuzz" in err

    def test_empty_corpus_exits_1(self, capsys, tmp_path):
        code = main(["fuzz", "--replay", "--corpus", str(tmp_path)])
        assert code == 1
        assert "no entries" in capsys.readouterr().err

    def test_corrupt_corpus_exits_1(self, capsys, tmp_path):
        (tmp_path / f"{'a' * 64}.json").write_text("{broken")
        code = main(["fuzz", "--replay", "--corpus", str(tmp_path)])
        assert code == 1
        assert "not readable JSON" in capsys.readouterr().err

    def test_tampered_entry_exits_1(self, capsys, tmp_path):
        args = [
            "fuzz", "--budget", "2", "--seed", "0", "--trials", "1",
            "--population", "4", "--survivors", "1",
            "--n", "600", "--d", "16", "--k", "2",
            "--corpus", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        (path,) = tmp_path.glob("*.json")
        artifact = json.loads(path.read_text())
        artifact["result"]["observed_max_abs"] = 0.0
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True))
        code = main(["fuzz", "--replay", "--corpus", str(tmp_path)])
        assert code == 1
        assert "checksum" in capsys.readouterr().err


class TestHappyPath:
    def test_fuzz_then_replay_round_trip(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        args = [
            "fuzz", "--budget", "4", "--seed", "0", "--trials", "1",
            "--population", "4", "--survivors", "2",
            "--n", "600", "--d", "16", "--k", "2",
            "--corpus", str(corpus_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "pinned fuzz_" in out
        assert "2 survivors" in out
        assert len(list(corpus_dir.glob("*.json"))) == 2

        assert main(["fuzz", "--replay", "--corpus", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 2
        assert "replayed 2 corpus entries" in out
