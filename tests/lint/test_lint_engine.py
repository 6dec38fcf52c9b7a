"""Engine mechanics: walking, scoping, project-rule gating, and the meta-test."""

from __future__ import annotations

import pytest

from repro.lint import Baseline, collect_files, lint_paths, lint_source, repo_root
from repro.lint.checks_project import CapabilityMetadataRule


class TestLintSource:
    def test_syntax_error_becomes_a_finding(self):
        (finding,) = lint_source("def broken(:\n", "src/repro/sim/bad.py")
        assert finding.rule == "PARSE"
        assert finding.line == 1
        assert "parse" in finding.message

    def test_findings_are_sorted_deterministically(self):
        source = (
            "import numpy as np\n"
            "import random\n"
            "b = np.random.default_rng()\n"
            "a = np.random.default_rng()\n"
        )
        findings = lint_source(source, "src/repro/sim/fixture.py")
        assert [f.sort_key() for f in findings] == sorted(
            f.sort_key() for f in findings
        )
        assert [f.rule for f in findings] == ["REP104", "REP101", "REP101"]

    def test_select_narrows_rules(self):
        source = "import numpy as np\nimport random\nr = np.random.default_rng()\n"
        from repro.lint import normalize_selection

        only_104 = normalize_selection(["REP104"], None)
        findings = lint_source(source, "src/repro/sim/fixture.py", only_104)
        assert [f.rule for f in findings] == ["REP104"]


class TestCollectFiles:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no-such"):
            collect_files([tmp_path / "no-such"])

    def test_directories_expand_and_dedupe(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.txt").write_text("not python\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        files = collect_files([tmp_path / "pkg", tmp_path / "pkg" / "a.py"])
        assert files == [(tmp_path / "pkg" / "a.py").resolve()]


class TestProjectRuleGating:
    def test_registry_rule_runs_only_when_anchor_is_linted(self, tmp_path):
        # A path set that does not cover the registry anchor must not import
        # and cross-check the registry.
        module = tmp_path / "clean.py"
        module.write_text("x = 1\n")
        assert lint_paths([module], root=tmp_path) == []

    def test_repo_wide_run_includes_capability_check(self):
        root = repo_root()
        findings = lint_paths(
            [root / "src" / "repro" / "protocols"],
            select=["REP107"],
            root=root,
        )
        assert findings == [], "the live registry must satisfy its own metadata"


class TestCapabilityRule:
    def test_all_registry_entries_are_validated_clean(self):
        from repro.protocols import PROTOCOLS

        rule = CapabilityMetadataRule()
        assert len(PROTOCOLS) == 9
        assert list(rule.check_project(registry=PROTOCOLS)) == []

    def test_flag_without_kwarg_is_flagged(self):
        class Overclaiming:
            name = "overclaiming"
            supports_chunk_size = True
            supports_kernel = True

            def run(self, states, params, rng=None):
                return None

            def prepare(self, params, rng=None):
                return None

        rule = CapabilityMetadataRule()
        findings = list(rule.check_project(registry={"overclaiming": Overclaiming()}))
        messages = " | ".join(f.message for f in findings)
        assert "supports_chunk_size=True but run() does not accept" in messages
        assert "supports_kernel=True" in messages
        assert all(f.rule == "REP107" for f in findings)

    def test_hidden_capability_is_flagged(self):
        class Hiding:
            name = "hiding"
            supports_chunk_size = False
            supports_kernel = False

            def run(self, states, params, rng=None, *, chunk_size=None, kernel=None):
                return None

            def prepare(self, params, rng=None, *, kernel=None):
                return None

        rule = CapabilityMetadataRule()
        findings = list(rule.check_project(registry={"hiding": Hiding()}))
        messages = " | ".join(f.message for f in findings)
        assert "capability is hidden" in messages

    def test_registry_key_name_mismatch_is_flagged(self):
        class Misfiled:
            name = "real_name"
            supports_chunk_size = False
            supports_kernel = False

            def run(self, states, params, rng=None):
                return None

            def prepare(self, params, rng=None):
                return None

        rule = CapabilityMetadataRule()
        findings = list(rule.check_project(registry={"wrong_key": Misfiled()}))
        assert any("disagrees with protocol.name" in f.message for f in findings)


class TestRepoIsClean:
    def test_repo_lints_clean_modulo_baseline(self):
        # The meta-test the issue asks for: `repro lint` over the default
        # path set must produce nothing beyond the checked-in baseline.
        root = repo_root()
        findings = lint_paths([root / "src" / "repro", root / "tests"], root=root)
        new, baselined, stale = Baseline.load(root / "lint-baseline.json").apply(
            findings
        )
        assert new == [], [f.render() for f in new]
        assert stale == [], "baseline entries whose findings were fixed must be pruned"
        assert all(f.rule == "REP102" for f in baselined)
