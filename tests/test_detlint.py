"""detlint test suite: fixture corpus, pragmas, CLI contract, live-tree gate.

The fixture corpus under ``tests/detlint_fixtures/`` holds one firing and
one non-firing file per rule; the directory is excluded from directory
walks (so the CI gate over ``tests`` never sees it) and linted here by
explicit path.  The meta-test at the bottom is the tier-1 gate: the live
tree must stay detlint-clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    ALLOWLIST,
    LintConfig,
    allowlisted,
    collect_files,
    lint_paths,
    lint_source,
    rule_table,
)
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "detlint_fixtures"

RULE_IDS = tuple(rule.id for rule in ALL_RULES)


def lint_fixture(name: str, **config) -> "LintResult":
    return lint_paths([str(FIXTURES / name)], LintConfig(**config))


# ---------------------------------------------------------------------------
# fixture corpus: every rule has a firing and a non-firing file
# ---------------------------------------------------------------------------


class TestFixtureCorpus:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_firing_fixture_fires_exactly_its_rule(self, rule_id):
        name = f"det{rule_id[3:]}_fire.py"
        result = lint_fixture(name)
        assert result.findings, f"{name} should produce findings"
        assert {f.rule for f in result.findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_fixture_is_clean(self, rule_id):
        name = f"det{rule_id[3:]}_clean.py"
        result = lint_fixture(name)
        assert result.findings == [], [f.message for f in result.findings]

    def test_det001_counts_each_wallclock_call(self):
        result = lint_fixture("det001_fire.py")
        assert len(result.findings) == 3
        assert {f.symbol for f in result.findings} == {"time", "perf_counter", "now"}

    def test_det005_distinguishes_gate_and_mutation(self):
        result = lint_fixture("det005_fire.py")
        symbols = [f.symbol for f in result.findings]
        assert symbols.count("check") == 1  # the ungated call
        assert symbols.count("mutation-before-gate") == 2

    def test_det008_distinguishes_gate_and_mutation(self):
        result = lint_fixture("det008_fire.py")
        symbols = [f.symbol for f in result.findings]
        assert symbols.count("channel_op") == 1  # the ungated call
        assert symbols.count("mutation-before-gate") == 2

    def test_det008_only_bites_in_cloud_services(self):
        # The serving layer holds `tracer` in plain locals without the gate
        # idiom (it builds the tracer itself); DET008 is scoped to cloud/.
        ungated = (
            "class C:\n"
            "    def f(self, clock):\n"
            "        self._telemetry.tracer.channel_op('q', 'op', 'r', clock.now)\n"
        )
        assert lint_source(ungated, "src/repro/serving/server.py").findings == []
        assert lint_source(ungated, "src/repro/cloud/queues.py").findings != []

    def test_det007_flags_each_container_kind(self):
        result = lint_fixture("det007_fire.py")
        assert {f.symbol for f in result.findings} == {
            "RESULTS",
            "SETTINGS",
            "SEEN",
            "_RECENT",
            "_BY_KIND",
            "_PLANS",
        }

    def test_scope_gating_out_of_role_files_do_not_fire(self):
        # The same wall-clock/unsorted/ungated code outside its role's path
        # scope is not a finding: DET001 only bites in src/repro, DET004 only
        # in fingerprint modules, DET005 only in cloud services.
        wallclock = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(wallclock, "benchmarks/bench_something.py").findings == []
        keys_iter = "def f(d):\n    return [k for k in d.keys()]\n"
        assert lint_source(keys_iter, "src/repro/scenarios/processes.py").findings == []
        # ...while every module that builds a hashed report is in DET004's scope.
        for hashed in ("serving/server.py", "concurrency/arbiter.py", "planner/search.py"):
            findings = lint_source(keys_iter, f"src/repro/{hashed}").findings
            assert [f.rule for f in findings] == ["DET004"], hashed
        ungated = (
            "class C:\n"
            "    def f(self, clock):\n"
            "        self._faults.injector.check('q', 'op', 'r', clock.now)\n"
        )
        assert lint_source(ungated, "src/repro/serving/backends.py").findings == []

    def test_fixture_directory_is_excluded_from_walks(self):
        files = collect_files([str(REPO_ROOT / "tests")])
        assert not any("detlint_fixtures" in path for path in files)
        # ...but explicit file arguments are always linted.
        explicit = collect_files([str(FIXTURES / "det001_fire.py")])
        assert len(explicit) == 1


# ---------------------------------------------------------------------------
# pragma suppression
# ---------------------------------------------------------------------------


class TestPragmas:
    WALLCLOCK = "import time\n\n\ndef f():\n    return time.time()\n"
    PATH = "src/repro/fixture/simulated.py"

    def test_same_line_pragma_suppresses(self):
        src = self.WALLCLOCK.replace(
            "return time.time()",
            "return time.time()  # detlint: allow[DET001] host timing is reporting-only here",
        )
        result = lint_source(src, self.PATH)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["DET001"]

    def test_line_above_pragma_suppresses(self):
        src = self.WALLCLOCK.replace(
            "    return time.time()",
            "    # detlint: allow[DET001] host timing is reporting-only here\n"
            "    return time.time()",
        )
        result = lint_source(src, self.PATH)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["DET001"]

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = self.WALLCLOCK.replace(
            "return time.time()",
            "return time.time()  # detlint: allow[DET002] wrong rule id",
        )
        result = lint_source(src, self.PATH)
        assert [f.rule for f in result.findings] == ["DET001"]

    def test_pragma_without_reason_is_det000(self):
        src = self.WALLCLOCK.replace(
            "return time.time()",
            "return time.time()  # detlint: allow[DET001]",
        )
        result = lint_source(src, self.PATH)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["DET000", "DET001"]  # finding NOT suppressed either

    def test_pragma_with_unknown_rule_is_det000(self):
        # Literals are split so this file's own raw lines never look like a
        # DET999 pragma to the linter when the live tree lints itself.
        src = "x = 1  # detlint: " "allow[DET999] no such rule\n"
        result = lint_source(src, self.PATH)
        assert [f.rule for f in result.findings] == ["DET000"]
        assert "DET999" in result.findings[0].message

    def test_det000_itself_cannot_be_suppressed(self):
        src = (
            "# detlint: " "allow[DET000] trying to silence the meta rule\n"
            "x = 1  # detlint: " "allow[DET999] bogus\n"
        )
        result = lint_source(src, self.PATH)
        assert [f.rule for f in result.findings] == ["DET000"]

    def test_multi_rule_pragma(self):
        src = (
            "import time\n"
            "# detlint: allow[DET001,DET002] fixture exercising a multi-rule pragma\n"
            "T = time.time()\n"
        )
        result = lint_source(src, self.PATH)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_no_pragmas_audit_mode(self):
        src = self.WALLCLOCK.replace(
            "return time.time()",
            "return time.time()  # detlint: allow[DET001] suppressed in normal mode",
        )
        result = lint_source(src, self.PATH, LintConfig(use_pragmas=False))
        assert [f.rule for f in result.findings] == ["DET001"]


# ---------------------------------------------------------------------------
# select / ignore
# ---------------------------------------------------------------------------


class TestSelectIgnore:
    SRC = (
        "import time\n"
        "import random\n"
        "\n"
        "\n"
        "def f():\n"
        "    return time.time() + random.random()\n"
    )
    PATH = "src/repro/fixture/simulated.py"

    def test_unfiltered_finds_both(self):
        rules = sorted(f.rule for f in lint_source(self.SRC, self.PATH).findings)
        assert rules == ["DET001", "DET002"]

    def test_select_restricts(self):
        config = LintConfig(select=("DET002",))
        rules = [f.rule for f in lint_source(self.SRC, self.PATH, config).findings]
        assert rules == ["DET002"]

    def test_ignore_removes(self):
        config = LintConfig(ignore=("DET002",))
        rules = [f.rule for f in lint_source(self.SRC, self.PATH, config).findings]
        assert rules == ["DET001"]


# ---------------------------------------------------------------------------
# allowlist
# ---------------------------------------------------------------------------


class TestAllowlist:
    def test_every_entry_has_rationale(self):
        for entry in ALLOWLIST:
            assert entry.rule in set(RULE_IDS)
            assert len(entry.rationale) > 20, entry

    def test_campaign_wallclock_is_allowlisted(self):
        path = str(REPO_ROOT / "src" / "repro" / "experiments" / "campaign.py")
        with_table = lint_paths([path])
        assert all(f.rule != "DET001" for f in with_table.findings)
        audit = lint_paths([path], LintConfig(use_allowlist=False))
        det001 = [f for f in audit.findings if f.rule == "DET001"]
        assert det001 and all(f.symbol == "perf_counter" for f in det001)

    def test_audit_mode_surfaces_every_allowlisted_site(self):
        paths = [str(REPO_ROOT / "src")]
        audit = lint_paths(paths, LintConfig(use_allowlist=False))
        normal = lint_paths(paths)
        # Everything audit mode adds must be covered by the curated table
        # (an entry may cover several findings, e.g. repeated perf_counter).
        assert normal.findings == []
        assert audit.findings and all(allowlisted(f) for f in audit.findings)
        # No stale entries: every allowlist row still matches a live finding.
        for entry in ALLOWLIST:
            assert any(
                f.rule == entry.rule
                and f.path.endswith(entry.path_suffix)
                and f.symbol == entry.symbol
                for f in audit.findings
            ), f"stale allowlist entry: {entry}"


# ---------------------------------------------------------------------------
# CLI: formats, exit codes, JSON schema
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        code = main([str(FIXTURES / "det001_clean.py")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        code = main([str(FIXTURES / "det001_fire.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main(["--select", "DET999", str(FIXTURES)]) == 2

    def test_exit_two_on_missing_path(self, capsys):
        assert main(["no/such/path.py"]) == 2

    def test_json_schema(self, capsys):
        code = main([str(FIXTURES / "det002_fire.py"), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert set(payload["counts"]) == {"DET002"}
        assert payload["suppressed_count"] == 0
        assert payload["allowlisted_count"] == 0
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message", "symbol"}
            assert finding["rule"] == "DET002"
            assert finding["line"] >= 1

    def test_json_clean_output(self, capsys):
        code = main([str(FIXTURES / "det002_clean.py"), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["counts"] == {}

    def test_select_flag(self, capsys):
        code = main([str(FIXTURES / "det002_fire.py"), "--select", "DET001"])
        assert code == 0

    def test_ignore_flag(self, capsys):
        code = main([str(FIXTURES / "det002_fire.py"), "--ignore", "DET002"])
        assert code == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out


# ---------------------------------------------------------------------------
# rule metadata + the live-tree gate
# ---------------------------------------------------------------------------


class TestRuleFramework:
    def test_rule_ids_are_stable_and_unique(self):
        assert RULE_IDS == tuple(f"DET00{i}" for i in range(1, 10))

    def test_every_rule_documents_its_invariant(self):
        for row in rule_table():
            assert row["title"]
            assert len(row["invariant"]) > 40

    def test_every_rule_has_fixture_pair(self):
        for rule_id in RULE_IDS:
            assert (FIXTURES / f"det{rule_id[3:]}_fire.py").is_file()
            assert (FIXTURES / f"det{rule_id[3:]}_clean.py").is_file()


class TestLiveTree:
    def test_live_tree_is_detlint_clean(self):
        """The tier-1 meta-gate: the repo must stay clean under its own linter."""
        paths = [str(REPO_ROOT / part) for part in ("src", "tests", "benchmarks", "examples")]
        result = lint_paths(paths)
        assert result.findings == [], [
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
        ]
        assert result.files_checked > 100
