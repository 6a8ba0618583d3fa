"""Rule-family tests over the seeded fixtures, plus the repo-clean gate."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import (
    Baseline,
    analyze_files,
    default_package_path,
    exit_code,
)

#: Every rule id the seeded bad-kernel fixture must trigger.
EXPECTED_BAD_RULES = {
    "purity.inplace-write",
    "purity.mutating-call",
    "purity.module-state",
    "determinism.unseeded-rng",
    "determinism.host-time",
    "determinism.id-key",
    "determinism.set-iteration",
    "concurrency.self-mutation",
    "concurrency.global-write",
    "concurrency.lock-discipline",
    "concurrency.unlocked-shared-state",
}


class TestSeededFixtures:
    def test_bad_kernel_triggers_every_rule_family(self, bad_kernel_path):
        report = analyze_files([bad_kernel_path])
        assert report.rules == EXPECTED_BAD_RULES

    def test_bad_kernel_fails_the_exit_convention(self, bad_kernel_path):
        report = analyze_files([bad_kernel_path])
        assert report.has_errors
        assert exit_code(report) == 1

    def test_findings_carry_file_and_line(self, bad_kernel_path):
        report = analyze_files([bad_kernel_path])
        for diag in report:
            assert diag.file and diag.file.endswith("bad_kernel.py")
            assert diag.line is not None and diag.line > 0

    def test_clean_kernel_is_silent(self, clean_kernel_path):
        report = analyze_files([clean_kernel_path])
        assert len(report) == 0
        assert exit_code(report, strict=True) == 0


class TestRepoIsClean:
    """The acceptance gate: ``repro analyze --strict`` on the installed
    package must exit 0 with zero unsuppressed findings."""

    def test_installed_package_analyzes_clean_strict(self):
        report = analyze_files([default_package_path()])
        assert report.format() == ""
        assert exit_code(report, strict=True) == 0

    def test_host_only_modules_keep_their_clock_allowance(self):
        # observe/bench legitimately read the host clock; the
        # allowlist must keep them out of determinism.host-time.
        report = analyze_files([default_package_path()])
        assert not report.by_rule("determinism.host-time")


class TestBaseline:
    def test_round_trip_and_split(self, bad_kernel_path, tmp_path):
        report = analyze_files([bad_kernel_path])
        baseline = Baseline.from_report(report)
        path = tmp_path / "baseline.json"
        path.write_text(baseline.to_json())
        kept, suppressed = Baseline.load(path).split(report)
        assert len(kept) == 0
        assert len(suppressed) == len(report)
        assert exit_code(kept, strict=True) == 0

    def test_partial_baseline_keeps_other_findings(self, bad_kernel_path, tmp_path):
        report = analyze_files([bad_kernel_path])
        path = tmp_path / "baseline.json"
        path.write_text(
            '{"suppressions": [{"rule": "purity.inplace-write", '
            f'"file": "{bad_kernel_path}"}}]}}'
        )
        kept, suppressed = Baseline.load(path).split(report)
        assert {d.rule for d in suppressed} == {"purity.inplace-write"}
        assert "purity.mutating-call" in {d.rule for d in kept}

    def test_suffix_path_matching(self, bad_kernel_path):
        # A baseline written with repo-relative paths still applies when
        # the analyzer runs over absolute paths.
        report = analyze_files([Path(bad_kernel_path).resolve()])
        baseline = Baseline(
            [
                type(s)(rule=s.rule, file="tests/analysis/fixtures/bad_kernel.py")
                for s in Baseline.from_report(report).suppressions
            ]
        )
        kept, __ = baseline.split(report)
        assert len(kept) == 0

    def test_malformed_baseline_raises(self, tmp_path):
        from repro.errors import AnalysisError

        import pytest

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AnalysisError):
            Baseline.load(path)
