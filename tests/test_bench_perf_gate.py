"""Tests for the CI perf-regression comparator (benchmarks/check_perf_regression.py)."""

import copy
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_perf_regression
from check_perf_regression import (MIN_SKIP_RATE, PHASE4_KEY,
                                   RESUME_RSS_SLACK_KB, RESUME_RSS_TOLERANCE,
                                   compare_dirty_scheduling,
                                   compare_fingerprints,
                                   compare_incremental_parity,
                                   compare_million_tier, compare_phase4,
                                   compare_phase24, compare_phase45,
                                   compare_recovery, compare_resume,
                                   compare_resume_rss, compare_serving)


def _report(phase4_seconds, fingerprint="abc", phase45_seconds=None,
            phase24_seconds=None, parity=None):
    report = {"pipeline": {"phase_seconds": {PHASE4_KEY: phase4_seconds},
                           "graph_fingerprint": fingerprint}}
    update = {}
    if phase45_seconds is not None:
        update["phase45_seconds"] = phase45_seconds
    if phase24_seconds is not None:
        update["phase24_seconds"] = phase24_seconds
    if parity is not None:
        update["incremental_fingerprints_match"] = parity
    if update:
        report["update_workload"] = update
    return report


class TestComparePhase4:
    def test_within_tolerance_passes(self):
        ok, _ = compare_phase4(_report(1.0), _report(1.15), tolerance=0.20)
        assert ok

    def test_improvement_passes(self):
        ok, _ = compare_phase4(_report(1.0), _report(0.4), tolerance=0.20)
        assert ok

    def test_regression_beyond_tolerance_fails(self):
        ok, message = compare_phase4(_report(1.0), _report(1.3), tolerance=0.20)
        assert not ok
        assert "REGRESSION" in message

    def test_boundary_exactly_at_tolerance_passes(self):
        ok, _ = compare_phase4(_report(1.0), _report(1.2), tolerance=0.20)
        assert ok

    def test_zero_baseline_does_not_divide(self):
        ok, _ = compare_phase4(_report(0.0), _report(1.0), tolerance=0.20)
        assert ok


class TestComparePhase45:
    def test_within_tolerance_passes(self):
        ok, _ = compare_phase45(_report(1.0, phase45_seconds=5.0),
                                _report(1.0, phase45_seconds=5.5), tolerance=0.20)
        assert ok

    def test_regression_beyond_tolerance_fails(self):
        ok, message = compare_phase45(_report(1.0, phase45_seconds=5.0),
                                      _report(1.0, phase45_seconds=6.5),
                                      tolerance=0.20)
        assert not ok
        assert "REGRESSION" in message

    def test_missing_baseline_section_skips(self):
        """Old baselines (pre-update-workload) must not fail the gate."""
        ok, message = compare_phase45(_report(1.0),
                                      _report(1.0, phase45_seconds=6.5),
                                      tolerance=0.20)
        assert ok
        assert "skipped" in message

    def test_missing_fresh_section_fails(self):
        """HEAD always emits the section; a missing one means the bench broke."""
        ok, message = compare_phase45(_report(1.0, phase45_seconds=5.0),
                                      _report(1.0), tolerance=0.20)
        assert not ok
        assert "FRESH" in message

    def test_missing_fresh_key_fails(self):
        """A present section without the gated key must not read as a pass."""
        baseline = _report(1.0, phase45_seconds=5.0)
        fresh = _report(1.0)
        fresh["update_workload"] = {"dense": {}, "sparse": {}}
        ok, message = compare_phase45(baseline, fresh, tolerance=0.20)
        assert not ok
        assert "phase45_seconds" in message

    def test_zero_baseline_does_not_divide(self):
        ok, _ = compare_phase45(_report(1.0, phase45_seconds=0.0),
                                _report(1.0, phase45_seconds=1.0), tolerance=0.20)
        assert ok


class TestComparePhase24:
    def test_regression_beyond_tolerance_fails(self):
        ok, message = compare_phase24(_report(1.0, phase24_seconds=5.0),
                                      _report(1.0, phase24_seconds=6.5),
                                      tolerance=0.20)
        assert not ok
        assert "REGRESSION" in message

    def test_within_tolerance_passes(self):
        ok, _ = compare_phase24(_report(1.0, phase24_seconds=5.0),
                                _report(1.0, phase24_seconds=5.4),
                                tolerance=0.20)
        assert ok

    def test_old_baseline_skips(self):
        ok, message = compare_phase24(_report(1.0),
                                      _report(1.0, phase24_seconds=9.0),
                                      tolerance=0.20)
        assert ok
        assert "skipped" in message

    def test_old_fresh_report_skips(self):
        ok, message = compare_phase24(_report(1.0, phase24_seconds=5.0),
                                      _report(1.0), tolerance=0.20)
        assert ok
        assert "skipped" in message


class TestIncrementalParity:
    def test_matching_fingerprints_pass(self):
        ok, _ = compare_incremental_parity(_report(1.0, parity=True))
        assert ok

    def test_diverging_fingerprints_fail(self):
        ok, message = compare_incremental_parity(_report(1.0, parity=False))
        assert not ok
        assert "DIVERGE" in message

    def test_pre_incremental_report_skips(self):
        ok, message = compare_incremental_parity(_report(1.0))
        assert ok
        assert "skipped" in message


class TestCompareResume:
    @staticmethod
    def _resume_section(full_copy=False, matches=True, linked=1000,
                        linkable=1000):
        return {"resume": {"full_profile_copy": full_copy,
                           "resumed_fingerprint_matches": matches,
                           "linked_files": 8, "linked_bytes": linked,
                           "linkable_bytes": linkable, "copied_bytes": 64,
                           "resume_seconds": 0.01, "peak_rss_kb_delta": 128}}

    def test_zero_copy_resume_passes(self):
        ok, message = compare_resume(self._resume_section())
        assert ok
        assert "hard-linked" in message

    def test_materialised_copy_fails(self):
        ok, message = compare_resume(self._resume_section(full_copy=True,
                                                          linked=0))
        assert not ok
        assert "MATERIALISED" in message

    def test_fingerprint_divergence_fails(self):
        ok, message = compare_resume(self._resume_section(matches=False))
        assert not ok
        assert "DIVERGES" in message

    def test_missing_fresh_section_fails(self):
        """HEAD's suite always emits the section; losing it must not read
        as a silent pass."""
        ok, message = compare_resume(_report(1.0))
        assert not ok
        assert "FRESH" in message


class TestCompareResumeRss:
    """The resume peak-RSS gate: ratio-plus-slack, baseline-skippable."""

    @staticmethod
    def _with_rss(delta):
        return {"resume": {"peak_rss_kb_delta": delta}}

    def test_unchanged_rss_passes(self):
        ok, message = compare_resume_rss(self._with_rss(37728),
                                         self._with_rss(37728))
        assert ok
        assert "within limit" in message

    def test_growth_within_limit_passes(self):
        baseline = 37728
        limit = baseline * (1.0 + RESUME_RSS_TOLERANCE) + RESUME_RSS_SLACK_KB
        ok, _ = compare_resume_rss(self._with_rss(baseline),
                                   self._with_rss(int(limit)))
        assert ok

    def test_growth_beyond_limit_fails(self):
        baseline = 37728
        limit = baseline * (1.0 + RESUME_RSS_TOLERANCE) + RESUME_RSS_SLACK_KB
        ok, message = compare_resume_rss(self._with_rss(baseline),
                                         self._with_rss(int(limit) + 1))
        assert not ok
        assert "REGRESSION" in message

    def test_small_baseline_protected_by_absolute_slack(self):
        """RSS noise on a tiny baseline must not trip the ratio alone."""
        ok, _ = compare_resume_rss(self._with_rss(100),
                                   self._with_rss(100 + RESUME_RSS_SLACK_KB))
        assert ok

    def test_old_baseline_skips(self):
        ok, message = compare_resume_rss({"resume": {}},
                                         self._with_rss(999999))
        assert ok
        assert "skipped" in message

    def test_missing_fresh_value_fails(self):
        """The bench dropping the measurement must not read as a pass."""
        ok, message = compare_resume_rss(self._with_rss(37728),
                                         {"resume": {}})
        assert not ok
        assert "FRESH" in message


class TestCompareServing:
    """The serving load-bench gate: availability, isolation, backpressure."""

    @staticmethod
    def _section(failures=0, isolation=True, shed=28200,
                 during_refresh=815067, min_refresh=2.39):
        return {"serving": {
            "queries": 843435,
            "query_failures": failures,
            "queries_during_refresh": during_refresh,
            "p99_sustained_seconds": 1.2e-05,
            "p99_burst_seconds": 1.2e-05,
            "min_refresh_seconds": min_refresh,
            "burst_shed_changes": shed,
            "snapshot_isolation_proven": isolation,
        }}

    def test_healthy_section_passes(self):
        ok, message = compare_serving(self._section())
        assert ok
        assert "0 failed" in message
        assert "shed" in message

    def test_missing_section_fails(self):
        ok, message = compare_serving({})
        assert not ok
        assert "FRESH" in message

    def test_any_failed_read_fails(self):
        ok, message = compare_serving(self._section(failures=1))
        assert not ok
        assert "failed reads" in message

    def test_missing_failure_count_fails(self):
        """A section without the SLO counter must not read as zero failures."""
        section = self._section()
        del section["serving"]["query_failures"]
        ok, _ = compare_serving(section)
        assert not ok

    def test_unproven_isolation_fails(self):
        ok, message = compare_serving(self._section(isolation=False))
        assert not ok
        assert "UNPROVEN" in message

    def test_nothing_shed_fails(self):
        ok, message = compare_serving(self._section(shed=0))
        assert not ok
        assert "shed nothing" in message


class TestCompareRecovery:
    @staticmethod
    def _recovery_section(matches=True):
        return {"recovery": {"recovered_fingerprint_matches": matches,
                             "recover_seconds": 0.05, "wal_replayed": 100,
                             "resumed_at_iteration": 2}}

    def test_matching_recovery_passes(self):
        ok, message = compare_recovery(self._recovery_section())
        assert ok
        assert "fingerprint matches" in message

    def test_fingerprint_divergence_fails(self):
        ok, message = compare_recovery(self._recovery_section(matches=False))
        assert not ok
        assert "DIVERGES" in message

    def test_missing_fresh_section_fails(self):
        """HEAD's suite always emits the section; losing it must not read
        as a silent pass."""
        ok, message = compare_recovery(_report(1.0))
        assert not ok
        assert "FRESH" in message


class TestCompareDirtyScheduling:
    """The dirty-scheduling gate: parity is hard-failed, never warned."""

    @staticmethod
    def _section(fingerprints=True, profiles=True, skip_rate=0.78):
        return {"dirty_scheduling": {
            "fingerprints_match": fingerprints,
            "profiles_match": profiles,
            "min_skip_rate": skip_rate,
            "phase4_seconds_full": 1.0,
            "phase4_seconds_dirty": 0.4,
        }}

    def test_matching_section_passes(self):
        ok, message = compare_dirty_scheduling(self._section())
        assert ok
        assert "skip rate" in message

    def test_missing_section_fails(self):
        ok, message = compare_dirty_scheduling({})
        assert not ok
        assert "missing" in message

    def test_fingerprint_divergence_fails(self):
        ok, message = compare_dirty_scheduling(self._section(fingerprints=False))
        assert not ok
        assert "DIVERGE" in message

    def test_profile_byte_divergence_fails(self):
        ok, message = compare_dirty_scheduling(self._section(profiles=False))
        assert not ok
        assert "profile bytes" in message

    def test_skip_rate_below_floor_fails(self):
        ok, message = compare_dirty_scheduling(
            self._section(skip_rate=MIN_SKIP_RATE - 0.01))
        assert not ok
        assert "skip rate" in message

    def test_exactly_at_the_floor_passes(self):
        ok, _ = compare_dirty_scheduling(self._section(skip_rate=MIN_SKIP_RATE))
        assert ok

    def test_missing_skip_rate_fails(self):
        ok, _ = compare_dirty_scheduling(self._section(skip_rate=None))
        assert not ok


class TestCompareMillionTier:
    """The optional 1M-user tier: checked only when a report carries it."""

    def test_completed_million_tier_passes(self):
        """A budget breach raises inside the bench, so a recorded tier ran
        within its partition-cache budget."""
        million = {"load_unload_operations": 4156, "phase4_seconds": 1.8,
                   "memory_budget_bytes": 8000000}
        ok, message = compare_million_tier({"sharded_million": million})
        assert ok
        assert "1M-user tier ok" in message

    def test_million_tier_without_load_unloads_fails(self):
        million = {"load_unload_operations": 0,
                   "memory_budget_bytes": 8000000}
        ok, message = compare_million_tier({"sharded_million": million})
        assert not ok
        assert "1M-user" in message

    def test_absent_million_tier_is_not_required(self):
        """Default runs do not carry the tier; its absence must not fail."""
        ok, message = compare_million_tier({})
        assert ok
        assert "not run" in message


class TestCompareFingerprints:
    def test_unchanged(self):
        same, _ = compare_fingerprints(_report(1.0, "aaa"), _report(1.0, "aaa"))
        assert same

    def test_changed_is_flagged(self):
        same, message = compare_fingerprints(_report(1.0, "aaa"), _report(1.0, "bbb"))
        assert not same
        assert "CHANGED" in message


def test_the_committed_baseline_gates_a_report_of_todays_shape(
        tmp_path, monkeypatch):
    """``BENCH_perf.json`` still carries the retired transport sections
    (``sharded``, ``thread_sweep``, ``backend_sweep``); a fresh report
    from today's suite has none of them, and the gate passes it."""
    baseline_path = REPO_ROOT / "BENCH_perf.json"
    fresh = copy.deepcopy(json.loads(baseline_path.read_text()))
    for section in ("sharded", "thread_sweep", "backend_sweep"):
        fresh.pop(section, None)
    fresh_path = tmp_path / "fresh.json"
    fresh_path.write_text(json.dumps(fresh))
    monkeypatch.setattr(sys, "argv", [
        "check_perf_regression.py", "--baseline", str(baseline_path),
        "--fresh", str(fresh_path)])
    assert check_perf_regression.main() == 0
