"""The invariant lint, proven against a corpus of deliberately-broken fixtures.

Every rule gets at least one failing fixture with an **exact** rule-id and
line assertion — if a rule drifts (wrong id, wrong anchor line, or stops
firing), these tests fail before the CI gate silently weakens.  The
committed tree itself must analyze clean (the smoke test at the bottom),
and the gate wiring (the CI step) is pinned so it cannot be dropped
without a test noticing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import RULE_IDS, analyze
from repro.analysis import crashpoints, deadcode, durability, locks, memmaps, purity
from repro.analysis.runner import (DEFAULT_HOT_LOCKS,
                                   DEFAULT_SANCTIONED_WRITERS, AnalysisConfig,
                                   _discover_tests)
from repro.analysis.sources import (CodeIndex, SourceFile, discover_sources,
                                    literal_tuple_entries)
from repro.analysis.suppress import apply_suppressions, collect_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis_fixtures"


@pytest.fixture(scope="module")
def findex():
    """CodeIndex over the fixture corpus (module names ``fixtures.<stem>``)."""
    sources = [SourceFile.parse(path, f"fixtures.{path.stem}")
               for path in sorted(FIXTURES.glob("*.py"))]
    return CodeIndex.build(sources)


@pytest.fixture(scope="module")
def real_index():
    config = AnalysisConfig.for_repo(REPO_ROOT)
    sources = discover_sources(config.src_root, package=config.package)
    return CodeIndex.build(sources), config


def _real_registry(index, config):
    registry_source = next(s for s in index.sources
                           if s.module == config.fault_registry_module)
    registry = {}
    for constant in config.fault_registry_names:
        for point, line in literal_tuple_entries(registry_source,
                                                 constant).items():
            registry[point] = (registry_source.path, line)
    return registry


# -- purity ------------------------------------------------------------------

def test_purity_flags_wall_clock_at_exact_line(findex):
    manifest = (FIXTURES / "impure_scheduler.py", 1)
    findings = purity.check(findex, {
        "fixtures.impure_scheduler.plan_with_clock": manifest})
    assert [(f.rule_id, f.path.name, f.line) for f in findings] == [
        ("purity", "impure_scheduler.py", 7)]
    assert "time.time" in findings[0].message
    assert "_stamp" in findings[0].message  # the witness call chain


def test_purity_flags_orphaned_manifest_entry(findex):
    manifest = (FIXTURES / "impure_scheduler.py", 3)
    findings = purity.check(findex, {
        "fixtures.impure_scheduler.no_such_planner": manifest})
    assert [(f.rule_id, f.line) for f in findings] == [("purity", 3)]
    assert "matches no function" in findings[0].message


# -- lock discipline ---------------------------------------------------------

def test_lock_order_cycle_detected_at_witness_edge(findex):
    findings = [f for f in locks.check(findex)
                if f.path.name == "lock_cycle.py"]
    assert [(f.rule_id, f.line) for f in findings] == [("lock-discipline", 19)]
    assert "cycle" in findings[0].message


def test_blocking_call_under_hot_lock(findex):
    findings = [f for f in locks.check(findex, hot_locks=("Pair._a",))
                if f.path.name == "lock_cycle.py" and "hot lock" in f.message]
    assert [(f.rule_id, f.line) for f in findings] == [("lock-discipline", 24)]
    assert "Pair._a" in findings[0].message


# -- crash points ------------------------------------------------------------

def test_unregistered_crash_point_flagged_at_call_site(findex):
    findings = crashpoints.check(findex, registry={}, test_sources=[])
    assert [(f.rule_id, f.path.name, f.line) for f in findings] == [
        ("crash-point", "unregistered_crash_point.py", 10)]
    assert "phase9.bogus" in findings[0].message


def test_registered_point_without_site_or_test_reference(findex):
    registry = {"phase9.bogus": (FIXTURES / "unregistered_crash_point.py", 10),
                "ghost.point": (FIXTURES / "unregistered_crash_point.py", 3)}
    findings = crashpoints.check(findex, registry, test_sources=[])
    ghost = [f for f in findings if "ghost.point" in f.message]
    assert {f.line for f in ghost} == {3}
    assert any("no production call site" in f.message for f in ghost)
    # no test source mentions either point
    assert any("referenced by no test" in f.message for f in ghost)
    assert any("referenced by no test" in f.message and "phase9.bogus"
               in f.message for f in findings)


def test_real_tree_lost_test_reference_is_detected(real_index):
    """Dropping the crash matrix from the test set must surface findings."""
    index, config = real_index
    registry = _real_registry(index, config)
    # this file's own literals count as references, so drop it as well
    tests_without_matrix = [
        source for source in _discover_tests(config.test_root)
        if source.path.name not in ("test_crash_matrix.py",
                                    "test_static_analysis.py")]
    findings = crashpoints.check(index, registry, tests_without_matrix)
    lost = [f for f in findings if "commit.begin" in f.message
            and "referenced by no test" in f.message]
    assert lost, "losing the matrix's commit.begin reference must be flagged"


def test_real_tree_unregistered_literal_is_detected(real_index):
    """Removing a point from the registry must flag its production hook."""
    index, config = real_index
    registry = _real_registry(index, config)
    registry.pop("wal.appended")
    findings = crashpoints.check(index, registry,
                                 _discover_tests(config.test_root))
    hits = [f for f in findings if "wal.appended" in f.message
            and "not registered" in f.message]
    assert hits and hits[0].path.name == "update_queue.py"


# -- durability --------------------------------------------------------------

def test_fsyncless_rename_flagged_at_replace_line(findex):
    findings = [f for f in durability.check(findex)
                if f.path.name == "fsyncless_rename.py"]
    assert [(f.rule_id, f.line) for f in findings] == [("durability", 10)]
    assert "without a preceding flush+fsync" in findings[0].message


def test_bare_write_in_durable_module_flagged(findex):
    findings = [f for f in durability.check(
                    findex, durable_modules=("fixtures.fsyncless_rename",))
                if "bare write" in f.message]
    assert [(f.rule_id, f.path.name, f.line) for f in findings] == [
        ("durability", "fsyncless_rename.py", 14)]


# -- memmap hygiene ----------------------------------------------------------

def test_writable_memmap_outside_storage_flagged(findex):
    findings = [f for f in memmaps.check(findex)
                if f.path.name == "writable_memmap.py"]
    assert [(f.rule_id, f.line) for f in findings] == [("memmap-hygiene", 7)]
    assert "mode=r+" in findings[0].message


# -- suppression protocol ----------------------------------------------------

def test_suppression_with_reason_silences_the_finding(findex):
    path = FIXTURES / "suppressed_ok.py"
    findings = [f for f in durability.check(findex) if f.path == path]
    assert [(f.rule_id, f.line) for f in findings] == [("durability", 11)]
    suppressions = {path: collect_suppressions(path, path.read_text())}
    kept, suppressed = apply_suppressions(findings, suppressions)
    assert kept == []
    assert suppressed == 1


def test_suppression_without_reason_is_itself_a_finding():
    path = FIXTURES / "bad_suppression.py"
    entry = collect_suppressions(path, path.read_text())
    assert [(f.rule_id, f.line) for f in entry.findings] == [("suppression", 5)]
    assert "without a reason" in entry.findings[0].message
    # and it suppresses nothing
    assert entry.by_line == {}


def test_suppression_only_matches_its_rule_id():
    path = FIXTURES / "suppressed_ok.py"
    suppressions = collect_suppressions(path, path.read_text())
    assert suppressions.allows(11, "durability")
    assert not suppressions.allows(11, "purity")
    assert not suppressions.allows(10, "durability")


# -- dead imports (advisory) -------------------------------------------------

def test_dead_import_detector_flags_unused_and_spares_used(tmp_path):
    victim = tmp_path / "victim.py"
    victim.write_text("import os\nimport json\n\n\ndef f():\n"
                      "    return json.dumps({})\n")
    index = CodeIndex.build([SourceFile.parse(victim, "fixtures.victim")])
    findings = deadcode.check(index)
    assert [(f.rule_id, f.line) for f in findings] == [("dead-import", 1)]
    assert "'os'" in findings[0].message


# -- the committed tree and the gate wiring ----------------------------------

def test_committed_tree_analyzes_clean():
    report = analyze(REPO_ROOT)
    assert report.is_clean, "\n" + report.render()
    assert report.summary().startswith("invariant lint: clean (5 rules")


def test_configured_locks_and_writers_name_code_in_the_tree(real_index):
    """A hot lock or sanctioned writer that the tree no longer has guards
    nothing, silently: every configured entry must name a lock the lock
    catalogue finds, or a function the index holds, matched the way the
    rules match them."""
    index, _config = real_index
    catalogued = locks.catalog_locks(index).values()
    lock_names = ({lock.short for lock in catalogued}
                  | {str(lock) for lock in catalogued})
    assert [name for name in DEFAULT_HOT_LOCKS if name not in lock_names] == []
    assert [name for name in DEFAULT_SANCTIONED_WRITERS
            if not any(qualname == name or qualname.endswith("." + name)
                       for qualname in index.functions)] == []


def test_rule_ids_match_the_rule_modules():
    assert RULE_IDS == (purity.RULE_ID, locks.RULE_ID, crashpoints.RULE_ID,
                        durability.RULE_ID, memmaps.RULE_ID)


def test_ci_runs_the_lint():
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -m repro.analysis --strict" in ci
    assert "invariant lint: clean (5 rules" in ci  # the must-run guard grep
