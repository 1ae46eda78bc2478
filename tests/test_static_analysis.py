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
from repro.analysis import deadcode, durability, locks, memmaps
from repro.analysis.runner import (DEFAULT_HOT_LOCKS,
                                   DEFAULT_SANCTIONED_WRITERS, AnalysisConfig)
from repro.analysis.sources import CodeIndex, SourceFile, discover_sources
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


def test_only_blocking_calls_count_under_a_hot_lock(tmp_path):
    """Clock, random and environment reads do not park a thread: under a
    hot lock only the fsync, reached through a helper, is flagged."""
    victim = tmp_path / "clocked.py"
    victim.write_text(
        "import os\nimport random\nimport threading\nimport time\n\n\n"
        "class Meter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n\n"
        "    def sample(self):\n"
        "        with self._lock:\n"
        "            return (time.perf_counter(), random.random(),\n"
        "                    os.environ.get('HOME'))\n\n"
        "    def persist(self, handle):\n"
        "        with self._lock:\n"
        "            self._sync(handle)\n\n"
        "    def _sync(self, handle):\n"
        "        os.fsync(handle)\n")
    index = CodeIndex.build([SourceFile.parse(victim, "fixtures.clocked")])
    findings = [f for f in locks.check(index, hot_locks=("Meter._lock",))
                if "hot lock" in f.message]
    assert [(f.rule_id, f.line) for f in findings] == [("lock-discipline", 18)]
    assert "os.fsync" in findings[0].message


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
    assert not suppressions.allows(11, "memmap-hygiene")
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
    assert report.summary().startswith("invariant lint: clean (3 rules")


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
    assert RULE_IDS == (locks.RULE_ID, durability.RULE_ID, memmaps.RULE_ID)


def test_ci_runs_the_lint():
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -m repro.analysis --strict" in ci
    assert "invariant lint: clean (3 rules" in ci  # the must-run guard grep
