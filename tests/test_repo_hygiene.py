"""Repository hygiene: generated artefacts must never be tracked in git.

Commit b99aa09 accidentally tracked 42 ``__pycache__/*.pyc`` files; this
wall (mirrored by a CI step in ``.github/workflows/ci.yml``) keeps compiled
bytecode and other generated caches out of the index for good.
"""

from __future__ import annotations

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> "list[str]":
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout (sdist or exported tree)")
    result = subprocess.run(["git", "ls-files"], cwd=REPO_ROOT, check=True,
                            capture_output=True, text=True)
    return result.stdout.splitlines()


def test_no_tracked_bytecode():
    offenders = [name for name in _tracked_files()
                 if name.endswith((".pyc", ".pyo")) or "__pycache__/" in name]
    assert offenders == [], (
        f"compiled bytecode is tracked in git: {offenders[:5]}… — "
        "run `git rm -r --cached` on them; .gitignore should prevent re-adds")


def test_no_tracked_tool_caches():
    offenders = [name for name in _tracked_files()
                 if ".pytest_cache/" in name or ".hypothesis/" in name]
    assert offenders == []


def test_gitignore_covers_bytecode():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/", ".hypothesis/"):
        assert pattern in gitignore


def _lines_matching(pattern: "re.Pattern[str]", owners: "tuple[str, ...]"
                    ) -> "list[str]":
    owned = {REPO_ROOT / owner for owner in owners}
    return [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / top).rglob("*.py")) if path not in owned
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)]


def test_graph_arrays_are_private_to_knn_graph():
    """``G(t)``'s three arrays are an implementation detail of
    ``graph/knn_graph.py``: every other module, test, benchmark and example
    goes through the public API, so the representation can change again
    without a sweep."""
    private = re.compile(r"(?<!self)\._(neighbors|scores|counts)\b")
    assert _lines_matching(private, ("src/repro/graph/knn_graph.py",)) == []


def test_table_arrays_are_private_to_the_hash_table():
    """``H``'s key and multiplicity arrays, pending inserts, bucket index and
    bucket sizes belong to ``tuples/hash_table.py``; the delta algebra hands
    ``patched`` a signed delta and phase 4 reads ``keys``, ``bucket_index``
    and ``endpoints``, so the layout can change again without a sweep."""
    private = re.compile(r"(?<!self)\._(keys|multiplicity|pending|index|sizes)\b")
    assert _lines_matching(private, ("src/repro/tuples/hash_table.py",)) == []


def test_score_cache_arrays_are_assigned_in_one_module():
    """The cache shares its arrays with the iteration that produced them and
    freezes them on adoption; only ``Phase4ScoreCache`` itself installs
    arrays — the checkpoint loader and whatever carries state across
    iterations go through ``merge`` — so nothing can slip in a writable or
    unsorted pair, or keep a second copy of the slab."""
    assigned = re.compile(r"\.(keys|values)\s*=(?!=)")
    assert _lines_matching(assigned, ("src/repro/core/iteration.py",)) == []


def test_nothing_under_src_uses_shared_memory():
    """Phase 4 addresses partition slices by partition-local row, so there
    is no merged index to publish: no module creates (or has to clean up) a
    named ``multiprocessing.shared_memory`` segment."""
    src = REPO_ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"shared_memory|SharedMemory", line)]
    assert offenders == []


def test_the_partition_accountants_touch_no_file():
    """Partition traffic is charged in closed form: the store that prices it
    and the cache that walks it import no filesystem module and open
    nothing, so the partition files cannot grow back."""
    offenders = []
    for name in ("partition_store.py", "memory_manager.py"):
        path = REPO_ROOT / "src" / "repro" / "storage" / name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "open"):
                modules = ["open("]
            else:
                continue
            offenders += [f"{name}:{node.lineno} {module}" for module in modules
                          if module.split(".")[0] in (
                              "os", "pathlib", "shutil", "tempfile", "open(")]
    assert offenders == []


def test_core_scores_by_row_not_through_merged_or_id_addressed_slices():
    """Nothing in ``core/`` merges profile slices or translates user ids to
    rows: every backend scores ``ProfileSlice.similarity_rows``.  ``merge``
    is also the name of the stats / score-cache accumulators, so a
    ``.merge(...)`` call passes only on one of those receivers."""
    accumulators = {"self", "io_stats", "total_io", "total_phases",
                    "score_cache", "cache", "snapshot", "profile_snapshot"}
    offenders = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            receiver = node.func.value
            if name in ("merge_indexed", "_rows_for", "similarity_pairs") or (
                    name == "merge" and not (isinstance(receiver, ast.Name)
                                             and receiver.id in accumulators)):
                offenders.append(f"{path.name}:{node.lineno} .{name}()")
    assert offenders == []


def test_every_engine_config_field_is_read_somewhere():
    """A knob survives only while code outside ``core/config.py`` reads it
    as an attribute: one that nothing reads cannot ride through a refactor
    again (``adaptive_score_cache`` decided nothing on any workload, and
    ``num_threads`` was a second width beside ``num_workers``)."""
    import dataclasses

    from repro.core.config import EngineConfig

    src = REPO_ROOT / "src" / "repro"
    read = {node.attr
            for path in sorted(src.rglob("*.py"))
            if path != src / "core" / "config.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    fields = {spec.name for spec in dataclasses.fields(EngineConfig)}
    assert fields - read == set()
    assert len(fields) == 21


def test_one_worker_seam():
    """Executors are built in ``core/parallel.py`` and nowhere else under
    ``src/``, and phase 4 never handles the seam's failure itself: the
    degrade to inline scoring is written once, behind ``execute``."""
    src = REPO_ROOT / "src" / "repro"
    built = re.compile(r"\b(Thread|Process)PoolExecutor\(")
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "core" / "parallel.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if built.search(line)]
    assert offenders == []
    parallel = (src / "core" / "parallel.py").read_text()
    assert len(built.findall(parallel)) == 2
    assert parallel.count("except (BrokenProcessPool, FutureTimeoutError)") == 1
    assert parallel.count("_build_worker_executor(") == 2   # def + one call
    assert "ScoringPoolBroken" not in (src / "core" / "iteration.py").read_text()


def test_one_profile_format_and_one_place_that_checks_it():
    """The profile store reads and writes one layout.  Under ``src/`` a
    format version is compared only by the open-time gate
    (``OnDiskProfileStore._read_meta``) and by ``migrate_store``, and
    nothing is named after a numbered layout — so a second reader cannot
    grow back unnoticed."""
    src = REPO_ROOT / "src" / "repro"
    numbered = re.compile(r"_v[12](?![0-9a-z])|_load_sparse_v|_write_sparse_v")

    def mentions_version(node: ast.AST, tainted: "set[str]") -> bool:
        return any(
            (isinstance(sub, ast.Constant) and sub.value == "format_version")
            or (isinstance(sub, ast.Attribute) and sub.attr == "format_version")
            or (isinstance(sub, ast.Name)
                and (sub.id.lower() == "format_version" or sub.id in tainted))
            for sub in ast.walk(node))

    comparing, named = [], []
    for path in sorted(src.rglob("*.py")):
        where = str(path.relative_to(src))
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                defined = [scope.name]
            elif isinstance(scope, ast.Assign):
                defined = [target.id if isinstance(target, ast.Name) else target.attr
                           for target in scope.targets
                           if isinstance(target, (ast.Name, ast.Attribute))]
            else:
                defined = []
            named += [f"{where}:{scope.lineno} {name}" for name in defined
                      if numbered.search(name)]
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # names bound from the meta's version are the version too
            tainted = {name.id
                       for node in ast.walk(scope) if isinstance(node, ast.Assign)
                       and mentions_version(node.value, set())
                       for target in node.targets for name in ast.walk(target)
                       if isinstance(name, ast.Name)}
            if any(isinstance(node, ast.Compare) and mentions_version(node, tainted)
                   for node in ast.walk(scope)):
                comparing.append(f"{where}:{scope.name}")
    assert named == []
    assert comparing == ["storage/migrate.py:migrate_store",
                         "storage/profile_store.py:_read_meta"]
