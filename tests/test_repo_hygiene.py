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


def _attribute_assignments(tree: ast.AST):
    """``(class, function, target, line)`` of every assignment to an
    attribute ``target``, with its innermost enclosing class and function
    (``None`` at module level)."""
    found = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                found.extend((cls, function, sub, child.lineno)
                             for target in targets for sub in ast.walk(target)
                             if isinstance(sub, ast.Attribute)
                             and isinstance(sub.ctx, ast.Store))
            visit(child, cls, function)

    visit(tree, None, None)
    return found


def test_score_cache_arrays_are_assigned_in_one_module():
    """The carried state shares its arrays with the iteration that produced
    them and freezes them on adoption; only ``Phase4ScoreCache``'s own
    methods assign its carried fields — the phase-4 commit goes through
    ``merge`` — so nothing can slip in a writable
    or unsorted pair, keep a second copy of the slab or of ``H``, or carry a
    second object beside it: after ``__init__`` the runner rebinds none of
    its own attributes."""
    carried = {"keys", "values", "table", "csr", "edge_keys", "produced",
               "merged_rows"}
    iteration = REPO_ROOT / "src" / "repro" / "core" / "iteration.py"
    offenders = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            found = _attribute_assignments(ast.parse(path.read_text()))
            owned = path == iteration
            offenders += [
                f"{path.relative_to(REPO_ROOT)}:{line} .{target.attr}"
                for cls, function, target, line in found
                if (target.attr in carried
                    and not (owned and cls == "Phase4ScoreCache"))
                or (owned and cls == "OutOfCoreIteration"
                    and function != "__init__"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self")]
    assert offenders == []


def test_one_carried_state():
    """``G(t)``, ``H`` and the score slab ride across iterations as one
    object; the second carrier and the runner attributes that held its
    pieces do not come back under ``src/``."""
    gone = re.compile(r"\b(CarriedCandidates|_pair_generations|_candidates)\b")
    src = REPO_ROOT / "src"
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)]
    assert offenders == []


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
    rows: phase 4 scores ``ProfileSlice.similarity_rows``.  ``merge``
    is also the name of the stats / score-cache accumulators, so a
    ``.merge(...)`` call passes only on one of those receivers."""
    accumulators = {"self", "io_stats", "total_io", "total_phases", "timer",
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
    ``num_threads`` was a second scoring width beside ``num_workers``)."""
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
    assert len(fields) == 14


def test_engine_config_fields_are_pinned():
    """Every field either is the paper's knob or pays for itself on a gated
    bench; the carried state has no switch (``incremental_phase4``,
    ``dirty_scheduling``), the segment layout follows the partitioner
    (``profile_segment_rows``), phase 4 walks its steps one at a time
    (``shard_parallel``) and scores them on the calling thread (``backend``,
    ``shard_timeout_seconds``, ``num_workers``).  A new field is a decision
    made here."""
    import dataclasses

    from repro.core.config import EngineConfig

    assert [spec.name for spec in dataclasses.fields(EngineConfig)] == [
        "k", "num_partitions", "partitioner", "heuristic", "measure",
        "disk_model", "max_resident_partitions", "memory_budget_bytes",
        "include_direct_edges", "max_pairs_per_bridge",
        "score_cache_entries", "seed", "durable", "fault_plan"]


def test_one_residency_model():
    """Phase 4 has one cost model, the paper's step-at-a-time walk through
    the partition cache, and ``memory_budget_bytes`` one meaning, that
    cache's cap: the wave execution, its planner and the per-worker budget
    do not come back under ``src/``.  The retired knob is named only where
    old manifests are translated."""
    gone = re.compile(r"\b(shard_parallel|_WaveResidency|plan_shard_schedule|"
                      r"ShardSchedule|record_transient|peak_worker_bytes|"
                      r"worker_budget_bytes)\b")
    assert _lines_outside_the_retired_knobs(gone) == []


def _lines_outside_the_retired_knobs(gone: "re.Pattern[str]") -> "list[str]":
    """Lines under ``src/`` matching ``gone``, except where old manifests
    are translated (``core/engine.py::_RETIRED_KNOBS`` and the docstring
    of ``_config_from_manifest``)."""
    engine = REPO_ROOT / "src" / "repro" / "core" / "engine.py"
    retired = set()
    for node in ast.parse(engine.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_RETIRED_KNOBS"
                for target in node.targets):
            retired.update(range(node.lineno, node.end_lineno + 1))
        elif (isinstance(node, ast.FunctionDef)
              and node.name == "_config_from_manifest"):
            docstring = node.body[0]
            retired.update(range(docstring.lineno, docstring.end_lineno + 1))
    assert len(retired) > 2, "the retired-knob record moved; re-point the test"
    src = REPO_ROOT / "src"
    return [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line) and not (path == engine and number in retired)]


def test_no_executor_under_src():
    """Phase 4 scores on the calling thread: no executor, thread pool or
    fork pool, no supervisor or worker fault hook and no scoring width come
    back under ``src/``.  The retired knobs are named only where old
    manifests are translated."""
    gone = re.compile(r"ThreadPoolExecutor|concurrent\.futures|ScoringWorkers|"
                      r"SPLIT_FLOOR_ROWS|_split_rows|num_workers|num_threads|"
                      r"ProcessPoolExecutor|BrokenProcessPool|multiprocessing|"
                      r"fork_available|ScoringPoolBroken|shard_timeout|"
                      r"kill_worker|hang_worker|take_worker_fault")
    assert _lines_outside_the_retired_knobs(gone) == []
    assert not (REPO_ROOT / "src" / "repro" / "core" / "parallel.py").exists()


def test_no_score_cache_file_under_src():
    """An explicit checkpoint is laid out like a commit epoch: nothing under
    ``src/`` writes (or reads) a score-cache file any more."""
    gone = re.compile(r"score_cache\.bin|score_cache_file|_score_cache\(|"
                      r"RPSC0001|_CACHE_MAGIC")
    src = REPO_ROOT / "src"
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if gone.search(line)]
    assert offenders == []


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


#: Scripts whose tables and claims ``python -m repro report`` and the tier-1
#: tests took over.
RETIRED_SCRIPTS = (
    "benchmarks/bench_table1_pi_heuristics.py", "benchmarks/bench_figure1_pipeline_phases.py",
    "benchmarks/bench_ext_heuristics.py", "benchmarks/bench_ext_memory_budget.py",
    "benchmarks/bench_ext_disk_model.py", "benchmarks/bench_ext_graph_size.py",
    "benchmarks/bench_ext_convergence.py", "benchmarks/bench_ablation_partitioners.py",
    "examples/heuristic_comparison.py",
)


def test_one_benchmark():
    """``benchmarks/e2e`` is the one performance record and ``EXPERIMENTS.md``
    the one paper-facing one: the single-shot suite, its committed baseline,
    the comparator that gated on it, the per-table scripts and CLI commands
    do not come back, and CI runs the one ``tests`` job."""
    from repro.cli import build_parser

    assert not (REPO_ROOT / "BENCH_perf.json").exists()
    assert not (REPO_ROOT / "benchmarks" / "run_perf_suite.py").exists()
    assert not (REPO_ROOT / "benchmarks" / "check_perf_regression.py").exists()
    assert [name for name in RETIRED_SCRIPTS if (REPO_ROOT / name).exists()] == []
    assert "{report,serve,migrate}" in build_parser().format_help()
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs = ci.split("\njobs:\n", 1)[1]
    assert re.findall(r"^  ([\w-]+):", jobs, flags=re.MULTILINE) == ["tests"]
