"""Wiring: configuration, rule orchestration and the analysis report.

:func:`analyze` is the one entry point everything shares — the
``python -m repro.analysis`` CLI, the CI gate and the test suite.  The
default configuration reads its registries from the tree being analyzed
(``PURE_FUNCTIONS`` from the scheduler module,
``ITERATION_CRASH_POINTS``/``SERVICE_CRASH_POINTS`` from the fault
toolkit) via :func:`repro.analysis.sources.literal_tuple_entries`, so the
analyzer never imports the code under analysis and the registries cannot
drift from what the analyzer enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis import (crashpoints, deadcode, durability, locks,
                            memmaps, purity)
from repro.analysis.findings import Finding
from repro.analysis.sources import (CodeIndex, SourceFile, discover_sources,
                                    literal_tuple_entries)
from repro.analysis.suppress import (FileSuppressions, apply_suppressions,
                                     collect_suppressions)

#: Locks on the query/ingestion path: holding one of these across a
#: blocking call violates the snapshot-isolation latency contract.
DEFAULT_HOT_LOCKS = (
    "ServingRuntime._engine_lock",
    "ServingRuntime._view_lock",
    "ServingRuntime._stats_lock",
    "AdmissionController._lock",
    "RefreshSupervisor._state_lock",
)

#: Modules whose on-disk artifacts recovery trusts; bare writes here must
#: go through an atomic-replace helper or a sanctioned writer.
DEFAULT_DURABLE_MODULES = (
    "repro.storage",
    "repro.storage.*",
    "repro.core.checkpoint",
    "repro.core.update_queue",
    "repro.core.engine",
    "repro.service",
    "repro.service.*",
)

#: Writers whose durability is provided by an enclosing protocol rather
#: than a per-call fsync.  Each entry is a qualname suffix; the reason it
#: is sanctioned lives in docs/static-analysis.md.
DEFAULT_SANCTIONED_WRITERS = (
    # epoch content files — sealed by checksums.json before the epoch
    # directory is atomically published, so per-file fsync is redundant
    "save_knn_graph",
    "save_checkpoint",
    "save_portable_checkpoint",
    # append-only CRC-framed logs — a torn tail is detected and dropped
    # on scan, which is the durability contract itself
    "ProfileUpdateQueue._wal",
    "OnDiskProfileStore._append_file",
)


@dataclass
class AnalysisConfig:
    """Everything :func:`analyze` needs to know about a tree."""

    repo_root: Path
    src_root: Path
    test_root: Path
    package: str = "repro"
    pure_manifest_module: str = "repro.pigraph.scheduler"
    pure_manifest_name: str = "PURE_FUNCTIONS"
    fault_registry_module: str = "repro.testing.faults"
    fault_registry_names: Tuple[str, ...] = ("ITERATION_CRASH_POINTS",
                                             "SERVICE_CRASH_POINTS")
    hot_locks: Tuple[str, ...] = DEFAULT_HOT_LOCKS
    durable_modules: Tuple[str, ...] = DEFAULT_DURABLE_MODULES
    sanctioned_writers: Tuple[str, ...] = DEFAULT_SANCTIONED_WRITERS
    memmap_allowed_modules: Tuple[str, ...] = ("repro.storage",
                                               "repro.storage.*")
    dead_imports: bool = False

    @classmethod
    def for_repo(cls, repo_root: Optional[Path] = None,
                 **overrides) -> "AnalysisConfig":
        root = Path(repo_root) if repo_root is not None else _default_root()
        return cls(repo_root=root, src_root=root / "src",
                   test_root=root / "tests", **overrides)


def _default_root() -> Path:
    root = Path(__file__).resolve().parents[3]
    if not (root / "src" / "repro").is_dir():
        raise RuntimeError(
            f"cannot locate the repo root from {__file__}; pass repo_root "
            "(or --root on the command line) explicitly")
    return root


@dataclass
class AnalysisReport:
    """The outcome of one analysis run."""

    config: AnalysisConfig
    findings: List[Finding]           # unsuppressed, sorted
    suppressed_count: int
    file_count: int
    rule_count: int = 5
    dead_import_findings: List[Finding] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.is_clean:
            return (f"invariant lint: clean ({self.rule_count} rules, "
                    f"{self.file_count} files, 0 unsuppressed findings, "
                    f"{self.suppressed_count} suppressed)")
        return (f"invariant lint: {len(self.findings)} unsuppressed "
                f"finding(s) across {self.file_count} files "
                f"({self.suppressed_count} suppressed)")

    def render(self) -> str:
        lines = [finding.render(self.config.repo_root)
                 for finding in self.findings]
        lines.extend(finding.render(self.config.repo_root)
                     for finding in self.dead_import_findings)
        lines.append(self.summary())
        return "\n".join(lines)


def _registry_source(index: CodeIndex, module: str) -> SourceFile:
    for source in index.sources:
        if source.module == module:
            return source
    raise KeyError(f"module {module} not found in the analyzed tree")


def _discover_tests(test_root: Path) -> List[SourceFile]:
    sources = []
    if test_root.is_dir():
        for path in sorted(test_root.rglob("*.py")):
            module = "tests." + ".".join(
                path.relative_to(test_root).with_suffix("").parts)
            sources.append(SourceFile.parse(path, module))
    return sources


def run_rules(index: CodeIndex, config: AnalysisConfig,
              test_sources: List[SourceFile]) -> List[Finding]:
    """All five rules over a pre-built index — raw, pre-suppression."""
    findings: List[Finding] = []

    manifest = _registry_source(index, config.pure_manifest_module)
    pure_entries = literal_tuple_entries(manifest, config.pure_manifest_name)
    findings.extend(purity.check(index, {
        name: (manifest.path, line) for name, line in pure_entries.items()}))

    findings.extend(locks.check(index, hot_locks=config.hot_locks))

    registry_source = _registry_source(index, config.fault_registry_module)
    registry: Dict[str, Tuple[Path, int]] = {}
    for constant in config.fault_registry_names:
        for point, line in literal_tuple_entries(registry_source,
                                                 constant).items():
            registry[point] = (registry_source.path, line)
    findings.extend(crashpoints.check(index, registry, test_sources))

    findings.extend(durability.check(
        index, durable_modules=config.durable_modules,
        sanctioned_writers=config.sanctioned_writers))

    findings.extend(memmaps.check(
        index, allowed_modules=config.memmap_allowed_modules))
    return findings


def analyze(repo_root: Optional[Path] = None,
            config: Optional[AnalysisConfig] = None) -> AnalysisReport:
    """Run the full invariant lint over a repo tree."""
    if config is None:
        config = AnalysisConfig.for_repo(repo_root)
    sources = discover_sources(config.src_root, package=config.package)
    index = CodeIndex.build(sources)
    test_sources = _discover_tests(config.test_root)

    raw = run_rules(index, config, test_sources)

    suppressions: Dict[Path, FileSuppressions] = {}
    for source in index.sources:
        entry = collect_suppressions(source.path, source.text)
        suppressions[source.path] = entry
        raw.extend(entry.findings)    # malformed/reasonless suppressions

    kept, suppressed = apply_suppressions(raw, suppressions)
    kept.sort(key=lambda finding: finding.sort_key())

    dead = deadcode.check(index) if config.dead_imports else []
    dead.sort(key=lambda finding: finding.sort_key())

    return AnalysisReport(config=config, findings=kept,
                          suppressed_count=suppressed,
                          file_count=len(index.sources),
                          dead_import_findings=dead)
