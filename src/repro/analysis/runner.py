"""Wiring: configuration, rule orchestration and the analysis report.

:func:`analyze` is the one entry point everything shares — the
``python -m repro.analysis`` CLI, the CI gate and the test suite.  The
analyzer reads only the source tree; it never imports the code under
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis import deadcode, durability, locks, memmaps
from repro.analysis.findings import Finding
from repro.analysis.sources import CodeIndex, discover_sources
from repro.analysis.suppress import (FileSuppressions, apply_suppressions,
                                     collect_suppressions)

#: The rules :func:`run_rules` runs, in the order it runs them.
RULE_IDS = ("lock-discipline", "durability", "memmap-hygiene")

#: Locks on the query and probe path: holding one across a blocking call
#: violates the snapshot-isolation latency contract.
#: ``AdmissionController._lock`` is not one: it serialises writers across
#: the WAL fsync by design, and no probe or reader takes it.
DEFAULT_HOT_LOCKS = (
    "ServingRuntime._engine_lock",
    "ServingRuntime._view_lock",
    "ServingRuntime._stats_lock",
    "AdmissionController._counts_lock",
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
    package: str = "repro"
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
        return cls(repo_root=root, src_root=root / "src", **overrides)


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
    dead_import_findings: List[Finding] = field(default_factory=list)

    @property
    def rule_count(self) -> int:
        return len(RULE_IDS)

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


def run_rules(index: CodeIndex, config: AnalysisConfig) -> List[Finding]:
    """Every rule over a pre-built index — raw, pre-suppression."""
    findings: List[Finding] = []
    findings.extend(locks.check(index, hot_locks=config.hot_locks))
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

    raw = run_rules(index, config)

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
