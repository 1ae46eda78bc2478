"""Invariant lint: AST-based enforcement of this repo's correctness contracts.

Nine PRs of growth left the middleware's correctness resting on
*conventions*: schedulers must be pure functions of their inputs, the
serving layer must never block while holding a hot lock, every named crash
point must be registered and exercised, every durable write must go
temp→fsync→rename, and writable memory maps belong to the storage layer
alone.  This package checks those conventions mechanically, from source
alone (stdlib :mod:`ast`; the analyzed code is never imported), so the CI
gate can refuse a tree that violates them.

Five rules (see ``docs/static-analysis.md`` for the full contracts):

``purity``
    Call-graph walk from the :data:`repro.pigraph.scheduler.PURE_FUNCTIONS`
    manifest rejecting reachable wall-clock, randomness, environment reads,
    file I/O and module-global writes.
``lock-discipline``
    Builds a holds→acquires graph over every catalogued lock; fails on
    acquisition-order cycles and on known-blocking calls reachable under a
    hot serving-path lock.
``crash-point``
    Every ``fault_point``/``plan.point`` string literal must be registered
    in ``ITERATION_CRASH_POINTS`` ∪ ``SERVICE_CRASH_POINTS``; every
    registered point needs a production call site and a test reference.
``durability``
    ``os.replace`` of a file written in the same function requires a
    preceding flush+fsync; bare writes in durable modules outside the
    sanctioned helpers are flagged.
``memmap-hygiene``
    Writable ``np.memmap``/``mmap.mmap`` opens outside ``repro/storage``
    are rejected (the zero-copy read-only-view contract).

Findings are suppressed inline with ``# repro: allow[rule-id] reason`` —
the reason is mandatory.  Run ``python -m repro.analysis --strict`` to lint
the tree; exit status 1 means unsuppressed findings.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.runner import AnalysisConfig, AnalysisReport, analyze

RULE_IDS = (
    "purity",
    "lock-discipline",
    "crash-point",
    "durability",
    "memmap-hygiene",
)

__all__ = ["AnalysisConfig", "AnalysisReport", "Finding", "RULE_IDS",
           "Severity", "analyze"]
