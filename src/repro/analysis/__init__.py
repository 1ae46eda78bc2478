"""Invariant lint: AST-based enforcement of this repo's correctness contracts.

The serving layer must never block while holding a hot lock, every durable
write must go temp→fsync→rename, and writable memory maps belong to the
storage layer alone.  No test fails when one of these conventions breaks,
so this package checks them mechanically, from source alone (stdlib
:mod:`ast`; the analyzed code is never imported), and the CI gate refuses
a tree that violates them.

Three rules (see ``docs/static-analysis.md`` for the full contracts):

``lock-discipline``
    Builds a holds→acquires graph over every catalogued lock; fails on
    acquisition-order cycles and on known-blocking calls reachable under a
    hot serving-path lock.
``durability``
    ``os.replace`` of a file written in the same function requires a
    preceding flush+fsync; bare writes in durable modules outside the
    sanctioned helpers are flagged.
``memmap-hygiene``
    Writable ``np.memmap``/``mmap.mmap`` opens outside ``repro/storage``
    are rejected (the zero-copy read-only-view contract).

Two contracts are not lint rules because tier-1 enforces them where they
are woven in: a schedule plan's determinism is pinned by the scheduler and
parity tests, and :class:`repro.testing.FaultPlan` refuses a crash-point
name outside its registry.

Findings are suppressed inline with ``# repro: allow[rule-id] reason`` —
the reason is mandatory.  Run ``python -m repro.analysis --strict`` to lint
the tree; exit status 1 means unsuppressed findings.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.runner import (RULE_IDS, AnalysisConfig, AnalysisReport,
                                   analyze)

__all__ = ["AnalysisConfig", "AnalysisReport", "Finding", "RULE_IDS",
           "Severity", "analyze"]
