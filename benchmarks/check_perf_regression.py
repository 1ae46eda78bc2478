#!/usr/bin/env python
"""CI gate: compare a fresh perf-suite run against the committed trajectory.

Usage::

    PYTHONPATH=src python benchmarks/run_perf_suite.py --quick --output /tmp/fresh.json
    PYTHONPATH=src python benchmarks/check_perf_regression.py \
        --baseline BENCH_perf.json --fresh /tmp/fresh.json [--tolerance 0.20]

Fails (exit 1) when the fresh phase-4 wall-clock of the pipeline bench — or
the combined phase-4 + phase-5 wall-clock of the update-heavy workload —
regresses more than ``tolerance`` (default 20%) against the baseline, or
when the update workload's incremental-phase-4 run no longer produces the
same fingerprint as its full-rescore run (the score cache must be
bit-transparent), or when the resume bench reports that
``KNNEngine.from_checkpoint`` materialised a profile copy instead of
hard-linking the snapshot (or resumed to a diverging fingerprint), or when
the resume peak-RSS delta grows beyond the baseline's ratio-plus-slack
limit (resume must stay O(partition) memory), or when the serving load
bench records any failed read, an unproven snapshot-isolation verdict, or
a burst phase that shed nothing, or when
the dirty-scheduling bench reports a dirty-vs-full fingerprint or
profile-byte divergence — or a steady-state skip rate below 60% — or when
a ``--million`` report's 1M-user tier recorded no load/unload operations.
It prints a behaviour warning when the graph fingerprint
changed between baseline and fresh (a fingerprint change is legitimate when
an algorithmic PR intends it — the diff to the committed baseline makes it
explicit — so it warns rather than fails).  Baselines predating the update
workload simply skip that gate, and sections only an older baseline
carries (the retired thread and backend sweeps) are not read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Key of the gated phase inside ``pipeline.phase_seconds``.
PHASE4_KEY = "4-knn-computation"


def compare_phase4(baseline: dict, fresh: dict, tolerance: float) -> "tuple[bool, str]":
    """Return ``(ok, message)`` for the phase-4 wall-clock comparison."""
    base_phase = baseline["pipeline"]["phase_seconds"][PHASE4_KEY]
    fresh_phase = fresh["pipeline"]["phase_seconds"][PHASE4_KEY]
    if base_phase <= 0:
        return True, f"baseline phase-4 time is {base_phase}s; nothing to gate"
    ratio = fresh_phase / base_phase
    message = (f"phase-4 wall-clock: baseline {base_phase:.4f}s, "
               f"fresh {fresh_phase:.4f}s ({ratio:.2f}x)")
    if ratio > 1.0 + tolerance:
        return False, message + f" — REGRESSION beyond {tolerance:.0%} tolerance"
    return True, message + " — within tolerance"


def compare_phase45(baseline: dict, fresh: dict, tolerance: float) -> "tuple[bool, str]":
    """Phase-4+5 gate over the update-heavy workload (skipped on old baselines)."""
    base_section = baseline.get("update_workload")
    fresh_section = fresh.get("update_workload")
    if not fresh_section:
        # HEAD's suite always emits the section; losing it means the bench
        # itself broke, which must not read as a silent pass
        return False, ("update_workload section missing from the FRESH report "
                       "— run_perf_suite no longer emits the phase-4+5 bench")
    if "phase45_seconds" not in fresh_section:
        return False, ("phase45_seconds missing from the FRESH update_workload "
                       "section — run_perf_suite no longer records the gated value")
    if not base_section:
        return True, ("phase-4+5 update-workload gate skipped "
                      "(baseline predates the bench)")
    base_value = base_section.get("phase45_seconds", 0.0)
    fresh_value = fresh_section["phase45_seconds"]
    if base_value <= 0:
        return True, f"baseline phase-4+5 time is {base_value}s; nothing to gate"
    ratio = fresh_value / base_value
    message = (f"update-workload phase-4+5 wall-clock: baseline {base_value:.4f}s, "
               f"fresh {fresh_value:.4f}s ({ratio:.2f}x)")
    if ratio > 1.0 + tolerance:
        return False, message + f" — REGRESSION beyond {tolerance:.0%} tolerance"
    return True, message + " — within tolerance"


def compare_phase24(baseline: dict, fresh: dict, tolerance: float) -> "tuple[bool, str]":
    """Combined phase-2 + phase-4 gate over the update-heavy workload.

    Phase 2 (bridge-tuple generation) rivals the amortised phase 4 on
    sparse workloads, so the two are gated together; skipped on baselines
    predating the combined record.
    """
    base_value = (baseline.get("update_workload") or {}).get("phase24_seconds")
    fresh_value = (fresh.get("update_workload") or {}).get("phase24_seconds")
    if fresh_value is None:
        return True, ("phase-2+4 update-workload gate skipped "
                      "(fresh report predates the combined record)")
    if base_value is None:
        return True, ("phase-2+4 update-workload gate skipped "
                      "(baseline predates the combined record)")
    if base_value <= 0:
        return True, f"baseline phase-2+4 time is {base_value}s; nothing to gate"
    ratio = fresh_value / base_value
    message = (f"update-workload phase-2+4 wall-clock: baseline {base_value:.4f}s, "
               f"fresh {fresh_value:.4f}s ({ratio:.2f}x)")
    if ratio > 1.0 + tolerance:
        return False, message + f" — REGRESSION beyond {tolerance:.0%} tolerance"
    return True, message + " — within tolerance"


def compare_incremental_parity(fresh: dict) -> "tuple[bool, str]":
    """Fail when the fresh incremental run diverges from its full-rescore run.

    The phase-4 score cache promises bit-identical graphs; the suite runs
    the update workload with the cache on and off and records whether the
    fingerprints agree.  Reports predating the incremental bench skip.
    """
    section = fresh.get("update_workload") or {}
    verdict = section.get("incremental_fingerprints_match")
    if verdict is None:
        return True, ("incremental-vs-full parity gate skipped "
                      "(report predates the incremental phase-4 bench)")
    if verdict:
        return True, "incremental phase-4 fingerprints match the full rescore"
    return False, ("incremental phase-4 fingerprints DIVERGE from the full "
                   "rescore — the score cache changed a result bit")


def compare_resume(fresh: dict) -> "tuple[bool, str]":
    """Gate the zero-copy resume path (fresh report only, like parity).

    Fails when the resume bench materialised a full profile copy (bytes
    eligible for hard-linking were copied instead — the zero-copy property
    regressed) or when the resumed run's fingerprint diverged from the
    uninterrupted run.  The fresh suite must emit the section; losing it
    would silently un-gate the path.
    """
    section = fresh.get("resume")
    if section is None:
        return False, ("resume section missing from the FRESH report — "
                       "run_perf_suite no longer measures the resume path")
    if section.get("full_profile_copy"):
        return False, (
            f"resume MATERIALISED a profile copy: {section.get('linked_bytes', 0)}"
            f" of {section.get('linkable_bytes', 0)} linkable bytes were "
            "hard-linked (the rest were copied) — the zero-copy resume regressed")
    if not section.get("resumed_fingerprint_matches", False):
        return False, ("resumed-run fingerprint DIVERGES from the "
                       "uninterrupted run — the resume path changed a result bit")
    return True, (
        f"zero-copy resume ok: {section.get('linked_files', 0)} files "
        f"({section.get('linked_bytes', 0)} bytes) hard-linked, "
        f"{section.get('copied_bytes', 0)} mutable bytes copied, "
        f"resume {section.get('resume_seconds', 0.0):.4f}s, "
        f"peak-RSS delta {section.get('peak_rss_kb_delta', 0)} KB, "
        "fingerprint matches")


def compare_recovery(fresh: dict) -> "tuple[bool, str]":
    """Gate the crash-recovery path (fresh report only, like resume).

    Fails when the recovery bench's recovered run diverged from the
    uninterrupted fingerprint, or when the section disappears from the
    fresh report (the bench breaking must not read as a pass).  The
    recovery wall-clock and WAL replay count are trajectory records, not
    gated values — recovery is a cold path dominated by checksum reads.
    """
    section = fresh.get("recovery")
    if section is None:
        return False, ("recovery section missing from the FRESH report — "
                       "run_perf_suite no longer measures crash recovery")
    if not section.get("recovered_fingerprint_matches", False):
        return False, ("recovered-run fingerprint DIVERGES from the "
                       "uninterrupted run — crash recovery lost or "
                       "double-applied state")
    return True, (
        f"crash recovery ok: recovered in "
        f"{section.get('recover_seconds', 0.0):.4f}s, "
        f"{section.get('wal_replayed', 0)} WAL records replayed, "
        "fingerprint matches")


#: Absolute slack (KB) on top of the resume peak-RSS ratio gate.  The
#: delta is the forked bench child's high-water mark minus the parent's
#: fork-time RSS, which wobbles by tens of MB run-to-run (allocator, CoW
#: sharing, parent state at fork) — so the gate is a coarse *explosion*
#: detector; the precise zero-copy gate is the byte-level accounting in
#: ``compare_resume`` (``full_profile_copy``).
RESUME_RSS_SLACK_KB = 131072

#: Allowed fractional growth of the resume peak-RSS delta (looser than the
#: wall-clock tolerance for the same noise reason).
RESUME_RSS_TOLERANCE = 0.5


def compare_resume_rss(baseline: dict, fresh: dict) -> "tuple[bool, str]":
    """Gate the resume bench's peak-RSS delta against the baseline.

    ``KNNEngine.from_checkpoint`` promises O(partition) memory — resuming
    must not page the whole profile store in.  A fresh delta beyond
    ``baseline * (1 + RESUME_RSS_TOLERANCE) + RESUME_RSS_SLACK_KB`` fails:
    generous enough for the measurement's inherent noise (see
    ``RESUME_RSS_SLACK_KB``), tight enough to flag resume regressing to
    O(store) allocations on the bench tiers above it.  Baselines
    predating the record skip; a fresh report without it fails (the bench
    silently dropping the measurement must not read as a pass).
    """
    fresh_value = (fresh.get("resume") or {}).get("peak_rss_kb_delta")
    if fresh_value is None:
        return False, ("resume.peak_rss_kb_delta missing from the FRESH "
                       "report — run_perf_suite no longer measures resume "
                       "memory")
    base_value = (baseline.get("resume") or {}).get("peak_rss_kb_delta")
    if base_value is None:
        return True, ("resume peak-RSS gate skipped "
                      "(baseline predates the record)")
    limit = base_value * (1.0 + RESUME_RSS_TOLERANCE) + RESUME_RSS_SLACK_KB
    message = (f"resume peak-RSS delta: baseline {base_value} KB, "
               f"fresh {fresh_value} KB (limit {limit:.0f} KB)")
    if fresh_value > limit:
        return False, message + (" — REGRESSION: resume materialises far "
                                 "more memory than the baseline")
    return True, message + " — within limit"


def compare_serving(fresh: dict) -> "tuple[bool, str]":
    """Gate the serving load bench (fresh report only, like resume).

    Fails when any simulated client's read failed under load, when the
    snapshot-isolation proof did not hold (reads must land while a refresh
    iteration is in flight with a p99 far below the fastest refresh
    cycle — asserted, not assumed), when the burst phase failed to shed
    load (admission control queueing unboundedly), or when the section
    disappears from the fresh report.  The p99 latencies are trajectory
    records, not gated values.
    """
    section = fresh.get("serving")
    if section is None:
        return False, ("serving section missing from the FRESH report — "
                       "run_perf_suite no longer measures the serving "
                       "runtime under load")
    failures = section.get("query_failures", -1)
    if failures != 0:
        return False, (f"serving bench recorded {failures} failed reads "
                       "under load — the availability SLO broke")
    if not section.get("snapshot_isolation_proven", False):
        return False, (
            "serving snapshot isolation UNPROVEN: "
            f"{section.get('queries_during_refresh', 0)} reads mid-refresh, "
            f"worst p99 {max(section.get('p99_sustained_seconds', 0.0), section.get('p99_burst_seconds', 0.0)):.6f}s "
            f"vs fastest refresh {section.get('min_refresh_seconds')}s — "
            "reads may be blocking on in-flight iterations")
    if section.get("burst_shed_changes", 0) <= 0:
        return False, ("serving burst phase shed nothing — admission "
                       "control no longer bounds the update backlog")
    return True, (
        f"serving ok: {section.get('queries', 0)} reads, 0 failed, "
        f"{section.get('queries_during_refresh', 0)} answered mid-refresh, "
        f"p99 {section.get('p99_sustained_seconds', 0.0) * 1e6:.0f}µs sustained / "
        f"{section.get('p99_burst_seconds', 0.0) * 1e6:.0f}µs burst vs "
        f"{section.get('min_refresh_seconds')}s fastest refresh, "
        f"{section.get('burst_shed_changes', 0)} changes shed under burst")


#: Floor on the dirty-scheduling bench's steady-state skip rate.
MIN_SKIP_RATE = 0.6


def compare_dirty_scheduling(fresh: dict) -> "tuple[bool, str]":
    """Gate the dirty-partition scheduling path (fresh report only).

    Fails when the dirty-scheduled run's final graph fingerprint or final
    profile bytes diverge from the full-schedule reference (skipping a
    residency step must never change a result bit), when its steady-state
    skip rate drops below ``MIN_SKIP_RATE``, or when the section disappears
    from the fresh report — the bench breaking must not read as a silent
    pass.
    """
    section = fresh.get("dirty_scheduling")
    if section is None:
        return False, ("dirty_scheduling section missing from the FRESH "
                       "report — run_perf_suite no longer measures the "
                       "dirty-vs-full schedule parity")
    if not section.get("fingerprints_match", False):
        return False, ("dirty-scheduled fingerprints DIVERGE from the full "
                       "schedule — skipping a residency step changed a "
                       "result bit")
    if not section.get("profiles_match", False):
        return False, ("dirty-scheduled final profile bytes DIVERGE from "
                       "the full schedule — phase 5 applied different "
                       "updates under skipping")
    skip_rate = section.get("min_skip_rate")
    if skip_rate is None or skip_rate < MIN_SKIP_RATE:
        return False, (f"dirty-scheduling skip rate {skip_rate} fell below "
                       f"{MIN_SKIP_RATE:.0%} — the steady-state drift "
                       "workload no longer skips clean residency steps")
    return True, (
        f"dirty scheduling ok: skip rate {skip_rate:.0%}, "
        f"drift-window phase 4 {section.get('phase4_seconds_dirty', 0.0):.4f}s "
        f"vs full {section.get('phase4_seconds_full', 0.0):.4f}s, "
        "fingerprints and profile bytes match")


def compare_million_tier(fresh: dict) -> "tuple[bool, str]":
    """Gate the optional 1M-user tier (``--million`` runs; fresh only).

    A budget breach raises inside the bench, so a recorded tier ran within
    its partition-cache budget; it must also have recorded its load/unload
    operations.  A report without the tier (the default run) passes.
    """
    million = fresh.get("sharded_million")
    if million is None:
        return True, "1M-user tier not run (--million only)"
    operations = million.get("load_unload_operations")
    if not operations:
        return False, (
            f"1M-user tier recorded {operations} load/unload operations "
            "— the out-of-core tier did not run its residency walk")
    return True, (
        f"1M-user tier ok: {operations} load/unload operations under "
        f"a {million.get('memory_budget_bytes')}-byte partition-cache "
        f"budget, phase 4 {million.get('phase4_seconds', 0.0):.1f}s")


def compare_fingerprints(baseline: dict, fresh: dict) -> "tuple[bool, str]":
    """Return ``(same, message)`` for the behaviour fingerprint."""
    base_fp = baseline["pipeline"].get("graph_fingerprint")
    fresh_fp = fresh["pipeline"].get("graph_fingerprint")
    if base_fp == fresh_fp:
        return True, f"graph fingerprint unchanged ({str(base_fp)[:12]}…)"
    return False, (f"graph fingerprint CHANGED: {str(base_fp)[:12]}… → "
                   f"{str(fresh_fp)[:12]}… (behaviour differs from the baseline)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_perf.json")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="freshly generated perf report")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional phase-4 slowdown (default 0.20)")
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())

    ok, message = compare_phase4(baseline, fresh, args.tolerance)
    print(message)
    ok45, message45 = compare_phase45(baseline, fresh, args.tolerance)
    print(message45)
    ok24, message24 = compare_phase24(baseline, fresh, args.tolerance)
    print(message24)
    ok_parity, parity_message = compare_incremental_parity(fresh)
    print(parity_message)
    ok_resume, resume_message = compare_resume(fresh)
    print(resume_message)
    ok_rss, rss_message = compare_resume_rss(baseline, fresh)
    print(rss_message)
    ok_serving, serving_message = compare_serving(fresh)
    print(serving_message)
    ok_recovery, recovery_message = compare_recovery(fresh)
    print(recovery_message)
    ok_dirty, dirty_message = compare_dirty_scheduling(fresh)
    print(dirty_message)
    ok_million, million_message = compare_million_tier(fresh)
    print(million_message)
    same, fp_message = compare_fingerprints(baseline, fresh)
    print(("" if same else "WARNING: ") + fp_message)
    return 0 if (ok and ok45 and ok24 and ok_parity and ok_resume
                 and ok_rss and ok_serving and ok_recovery and ok_dirty
                 and ok_million) else 1


if __name__ == "__main__":
    sys.exit(main())
