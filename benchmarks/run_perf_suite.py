#!/usr/bin/env python
"""Fixed-seed performance suite: phase timings and scoring throughput.

Runs the Figure-1 pipeline at a fixed workload size and the update,
resume, recovery, dirty-scheduling and serving benches, and writes the
results to ``BENCH_perf.json`` so that successive PRs accumulate a
comparable performance trajectory.

Run with:  PYTHONPATH=src python benchmarks/run_perf_suite.py [--output PATH]

Every bench it runs is one the CI regression gate reads
(``benchmarks/check_perf_regression.py``); ``--quick`` is accepted for the
invocations that asked for exactly that set.

The quantities recorded:

* ``pipeline`` — per-phase wall-clock seconds, candidate-tuple counts,
  similarity evaluations and evaluations/second of a two-iteration engine
  run (num_users=2000, the workload used by this repo's perf acceptance
  checks);
* ``update_workload`` — the amortised-iteration-loop benchmark: 4
  iterations over 10k users, dense and sparse, with profile churn applied
  through the phase-5 update queue every iteration; records per-iteration
  phase-4/phase-5 seconds, profile-store write bytes and incremental
  phase-4 counters (rescored vs cache-reused tuples), plus the combined
  phase-4+5 wall-clock the CI regression gate compares.  Each workload is
  also run against a store that cannot vouch for its deltas, so nothing is
  reused (``full_rescore`` section), and the report records whether the
  two fingerprints match — the CI gate fails when they do not;
* ``resume`` — the zero-copy checkpoint-resume bench: a 10k-user sparse
  engine is checkpointed after one iteration and resumed via
  ``KNNEngine.from_checkpoint`` inside a forked child process.  Records
  the hard-link/copy split of the resume clone (``linked_bytes`` /
  ``copied_bytes``; ``full_profile_copy`` is the CI-gated verdict — true
  when bytes eligible for hard-linking were copied instead), the resume
  wall-clock, the child's peak-RSS delta across resume + one iteration,
  and whether the resumed run's fingerprint matches the uninterrupted
  run (also CI-gated);
* ``recovery`` — the crash-recovery bench: a durable 2k-user run is killed
  by an injected crash at the start of its final iteration and recovered
  via ``KNNEngine.recover`` (epoch verification, zero-copy restore, WAL
  tail replay).  Records the recovery wall-clock, how many WAL records
  were replayed, and whether the recovered run's final fingerprint matches
  the uninterrupted run (CI-gated);
* ``serving`` — the serving load bench: N simulated reader clients issue
  ``neighbors()`` queries against a live ``ServingRuntime`` while a writer
  streams profile-update batches, in a *sustained* phase (under the
  admission capacity) and a *burst* phase (overflowing it).  Records p99
  query latency and shed-request counts per phase, and the CI-gated
  verdicts: zero failed reads, snapshot isolation proven (reads landed
  mid-refresh with p99 far below the fastest refresh cycle), and burst
  load actually shed;
* ``sharded_million`` (``--million`` only) — one step-at-a-time iteration
  over 1M users in 64 partitions with ``memory_budget_bytes`` capping the
  partition cache at an eighth of the profile store: a breach raises
  ``MemoryError``, so a completed tier ran out-of-core within budget; its
  load/unload operations are recorded;
* ``graph_fingerprint`` — a hash of the final graph's edge set, so a perf
  regression hunt can immediately see whether behaviour changed too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import platform
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import PHASE_NAMES
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

SEED = 11
NUM_USERS = 2000
K = 10
NUM_PARTITIONS = 6
NUM_ITERATIONS = 2

#: Shape of the update-heavy amortisation workload (phase-5 gate): 4
#: iterations over 10k users with profile churn applied every iteration.
UPDATE_USERS = 10000
UPDATE_ITERATIONS = 4
UPDATE_PARTITIONS = 8
UPDATE_CHURN = 500          # users whose profile changes per iteration
UPDATE_ITEMS = 30000        # sparse catalogue size


def run_pipeline_bench() -> dict:
    profiles = generate_dense_profiles(NUM_USERS, dim=16, num_communities=8,
                                       seed=SEED)
    config = EngineConfig(k=K, num_partitions=NUM_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED)
    start = time.perf_counter()
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=NUM_ITERATIONS)
    wall = time.perf_counter() - start
    summary = run.summary()
    phase_seconds = summary["phase_seconds"]
    evaluations = summary["total_similarity_evaluations"]
    phase4 = phase_seconds[PHASE_NAMES[3]]
    return {
        "num_users": NUM_USERS,
        "k": K,
        "num_partitions": NUM_PARTITIONS,
        "num_iterations": NUM_ITERATIONS,
        "seed": SEED,
        "wall_seconds": round(wall, 4),
        "phase_seconds": {name: round(value, 4)
                          for name, value in phase_seconds.items()},
        "candidate_tuples": sum(result.num_candidate_tuples
                                for result in run.iterations),
        "similarity_evaluations": evaluations,
        "phase4_evaluations_per_second": round(evaluations / phase4) if phase4 else None,
        "graph_fingerprint": run.iterations[-1].graph.edge_fingerprint(),
    }


def _unvouched(method: str, on: bool):
    """While entered (and ``on``), the profile store's ``method`` —
    ``touched_rows_since`` or ``touched_partitions_since`` — cannot vouch
    for any delta: the engine's own fall-back to a full rescore or the full
    schedule, reached the way a reload or a recovery reaches it."""
    if not on:
        return contextlib.nullcontext()
    return mock.patch.object(OnDiskProfileStore, method,
                             lambda store, *args: None)


def _run_update_workload(kind: str, incremental: bool = True) -> dict:
    """One update-heavy engine run: per-iteration phase-4/5 seconds and bytes.

    ``incremental=False`` runs it against a store that cannot vouch for its
    row deltas (full rescore every iteration); the suite runs both so the
    report carries the incremental-vs-full timing delta and CI can assert
    the fingerprints stay bit-identical.
    """
    if kind == "dense":
        profiles = generate_dense_profiles(UPDATE_USERS, dim=16,
                                           num_communities=8, seed=SEED)
    else:
        profiles = generate_sparse_profiles(UPDATE_USERS, UPDATE_ITEMS,
                                            items_per_user=20,
                                            num_communities=8, seed=SEED)
    config = EngineConfig(k=K, num_partitions=UPDATE_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED)
    rng = np.random.default_rng(7)

    def churn(_iteration: int):
        users = rng.choice(UPDATE_USERS, size=UPDATE_CHURN, replace=False)
        if kind == "dense":
            return [ProfileChange(user=int(u), kind="set", vector=rng.random(16))
                    for u in users]
        return [ProfileChange(user=int(u), kind="add",
                              item=int(rng.integers(0, UPDATE_ITEMS)))
                for u in users]

    with _unvouched("touched_rows_since", not incremental), \
            KNNEngine(profiles, config) as engine:
        start = time.perf_counter()
        run = engine.run(num_iterations=UPDATE_ITERATIONS,
                         profile_change_feed=churn)
        wall = time.perf_counter() - start
    per_iteration = []
    for result in run.iterations:
        phases = result.phase_timer.as_dict()
        profile_io = getattr(result, "profile_io_stats", None)
        per_iteration.append({
            "phase4_seconds": round(phases[PHASE_NAMES[3]], 4),
            "phase5_seconds": round(phases[PHASE_NAMES[4]], 4),
            "updates_applied": result.profile_updates_applied,
            # incremental phase 4: kernel work vs cache reuse per iteration
            "rescored_tuples": result.similarity_evaluations,
            "reused_scores": result.reused_scores,
            "full_rescore": result.full_rescore,
            # phase-5 write traffic; iteration 0 also carries the initial
            # store write, so the update scaling is read from iterations 1+
            "profile_bytes_written": (profile_io.bytes_written
                                      if profile_io is not None else None),
        })
    phases = run.summary()["phase_seconds"]
    return {
        "kind": kind,
        "incremental_phase4": incremental,
        "num_users": UPDATE_USERS,
        "num_iterations": UPDATE_ITERATIONS,
        "num_partitions": UPDATE_PARTITIONS,
        "churn_per_iteration": UPDATE_CHURN,
        "wall_seconds": round(wall, 4),
        "phase4_seconds": round(phases[PHASE_NAMES[3]], 4),
        "phase5_seconds": round(phases[PHASE_NAMES[4]], 4),
        "phase2_seconds": round(phases[PHASE_NAMES[1]], 4),
        "rescored_tuples": sum(row["rescored_tuples"] for row in per_iteration),
        "reused_scores": sum(row["reused_scores"] for row in per_iteration),
        "iterations": per_iteration,
        "graph_fingerprint": run.final_graph.edge_fingerprint(),
    }


def run_update_workload_bench() -> dict:
    """The amortised-iteration-loop benchmark: dense + sparse churn runs.

    ``phase45_seconds`` (the combined phase-4 + phase-5 wall-clock across
    both runs, score cache on) is what the CI phase-5 regression gate
    compares.  Each workload is also re-run against a store that cannot
    vouch for its row deltas so the report carries the incremental-vs-full
    wall-clock delta, and ``incremental_fingerprints_match`` lets the CI
    gate fail hard if the cache ever changes a result bit.
    """
    dense = _run_update_workload("dense")
    sparse = _run_update_workload("sparse")
    dense_full = _run_update_workload("dense", incremental=False)
    sparse_full = _run_update_workload("sparse", incremental=False)
    combined = (dense["phase4_seconds"] + dense["phase5_seconds"]
                + sparse["phase4_seconds"] + sparse["phase5_seconds"])
    combined_full = (dense_full["phase4_seconds"] + dense_full["phase5_seconds"]
                     + sparse_full["phase4_seconds"] + sparse_full["phase5_seconds"])
    combined24 = (dense["phase2_seconds"] + dense["phase4_seconds"]
                  + sparse["phase2_seconds"] + sparse["phase4_seconds"])
    return {
        "dense": dense,
        "sparse": sparse,
        "full_rescore": {"dense": dense_full, "sparse": sparse_full},
        "phase45_seconds": round(combined, 4),
        "phase45_seconds_full": round(combined_full, 4),
        "phase24_seconds": round(combined24, 4),
        "phase5_seconds": round(dense["phase5_seconds"]
                                + sparse["phase5_seconds"], 4),
        "incremental_fingerprints_match": (
            dense["graph_fingerprint"] == dense_full["graph_fingerprint"]
            and sparse["graph_fingerprint"] == sparse_full["graph_fingerprint"]),
    }


#: Shape of the dirty-scheduling workload: the serving-loop steady state.
#: The same 10k users / 8 partitions / 500-row churn as the update
#: workload, but localised — the churned rows all live in the first
#: partition's row range and drift by a small Gaussian step instead of
#: being redrawn — and applied to a *converged* graph.  Uniform redraw
#: churn dirties every partition every iteration (nothing can skip, by
#: design); the localised drift leaves seven of eight partitions clean,
#: which is exactly the regime dirty scheduling exists for.
DIRTY_DRIFT_ITERATIONS = 4
DIRTY_DRIFT_SCALE = 0.02
DIRTY_WARMUP_CAP = 20


def _run_dirty_workload(dirty_scheduling: bool) -> dict:
    """One converged-then-drift run; drift-window schedule and parity stats.

    Warm-up runs until the graph stops changing (fingerprint-stable, capped)
    so the drift window measures the steady state, not residual convergence
    churn.  The warm-up length is a pure function of the data and therefore
    identical across the dirty-on/off twin runs.
    ``dirty_scheduling=False`` runs it against a store that cannot vouch
    for its partition deltas, which keeps the full schedule.
    """
    profiles = generate_dense_profiles(UPDATE_USERS, dim=16,
                                       num_communities=8, seed=SEED)
    matrix = profiles.matrix.copy()
    rng = np.random.default_rng(7)
    hot_rows = UPDATE_USERS // UPDATE_PARTITIONS   # the first partition
    config = EngineConfig(k=K, num_partitions=UPDATE_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED)

    def drift_batch():
        users = rng.choice(hot_rows, size=UPDATE_CHURN, replace=False)
        changes = []
        for user in users:
            matrix[user] = (matrix[user]
                            + rng.normal(scale=DIRTY_DRIFT_SCALE, size=16))
            changes.append(ProfileChange(user=int(user), kind="set",
                                         vector=matrix[user].copy()))
        return changes

    with _unvouched("touched_partitions_since", not dirty_scheduling), \
            KNNEngine(profiles, config) as engine:
        previous = engine.graph.edge_fingerprint()
        warmup = 0
        while warmup < DIRTY_WARMUP_CAP:
            fingerprint = engine.run_iteration().graph.edge_fingerprint()
            warmup += 1
            if fingerprint == previous:
                break
            previous = fingerprint
        drift_results = []
        start = time.perf_counter()
        for _ in range(DIRTY_DRIFT_ITERATIONS):
            engine.enqueue_profile_changes(drift_batch())
            drift_results.append(engine.run_iteration())
        drift_wall = time.perf_counter() - start
        final_fingerprint = engine.graph.edge_fingerprint()
        profile_sha256 = hashlib.sha256(
            (engine.profile_store.base_dir
             / "profiles_dense.bin").read_bytes()).hexdigest()
    steps_total = sum(result.steps_total for result in drift_results)
    steps_skipped = sum(result.steps_skipped for result in drift_results)
    phase4 = sum(result.phase_timer.as_dict()[PHASE_NAMES[3]]
                 for result in drift_results)
    return {
        "dirty_scheduling": dirty_scheduling,
        "warmup_iterations": warmup,
        "steps_skipped": steps_skipped,
        "steps_total": steps_total,
        "skip_rate": (round(steps_skipped / steps_total, 4)
                      if steps_total else None),
        "phase4_seconds": round(phase4, 4),
        "drift_wall_seconds": round(drift_wall, 4),
        "load_unload_operations": sum(result.load_unload_operations
                                      for result in drift_results),
        "similarity_evaluations": sum(result.similarity_evaluations
                                      for result in drift_results),
        "graph_fingerprint": final_fingerprint,
        "profile_sha256": profile_sha256,
    }


def run_dirty_scheduling_bench() -> dict:
    """Dirty-vs-full parity and skip-rate matrix (the PR-7 gate).

    One full-schedule reference run and one dirty-scheduled run over the
    identical converged-then-drift workload.  Gated quantities:
    ``fingerprints_match`` and ``profiles_match`` must stay true (skipping
    a step must never change a result bit — graphs *and* final profile
    bytes), and ``min_skip_rate`` (the dirty run's; the name the trajectory
    has always carried) must stay ≥ 0.6 (the steady-state saving that
    justifies the machinery).
    """
    full = _run_dirty_workload(False)
    dirty = _run_dirty_workload(True)
    return {
        "num_users": UPDATE_USERS,
        "num_partitions": UPDATE_PARTITIONS,
        "churn_per_iteration": UPDATE_CHURN,
        "drift_scale": DIRTY_DRIFT_SCALE,
        "drift_iterations": DIRTY_DRIFT_ITERATIONS,
        "full_schedule": full,
        "dirty": dirty,
        "min_skip_rate": dirty["skip_rate"],
        "fingerprints_match": (dirty["graph_fingerprint"]
                               == full["graph_fingerprint"]),
        "profiles_match": dirty["profile_sha256"] == full["profile_sha256"],
        "phase4_seconds_full": full["phase4_seconds"],
        "phase4_seconds_dirty": dirty["phase4_seconds"],
    }


#: Shape of the zero-copy resume bench (sparse: the hard-linkable layout).
RESUME_USERS = 10000


def _resume_child(checkpoint_dir: str, conn) -> None:
    """Resume + one iteration; report RSS and clone accounting over ``conn``.

    Run in a forked child so the peak-RSS delta isolates the resume path
    (the parent's bench history does not move the child's high-water mark
    after the fork point).
    """
    try:
        import resource  # unix-only; the no-fork fallback path has no RSS
        rusage = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:
        rusage = lambda: 0
    rss_before = rusage()
    start = time.perf_counter()
    with KNNEngine.from_checkpoint(checkpoint_dir) as engine:
        resume_seconds = time.perf_counter() - start
        stats = engine.resume_clone_stats
        fingerprint = engine.run_iteration().graph.edge_fingerprint()
    rss_after = rusage()
    conn.send({
        "resume_seconds": resume_seconds,
        "peak_rss_kb_before": rss_before,
        "peak_rss_kb_after": rss_after,
        "linked_files": stats.linked_files,
        "copied_files": stats.copied_files,
        "linked_bytes": stats.linked_bytes,
        "copied_bytes": stats.copied_bytes,
        "fingerprint": fingerprint,
    })
    conn.close()


class _InProcessSink:
    """Pipe stand-in when no fork is available (same-process measurement)."""

    def send(self, payload):
        self.payload = payload

    def close(self):
        pass


def run_resume_bench() -> dict:
    """Checkpoint a 10k-user sparse engine and measure the zero-copy resume.

    The gated quantities: ``full_profile_copy`` must stay false (every
    byte eligible for hard-linking was linked, so no full profile copy was
    materialised) and ``resumed_fingerprint_matches`` must stay true (the
    resumed iteration equals the uninterrupted one bit for bit).  The
    peak-RSS delta and resume wall-clock are trajectory records.
    """
    from repro.storage.profile_store import OnDiskProfileStore

    profiles = generate_sparse_profiles(RESUME_USERS, UPDATE_ITEMS,
                                        items_per_user=20,
                                        num_communities=8, seed=SEED)
    config = EngineConfig(k=K, num_partitions=UPDATE_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED)
    with tempfile.TemporaryDirectory(prefix="repro-resume-") as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            engine.save_checkpoint(checkpoint_dir)
            uninterrupted = engine.run_iteration().graph.edge_fingerprint()
        snapshot_files = sorted((checkpoint_dir / "profiles").glob("profiles_*"))
        snapshot_bytes = sum(path.stat().st_size for path in snapshot_files)
        linkable_bytes = sum(
            path.stat().st_size for path in snapshot_files
            if OnDiskProfileStore.linkable_snapshot_file(path.name))
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            parent_conn, child_conn = context.Pipe()
            child = context.Process(target=_resume_child,
                                    args=(str(checkpoint_dir), child_conn))
            child.start()
            # drop the parent's write end so a child that dies before
            # sending surfaces as EOFError instead of a recv() hang
            child_conn.close()
            try:
                payload = parent_conn.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    "resume bench child exited before reporting "
                    f"(exit code {child.exitcode}) — the resume path failed")
            child.join()
            isolated = True
        else:
            sink = _InProcessSink()
            _resume_child(str(checkpoint_dir), sink)
            payload = sink.payload
            isolated = False
    return {
        "kind": "sparse",
        "num_users": RESUME_USERS,
        "snapshot_profile_bytes": snapshot_bytes,
        "linkable_bytes": linkable_bytes,
        "linked_files": payload["linked_files"],
        "copied_files": payload["copied_files"],
        "linked_bytes": payload["linked_bytes"],
        "copied_bytes": payload["copied_bytes"],
        # true when bytes that *should* have become hard links were copied:
        # the resume materialised (part of) a profile copy — CI fails on it
        "full_profile_copy": bool(linkable_bytes > 0
                                  and payload["linked_bytes"] < linkable_bytes),
        "resume_seconds": round(payload["resume_seconds"], 4),
        "peak_rss_kb_delta": (payload["peak_rss_kb_after"]
                              - payload["peak_rss_kb_before"]),
        "peak_rss_kb_after": payload["peak_rss_kb_after"],
        "isolated_process": isolated,
        "resumed_fingerprint_matches": payload["fingerprint"] == uninterrupted,
    }


#: Shape of the crash-recovery bench: a durable run is crashed at the
#: start of its third iteration and recovered from the committed epochs.
RECOVERY_USERS = 2000
RECOVERY_ITERATIONS = 3
RECOVERY_CHURN = 100


def run_recovery_bench() -> dict:
    """Crash a durable run mid-flight and measure ``KNNEngine.recover``.

    The gated quantity: ``recovered_fingerprint_matches`` must stay true —
    kill → recover → finish equals the uninterrupted run bit for bit, with
    the WAL tail replayed exactly once.  ``recover_seconds`` (checkpoint
    verification + zero-copy restore + WAL replay) and ``wal_replayed``
    are trajectory records.
    """
    from repro.testing import FaultPlan, InjectedCrash

    def fresh_profiles():
        return generate_dense_profiles(RECOVERY_USERS, dim=16,
                                       num_communities=8, seed=SEED)

    def once_feed():
        fed = set()

        def feed(iteration):
            if iteration in fed:
                return []
            fed.add(iteration)
            rng = np.random.default_rng(1000 + iteration)
            users = rng.choice(RECOVERY_USERS, size=RECOVERY_CHURN,
                               replace=False)
            return [ProfileChange(user=int(u), kind="set",
                                  vector=rng.random(16)) for u in users]

        return feed

    def config(**overrides):
        return EngineConfig(k=K, num_partitions=NUM_PARTITIONS,
                            heuristic="degree-low-high", seed=SEED,
                            **overrides)

    with KNNEngine(fresh_profiles(), config()) as engine:
        engine.run(RECOVERY_ITERATIONS, profile_change_feed=once_feed())
        uninterrupted = engine.graph.edge_fingerprint()

    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        workdir = Path(tmp) / "work"
        plan = FaultPlan().crash_at("iteration.begin",
                                    occurrence=RECOVERY_ITERATIONS)
        feed = once_feed()
        engine = KNNEngine(fresh_profiles(),
                           config(durable=True, fault_plan=plan),
                           workdir=workdir)
        try:
            engine.run(RECOVERY_ITERATIONS, profile_change_feed=feed)
            raise RuntimeError("injected crash never fired")
        except InjectedCrash:
            pass
        finally:
            engine.close()
        start = time.perf_counter()
        recovered = KNNEngine.recover(workdir)
        recover_seconds = time.perf_counter() - start
        try:
            resumed_at = recovered.iterations_run
            wal_replayed = recovered.wal_replayed
            recovered.run(RECOVERY_ITERATIONS - resumed_at,
                          profile_change_feed=feed)
            fingerprint = recovered.graph.edge_fingerprint()
        finally:
            recovered.close()
    return {
        "num_users": RECOVERY_USERS,
        "num_iterations": RECOVERY_ITERATIONS,
        "churn_per_iteration": RECOVERY_CHURN,
        "crashed_at_iteration": RECOVERY_ITERATIONS - 1,
        "resumed_at_iteration": resumed_at,
        "wal_replayed": wal_replayed,
        "recover_seconds": round(recover_seconds, 4),
        "recovered_fingerprint_matches": fingerprint == uninterrupted,
    }


#: Shape of the serving load bench: N simulated clients querying an
#: always-on :class:`ServingRuntime` while a writer streams update batches.
SERVING_USERS = 1500
SERVING_READERS = 4
SERVING_CAPACITY = 1000
SERVING_SUSTAINED_SECONDS = 3.0
SERVING_BURST_SECONDS = 2.0
SERVING_SUSTAINED_BATCH = 20
SERVING_BURST_BATCH = 600


def run_serving_bench() -> dict:
    """Sustained concurrent read+write against the serving runtime.

    Two phases: ``sustained`` (steady update stream under the admission
    capacity) and ``burst`` (oversized batches that must overflow the
    bound and be shed — proving admission control actually sheds instead
    of queueing unboundedly).  The gated quantities:

    * ``query_failures`` must be 0 — every read under load is answered
      within its deadline, refresh or no refresh;
    * ``snapshot_isolation_proven`` must be true — reads landed *while* a
      refresh iteration was in flight, and their p99 is far below the
      fastest full refresh cycle, so no read ever blocked on one
      (asserted, not assumed);
    * ``burst_shed_changes`` must be > 0 — the backpressure signal fired.

    The p99 latencies per phase are trajectory records.
    """
    from random import Random

    from repro.service import LoadGenerator, ServingRuntime, dense_set_batch

    profiles = generate_dense_profiles(SERVING_USERS, dim=16,
                                       num_communities=8, seed=SEED)
    config = EngineConfig(k=K, num_partitions=UPDATE_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED)
    rng = Random(SEED)
    with ServingRuntime(profiles, config,
                        admission_capacity=SERVING_CAPACITY,
                        default_deadline_seconds=5.0,
                        refresh_poll_interval=0.01) as service:
        generator = LoadGenerator(service, num_users=SERVING_USERS,
                                  num_readers=SERVING_READERS,
                                  deadline_seconds=5.0, seed=SEED)

        def sustained_writer():
            service.submit_updates(dense_set_batch(
                SERVING_USERS, 16, SERVING_SUSTAINED_BATCH, rng))

        def burst_writer():
            service.submit_updates(dense_set_batch(
                SERVING_USERS, 16, SERVING_BURST_BATCH, rng))

        sustained = generator.run_phase(
            "sustained", SERVING_SUSTAINED_SECONDS,
            writer=sustained_writer, writer_interval=0.05)
        # the isolation proof needs at least one *completed* refresh cycle
        # as the timing yardstick; on a slow machine the sustained window
        # may end mid-iteration, so wait the cycle out before bursting
        wait_deadline = time.monotonic() + 120.0
        while (service.supervisor.refreshes < 1
               and time.monotonic() < wait_deadline):
            time.sleep(0.05)
        burst = generator.run_phase(
            "burst", SERVING_BURST_SECONDS,
            writer=burst_writer, writer_interval=0.005)
        min_refresh = service.supervisor.min_refresh_seconds
        stats = service.stats()
        service.stop(drain=True)

    query_failures = sustained.query_failures + burst.query_failures
    during_refresh = (sustained.queries_during_refresh
                      + burst.queries_during_refresh)
    worst_p99 = max(sustained.p99_query_seconds, burst.p99_query_seconds)
    # a read that blocked on the in-flight iteration would take at least
    # one refresh cycle; p99 far below the *fastest* cycle proves none did
    isolation_proven = bool(during_refresh > 0
                            and min_refresh is not None
                            and worst_p99 < min_refresh / 10.0)
    return {
        "num_users": SERVING_USERS,
        "num_readers": SERVING_READERS,
        "admission_capacity": SERVING_CAPACITY,
        "phases": {"sustained": sustained.as_dict(), "burst": burst.as_dict()},
        "queries": sustained.queries + burst.queries,
        "query_failures": query_failures,
        "queries_during_refresh": during_refresh,
        "p99_sustained_seconds": sustained.p99_query_seconds,
        "p99_burst_seconds": burst.p99_query_seconds,
        "min_refresh_seconds": (round(min_refresh, 4)
                                if min_refresh is not None else None),
        "refreshes": stats["refreshes"],
        "restarts": stats["restarts"],
        "accepted_changes": stats["accepted_changes"],
        "burst_shed_changes": burst.shed_changes,
        "snapshot_isolation_proven": isolation_proven,
    }


#: Shape of the million-user tier (run with ``--million``): one
#: step-at-a-time iteration over 1M dense users in 64 partitions, with the
#: partition cache capped at an eighth of the profile store — the
#: out-of-core claim at serving scale, enforced (MemoryError, not a silent
#: spill) by the cache's ``MemoryBudget``.
MILLION_USERS = 1_000_000
MILLION_PARTITIONS = 64
MILLION_DIM = 8
MILLION_K = 4


def run_million_user_bench() -> dict:
    """One step-at-a-time iteration at ≥ 1M users under a hard byte budget.

    ``memory_budget_bytes`` caps the partition cache at a small fraction of
    the store (``budget_fraction_of_store``).  A load that would breach it
    raises ``MemoryError`` and fails the bench outright, so a completed
    tier ran out-of-core within budget; the gate (checked only when the
    section is present) asks that it recorded its load/unload operations.
    """
    profiles = generate_dense_profiles(MILLION_USERS, dim=MILLION_DIM,
                                       num_communities=16, seed=SEED)
    store_bytes = int(profiles.matrix.nbytes)
    # two resident partitions — their rows, ids and edge lists — are ~1/10
    # of the store; an eighth still forces out-of-core execution
    budget_bytes = store_bytes // 8
    config = EngineConfig(k=MILLION_K, num_partitions=MILLION_PARTITIONS,
                          heuristic="degree-low-high", seed=SEED,
                          memory_budget_bytes=budget_bytes,
                          max_pairs_per_bridge=1)
    start = time.perf_counter()
    with KNNEngine(profiles, config) as engine:
        result = engine.run_iteration()
        wall = time.perf_counter() - start
    phase4 = result.phase_timer.as_dict()[PHASE_NAMES[3]]
    return {
        "num_users": MILLION_USERS,
        "num_partitions": MILLION_PARTITIONS,
        "dim": MILLION_DIM,
        "k": MILLION_K,
        "store_bytes": store_bytes,
        "memory_budget_bytes": budget_bytes,
        "budget_fraction_of_store": round(budget_bytes / store_bytes, 4),
        "wall_seconds": round(wall, 4),
        "phase4_seconds": round(phase4, 4),
        "similarity_evaluations": result.similarity_evaluations,
        "load_unload_operations": result.load_unload_operations,
        "graph_fingerprint": result.graph.edge_fingerprint(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_perf.json")
    parser.add_argument("--quick", action="store_true",
                        help="accepted for existing invocations: the suite "
                             "runs only the benches the CI gate compares")
    parser.add_argument("--million", action="store_true",
                        help="also run the 1M-user out-of-core tier "
                             "(~1.2 GB peak RSS; gated only when "
                             "present in the report)")
    parser.add_argument("--skip-invariant-lint", action="store_true",
                        help="skip the static-analysis preflight (escape "
                             "hatch for benching a deliberately-dirty tree)")
    args = parser.parse_args()

    if not args.skip_invariant_lint:
        # Preflight: refuse to record a perf trajectory point for a tree
        # that violates the repo's invariants (scheduler purity, lock
        # discipline, crash-point coverage, durable-write protocol, memmap
        # hygiene — see docs/static-analysis.md).  A benched-but-broken
        # tree poisons the committed baseline.
        from repro.analysis import analyze
        lint = analyze(Path(__file__).resolve().parent.parent)
        print(lint.summary())
        if not lint.is_clean:
            print(lint.render())
            raise SystemExit("invariant lint failed; fix the findings or "
                             "rerun with --skip-invariant-lint")

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pipeline": run_pipeline_bench(),
        # the CI gate compares its combined phase-4+5 time
        "update_workload": run_update_workload_bench(),
        # the CI gate fails on a materialised profile copy
        # or a resumed-fingerprint mismatch
        "resume": run_resume_bench(),
        # the CI gate fails when a crashed durable run
        # does not recover to the uninterrupted fingerprint
        "recovery": run_recovery_bench(),
        # the CI gate fails on dirty-vs-full fingerprint
        # or profile-byte divergence, or a skip rate below 60%
        "dirty_scheduling": run_dirty_scheduling_bench(),
        # the CI gate fails on any failed read under load,
        # on unproven snapshot isolation, or when burst load is not shed
        "serving": run_serving_bench(),
    }
    if args.million:
        report["sharded_million"] = run_million_user_bench()
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
