"""The per-layer ledger: which public callables are wrapped, and how their
spans and the counts read at the same boundaries become named metrics.

Layers are the packages under ``src/repro/``.  Every ``*.self_s`` is the
summed self time of the wrapped callable(s) over the traced run, every
``*.busy_s`` the summed inclusive time, and each has a ``*.calls``
companion.  Counts come from public result objects only
(``IterationResult``, ``IOStats``, ``ServingRuntime.stats()``,
``MemoryBudget.peak_bytes``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import Span, Target, aggregate, root_seconds

Metric = Tuple[float, str]

#: (module whose namespace the caller reads, attribute, span name, subclasses)
_WRAPPED = (
    # partition
    ("repro.partition.partitioners", "Partitioner.assign", "partition.assign", True),
    ("repro.core.iteration", "build_partitions", "partition.build", False),
    # tuples
    ("repro.core.iteration", "generate_candidate_tuples", "tuples.generate", False),
    ("repro.tuples.hash_table", "TupleHashTable.add_array", "tuples.dedup", False),
    ("repro.tuples.hash_table", "TupleHashTable.tuples_for", "tuples.fetch", False),
    # pigraph
    ("repro.pigraph.pi_graph", "PIGraph.from_tuple_table", "pigraph.build", False),
    ("repro.pigraph.traversal", "TraversalHeuristic.plan", "pigraph.plan", True),
    ("repro.core.iteration", "simulate_schedule", "pigraph.plan", False),
    ("repro.core.iteration", "plan_dirty_schedule", "pigraph.dirty_plan", False),
    # storage
    ("repro.storage.partition_store", "PartitionStore.replace_all", "storage.partition_write", False),
    ("repro.storage.memory_manager", "PartitionCache.acquire_pair", "storage.partition_acquire", False),
    ("repro.storage.memory_manager", "PartitionCache.flush", "storage.partition_acquire", False),
    ("repro.storage.profile_store", "OnDiskProfileStore.load_users", "storage.profile_load", False),
    ("repro.storage.profile_store", "ProfileSlice.merge", "storage.slice_merge", False),
    ("repro.storage.profile_store", "ProfileSlice.merge_indexed", "storage.slice_merge", False),
    ("repro.storage.profile_store", "ProfileSlice.similarity_pairs", "storage.pair_gather", False),
    ("repro.storage.profile_store", "OnDiskProfileStore.apply_changes", "storage.profile_apply", False),
    ("repro.storage.profile_store", "OnDiskProfileStore.touched_rows_since", "storage.touched_query", False),
    ("repro.storage.profile_store", "OnDiskProfileStore.touched_partitions_since", "storage.touched_query", False),
    # similarity
    ("repro.similarity.measures", "vector_measure_batch", "similarity.kernel", False),
    ("repro.similarity.measures", "cosine_from_norms", "similarity.kernel", False),
    ("repro.similarity.measures", "SetProfileCSR.measure_pairs", "similarity.kernel", False),
    # graph
    ("repro.graph.knn_graph", "KNNGraph.to_csr", "graph.to_csr", False),
    ("repro.graph.knn_graph", "KNNGraph.add_candidates_sharded", "graph.topk_merge", False),
    ("repro.service.snapshot", "load_checkpoint", "graph.load", False),
    ("repro.core.checkpoint", "load_checkpoint", "graph.load", False),
    # core
    ("repro.core.iteration", "OutOfCoreIteration.run", "core.iteration_glue", False),
    ("repro.core.iteration", "score_tuples", "core.score_dispatch", False),
    ("repro.core.iteration", "Phase4ScoreCache.lookup", "core.cache_lookup", False),
    ("repro.core.iteration", "Phase4ScoreCache.merge", "core.cache_merge", False),
    ("repro.core.update_queue", "ProfileUpdateQueue.drain", "core.queue_drain", False),
    ("repro.core.update_queue", "ProfileUpdateQueue.enqueue_many", "core.wal_append", False),
    ("repro.core.update_queue", "ProfileUpdateQueue.truncate_wal", "core.wal_truncate", False),
    ("repro.core.engine", "KNNEngine.save_checkpoint", "core.checkpoint_save", False),
    ("repro.core.engine", "write_checkpoint_checksums", "core.checksum", False),
    ("repro.core.engine", "verify_checkpoint", "core.verify", False),
    ("repro.core.checkpoint", "clone_profile_files", "core.clone", False),
    ("repro.core.engine", "KNNEngine.recover", "core.recover", False),
    # service
    ("repro.service.supervisor", "RefreshSupervisor.run_one_refresh", "service.refresh", False),
    ("repro.service.snapshot", "SnapshotView.from_commit", "service.snapshot_clone", False),
    ("repro.service.admission", "AdmissionController.submit", "service.admit", False),
    ("repro.service.runtime", "ServingRuntime.neighbors", "service.read", False),
)

#: Spans reported by their self time.  ``KNNEngine.run_iteration``'s self
#: time is the commit; ``OutOfCoreIteration.run``'s is the phase-4/5 glue no
#: wrapped callee accounts for.
SELF_STEMS = tuple(dict.fromkeys(
    name for _, _, name, _ in _WRAPPED
    if name not in ("core.recover", "service.refresh"))) + ("core.commit",)

#: Spans reported inclusively: metric stem -> span name.
BUSY_STEMS = {"core.iteration": "core.iteration_glue",
              "core.recover": "core.recover",
              "service.refresh": "service.refresh"}


class Counts:
    """What the taps read off public objects during a run."""

    def __init__(self):
        self.iterations: List[dict] = []
        self.budget_peak_bytes = 0.0

    def iteration_tap(self, args, kwargs, result) -> None:
        io = result.io_stats
        self.iterations.append({
            "at": time.perf_counter(),
            "tuples": result.num_candidate_tuples,
            "evals": result.similarity_evaluations,
            "reused": result.reused_scores,
            "steps_total": result.steps_total,
            "steps_skipped": result.steps_skipped,
            "load_unload": result.load_unload_operations,
            "bytes_read": io.bytes_read,
            "bytes_written": io.bytes_written,
        })

    def budget_tap(self, args, kwargs, result) -> None:
        peak = args[0].peak_bytes
        if peak > self.budget_peak_bytes:
            self.budget_peak_bytes = peak

    def total(self, key: str) -> int:
        return sum(record[key] for record in self.iterations)


def result_tap(counts: Counts) -> Target:
    """The one wrapper an *untraced* serving run needs: ``run_one_refresh``
    discards the ``IterationResult``, so the counts are read off
    ``KNNEngine.run_iteration``'s return value — untimed, no span."""
    return Target("repro.core.engine", "KNNEngine.run_iteration", "core.commit",
                  tap=counts.iteration_tap, timed=False)


def trace_targets(counts: Counts) -> List[Target]:
    targets = [Target(module, attr, name, subclasses=subclasses)
               for module, attr, name, subclasses in _WRAPPED]
    targets.append(Target("repro.core.engine", "KNNEngine.run_iteration",
                          "core.commit", tap=counts.iteration_tap))
    targets.append(Target("repro.storage.memory_manager", "MemoryBudget.allocate",
                          "storage.budget", tap=counts.budget_tap, timed=False))
    return targets


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(spans: Sequence[Span], counts: Counts,
              service: Optional[Dict[str, Metric]] = None) -> Dict[str, Metric]:
    """Every per-layer metric named in ``BENCHMARK.json`` except the two
    that compare runs (``trace_overhead_frac`` is added by the caller)."""
    spans = list(spans)
    totals = aggregate(spans)
    empty = {"calls": 0, "self_s": 0.0, "busy_s": 0.0}
    metrics: Dict[str, Metric] = {}
    for stem in SELF_STEMS:
        entry = totals.get(stem, empty)
        metrics[f"{stem}.self_s"] = (entry["self_s"], "s")
        metrics[f"{stem}.calls"] = (entry["calls"], "count")
    for stem, span_name in BUSY_STEMS.items():
        entry = totals.get(span_name, empty)
        metrics[f"{stem}.busy_s"] = (entry["busy_s"], "s")
        metrics[f"{stem}.calls"] = (entry["calls"], "count")

    evals = counts.total("evals")
    reused = counts.total("reused")
    steps_total = counts.total("steps_total")
    steps_skipped = counts.total("steps_skipped")
    metrics["tuples.candidates"] = (counts.total("tuples"), "count")
    metrics["pigraph.steps_total"] = (steps_total, "count")
    metrics["pigraph.steps_skipped"] = (steps_skipped, "count")
    metrics["pigraph.skip_ratio"] = (_ratio(steps_skipped, steps_total), "ratio")
    metrics["storage.load_unload_ops"] = (counts.total("load_unload"), "count")
    metrics["storage.bytes_read"] = (counts.total("bytes_read"), "B")
    metrics["storage.bytes_written"] = (counts.total("bytes_written"), "B")
    metrics["storage.budget_peak_bytes"] = (counts.budget_peak_bytes, "B")
    metrics["similarity.evals"] = (evals, "count")
    metrics["similarity.evals_per_s"] = (
        _ratio(evals, metrics["similarity.kernel.self_s"][0]), "1/s")
    metrics["core.cache_hit_ratio"] = (_ratio(reused, reused + evals), "ratio")

    named = sum(value for name, (value, _) in metrics.items()
                if name.endswith(".self_s"))
    metrics["unattributed_frac"] = (
        max(0.0, 1.0 - _ratio(named, root_seconds(spans))), "ratio")
    metrics.update(service or SERVICE_ABSENT)
    return metrics


#: The service-side samples of a workload that has no service.
SERVICE_ABSENT: Dict[str, Metric] = {
    "service.refresh_idle_frac": (0.0, "ratio"),
    "service.submit_p50_ms": (0.0, "ms"),
    "service.submit_p99_ms": (0.0, "ms"),
    "service.read_p50_us": (0.0, "us"),
    "service.read_p99_us": (0.0, "us"),
    "service.read_p999_us": (0.0, "us"),
    "service.reader_late_p99_us": (0.0, "us"),
    "service.visible_cycles": (0.0, "ratio"),
    "service.shed_batches": (0, "count"),
    "service.restarts": (0, "count"),
}


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in ledger order (``BENCHMARK.json`` and
    the tests are checked against this)."""
    names = list(per_layer([], Counts()))
    names.append("trace_overhead_frac")
    return names
