"""Engine configuration.

All knobs of the out-of-core KNN engine live in one frozen dataclass so that
experiments are fully described by (dataset, profiles, EngineConfig, seed).
Defaults reproduce the paper's setup: two resident partitions, the
sequential traversal heuristic as the baseline, and direct edges included in
the candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.core.parallel import BACKENDS
from repro.pigraph.traversal import HEURISTICS
from repro.partition.partitioners import available_partitioners
from repro.similarity.measures import MEASURES
from repro.storage.disk_model import DISK_PRESETS, DiskModel
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one :class:`~repro.core.engine.KNNEngine` instance.

    Parameters
    ----------
    k:
        Number of nearest neighbours maintained per user.
    num_partitions:
        ``m`` — the number of phase-1 partitions.
    partitioner:
        Phase-1 strategy: ``contiguous`` (the paper's n/m split), ``hash``,
        ``ldg`` or ``greedy-locality``.
    heuristic:
        PI-graph traversal heuristic: ``sequential``, ``degree-high-low``,
        ``degree-low-high``, ``greedy-resident`` or ``cost-aware``.
    measure:
        Similarity measure name; ``None`` uses the profile store's default
        (Jaccard for sparse profiles, cosine for dense ones).
    disk_model:
        ``"hdd"``, ``"ssd"``, ``"instant"`` or a custom
        :class:`~repro.storage.disk_model.DiskModel`.
    max_resident_partitions:
        Cache slots for phase 4; the paper uses 2.
    memory_budget_bytes:
        Optional hard byte budget for the resident partitions (``None`` =
        only the slot limit applies).  A resident partition is charged its
        edge lists (16 B an in- or out-edge), its vertex ids (8 B each) and
        the profile rows of its users; ``G(t)``, ``H`` and the score slab
        are in-core and outside the budget.
    include_direct_edges:
        Whether the direct edges of ``G(t)`` are added to the hash table
        alongside the neighbours-of-neighbours tuples (the paper does).
    max_pairs_per_bridge:
        Optional cap on the per-bridge-vertex cross product when generating
        candidate tuples (``None`` reproduces the paper exactly).
    backend:
        Who runs phase 4's similarity kernel
        (:class:`~repro.core.parallel.ScoringWorkers`): ``"serial"`` (the
        calling thread), ``"thread"`` (a GIL-sharing thread pool) or
        ``"process"`` (forked workers that re-open the profile store
        read-only by path and score against mmap-served slices).  All three
        produce bit-identical graphs.
    num_workers:
        Width of whichever pool ``backend`` names.  ``1`` (or ``"process"``
        on a platform without ``fork``) builds no pool and scores on the
        calling thread — identical results, no hand-over cost.
    profile_segment_rows:
        Row count per on-disk sparse profile segment (the unit phase-5
        incremental updates rewrite).  ``None`` aligns segments with the
        contiguous partitioner's n/m split (one segment per partition) and
        falls back to the store's default for scattering partitioners.
    incremental_phase4:
        Reuse the previous iteration's similarity scores for candidate
        tuples whose endpoints' profiles are unchanged (tracked through the
        profile store's touched-row deltas).  Scores are deterministic per
        pair, so the produced graphs are **bit-identical** with the toggle
        on or off; iterations after the first just rescore only tuples with
        at least one touched endpoint (plus never-seen pairs).
    dirty_scheduling:
        Plan each iteration's residency steps around the partitions the
        update churn actually touched: steps whose two partitions are both
        clean and whose pair was scored at the score cache's generation are
        served from the cache without loading a partition, and the
        remaining steps run dirty-first (convergence-driven ordering).
        Needs ``incremental_phase4``; every situation the delta history
        cannot vouch for (reload, compaction, recovery) falls back to the
        full schedule.  Produced graphs are **bit-identical** with the
        toggle on or off — per-tuple cache validity is still checked
        against the touched-row mask, and the G(t+1) merge is a pure
        function of the scored candidate multiset.
    score_cache_entries:
        Capacity of the phase-4 score cache in (pair, score) entries
        (16 bytes each).  An iteration whose scored tuple set exceeds the
        cap leaves the cache empty — the next iteration then rescores
        everything — so memory stays bounded on huge candidate sets.
    shard_parallel:
        Execute *whole residency steps* concurrently instead of one step at
        a time: the steps that need their partitions are colored into waves
        of pairwise partition-disjoint steps (``plan_shard_schedule``) and
        each wave is one call across the worker seam, every worker
        exclusively owning its step's partitions for the wave.  Produced
        graphs and profile bytes stay **bit-identical** with the toggle on
        or off, on every backend.  ``memory_budget_bytes`` then caps each
        *worker's* resident profile bytes (its step's slices) instead of the
        partition cache.  Off by default: one-step-at-a-time residency is
        the paper's cost model, and waves pay up to twice its load/unload
        operations.
    seed:
        Seed for the random initial KNN graph.
    shard_timeout_seconds:
        Per-shard watchdog timeout for the ``process`` backend: a shard
        whose worker produces no result within this many seconds is treated
        as hung, the pool is respawned and the shard retried (default
        ``None`` = wait forever, the historical behaviour).
    durable:
        Run the engine in fault-tolerant mode: queued profile changes go
        through an fsynced write-ahead log, every iteration commits a
        checksummed checkpoint epoch under ``workdir/commits/``, and
        :meth:`~repro.core.engine.KNNEngine.recover` can resume the run
        after a crash with exactly-once update semantics.  Off by default —
        durability costs one checkpoint write per iteration.
    fault_plan:
        Optional :class:`repro.testing.faults.FaultPlan` consulted at the
        runtime's named crash points and file-operation hooks.  Tests and
        benchmarks use it to script exact failure schedules; production
        runs leave it ``None`` (the hooks are no-ops).  The plan is live
        runtime state: it is excluded from checkpoint manifests and shared
        (never copied) by ``with_overrides``.
    """

    k: int = 10
    num_partitions: int = 8
    partitioner: str = "contiguous"
    heuristic: str = "sequential"
    measure: Optional[str] = None
    disk_model: Union[str, DiskModel] = "ssd"
    max_resident_partitions: int = 2
    memory_budget_bytes: Optional[float] = None
    include_direct_edges: bool = True
    max_pairs_per_bridge: Optional[int] = None
    backend: str = "thread"
    num_workers: int = 1
    profile_segment_rows: Optional[int] = None
    incremental_phase4: bool = True
    dirty_scheduling: bool = True
    score_cache_entries: int = 4_000_000
    shard_parallel: bool = False
    seed: Optional[int] = 0
    shard_timeout_seconds: Optional[float] = None
    durable: bool = False
    fault_plan: Optional[object] = None

    def __post_init__(self):
        check_positive_int(self.k, "k")
        check_positive_int(self.num_partitions, "num_partitions")
        check_positive_int(self.max_resident_partitions, "max_resident_partitions")
        check_positive_int(self.num_workers, "num_workers")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {', '.join(BACKENDS)}"
            )
        if self.max_resident_partitions < 2:
            raise ValueError(
                "max_resident_partitions must be at least 2: phase 4 needs the two "
                "partitions of a PI edge resident simultaneously"
            )
        if self.partitioner not in available_partitioners():
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                f"known: {', '.join(available_partitioners())}"
            )
        if self.heuristic not in HEURISTICS:
            raise ValueError(
                f"unknown heuristic {self.heuristic!r}; known: {', '.join(sorted(HEURISTICS))}"
            )
        if self.measure is not None and self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; known: {', '.join(sorted(MEASURES))}"
            )
        if isinstance(self.disk_model, str) and self.disk_model not in DISK_PRESETS:
            raise ValueError(
                f"unknown disk model {self.disk_model!r}; "
                f"known presets: {', '.join(sorted(DISK_PRESETS))}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive when given")
        if self.max_pairs_per_bridge is not None and self.max_pairs_per_bridge <= 0:
            raise ValueError("max_pairs_per_bridge must be positive when given")
        if self.profile_segment_rows is not None and self.profile_segment_rows <= 0:
            raise ValueError("profile_segment_rows must be positive when given")
        check_positive_int(self.score_cache_entries, "score_cache_entries")
        if self.shard_timeout_seconds is not None and self.shard_timeout_seconds <= 0:
            raise ValueError("shard_timeout_seconds must be positive when given")

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)
