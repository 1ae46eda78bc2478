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
        ``degree-low-high`` or ``greedy-resident``.
    measure:
        Similarity measure name; ``None`` uses the profile store's default
        (Jaccard for sparse profiles, cosine for dense ones).
    disk_model:
        ``"hdd"``, ``"ssd"``, ``"instant"`` or a custom
        :class:`~repro.storage.disk_model.DiskModel`.
    max_resident_partitions:
        Cache slots for phase 4; the paper uses 2.
    memory_budget_bytes:
        Optional hard byte cap of phase 4's partition cache (``None`` =
        only the slot limit applies); a load that would exceed it raises
        ``MemoryError``.  A resident partition is charged its edge lists
        (16 B an in- or out-edge), its vertex ids (8 B each) and the profile
        rows of its users (for item sets, 8 B a stored item); ``G(t)``,
        ``H`` and the score slab are in-core and outside the budget.  A
        sparse slice's resident bytes also include what the set kernel
        derives from it — a membership bitmap of at most 32× its codes'
        bytes (3.8× at 4,000 users, 15.7× at 40,000 in 8 partitions) and
        fixed-width rows of at most 1× — and the budget holds that too:
        each step splits the bytes the cache leaves free evenly between the
        cached slices, a slice builds derived state only inside its share
        and drops it when a later share is smaller, and scoring falls back
        to the search, with the same scores (see ``docs/performance.md``,
        "The set kernel").
    include_direct_edges:
        Whether the direct edges of ``G(t)`` are added to the hash table
        alongside the neighbours-of-neighbours tuples (the paper does).
    max_pairs_per_bridge:
        Optional cap on the per-bridge-vertex cross product when generating
        candidate tuples (``None`` reproduces the paper exactly).
    score_cache_entries:
        Capacity of the carried state's scores
        (:class:`~repro.core.iteration.Phase4ScoreCache`) in (pair, score)
        entries (16 bytes each).  An iteration whose scored tuple set
        exceeds the cap leaves no scores (``G(t)`` and ``H`` stay; the next
        iteration rescores everything), so memory stays bounded.

        The carried state has no switch: a score depends only on its two
        endpoint profiles, so phase 4 always reuses the scores of tuples
        whose endpoints the store's touched-row deltas report unchanged,
        and always serves residency steps whose two partitions stayed clean
        from them (dirty steps first).  Where the delta history cannot
        vouch for the churn — cold start, ``reload()``, delta-log
        rollover, recovery or resume — the iteration rescores everything
        on the full schedule.  Produced graphs are bit-identical either way.
    seed:
        Seed for the random initial KNN graph.
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
    score_cache_entries: int = 4_000_000
    seed: Optional[int] = 0
    durable: bool = False
    fault_plan: Optional[object] = None

    def __post_init__(self):
        check_positive_int(self.k, "k")
        check_positive_int(self.num_partitions, "num_partitions")
        check_positive_int(self.max_resident_partitions, "max_resident_partitions")
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
        check_positive_int(self.score_cache_entries, "score_cache_entries")

    def with_overrides(self, **kwargs) -> "EngineConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)
