"""One out-of-core KNN iteration: the paper's five phases, end to end.

The orchestration follows Figure 1 of the paper exactly:

1. partition ``G(t)`` and charge spilling the partitions to disk,
2. populate the dedup hash table ``H`` with candidate tuples,
3. build the partition-interaction graph and plan its traversal,
4. walk the plan with at most two partitions resident, score every tuple,
   and emit ``G(t+1)``,
5. apply the queued profile changes to produce ``P(t+1)``.

The engine (:mod:`repro.core.engine`) owns the loop, the profile store and
the update queue, and calls :meth:`OutOfCoreIteration.run` once an iteration.
Three things survive across iterations:

* the phase-4 scoring workers (:class:`~repro.core.parallel.ScoringWorkers`)
  — whatever executor the backend needs, created once; workers drop their
  cached mmap slices when the store's ``generation`` says phase 5 wrote;
* the phase-4 **score cache** (:class:`Phase4ScoreCache`) — the last scored
  slab and its keys; a tuple with two endpoints untouched since its
  generation reuses its score bit-for-bit, so kernel work scales with the
  churn.  Dropped (a full rescore, always correct) by another measure or
  vertex count, a touched history the store cannot vouch for, an
  over-capacity slab, or ``incremental_phase4`` off; and
* the **candidates** (:class:`~repro.tuples.delta.CarriedCandidates`) —
  ``G(t)`` and the ``H`` phase 2 made of it, multiplicities included.  Phase
  2 advances that ``H`` by the edge delta to the new graph, and the slab
  then follows its keys position for position instead of being searched.
  Rebuilt from the partitions (the reference path) when nothing is carried
  — cold start, resume, recovery, ``max_pairs_per_bridge`` — on another
  vertex count, or past ``_DELTA_REBUILD_FRACTION``; outlives the scores.

The last two are committed by a completed phase 4 only: an aborted iteration
leaves them untouched (a rebuild lets go of the candidates as it starts — a
retry would rebuild too).  Within an iteration the candidate set has one
representation, ``H``'s sorted key array, and phase 4 one 8 B/tuple score slab
aligned with it: the cache join fills what it knows, each residency step
scatters its fresh scores into its own slots, and the slab is read twice as
it lies — merged into ``G(t+1)`` in source-aligned chunks no larger than the
flush threshold, and adopted as the next score cache.

Within a residency step the only address is the **partition-local row**: a
vertex's rank among its partition's ascending vertices, fixed by phase 1
(:class:`~repro.partition.model.PartitionLayout`) and equal to its row in
the partition's profile slice.  The tuples the cache could not answer are
decoded once an iteration into ``(left row, right row)`` runs grouped by PI
edge, so a step costs a slice of those arrays, a gather from each resident
slice and a kernel, on every backend.

Phase 4 itself is one loop over one seam: the steps the cache could not
answer are grouped — each alone, or into waves of partition-disjoint steps
under ``shard_parallel`` — and every group goes residency in, one
``ScoringWorkers.execute(tasks)``, scores into the slab, residency out.  The
two groupings are two *cost models* of the same loop (:class:`_StepResidency`,
:class:`_WaveResidency`), and the residency model — never whoever happened
to run the kernel — charges the partition loads and the slice reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from repro.core.config import EngineConfig
from repro.core.parallel import ScoringWorkers, ShardStepTask, score_tuples
from repro.core.update_queue import ProfileUpdateQueue
from repro.graph.knn_graph import KNNGraph
from repro.utils.arrays import counting_argsort, find_sorted
from repro.partition.model import (PartitionLayout, build_partitions,
                                   partition_layout)
from repro.partition.partitioners import get_partitioner
from repro.pigraph.pi_graph import PIEdge, PIGraph
from repro.pigraph.scheduler import (DirtySchedule, ScheduleResult,
                                     plan_dirty_schedule, plan_shard_schedule,
                                     simulate_schedule)
from repro.pigraph.traversal import ResidencyStep, get_heuristic
from repro.storage.io_stats import IOStats
from repro.storage.memory_manager import MemoryBudget, PartitionCache
from repro.storage.partition_store import PartitionStore
from repro.storage.profile_store import OnDiskProfileStore
from repro.tuples.delta import CarriedCandidates
from repro.tuples.generator import generate_candidate_tuples
from repro.tuples.hash_table import KeyPatch, TupleHashTable
from repro.utils.logging import get_logger
from repro.utils.timer import PhaseTimer

_logger = get_logger("core.iteration")

#: Floor (in scored rows) for the phase-4 bulk-merge flush threshold — the
#: most slab rows one ``G(t+1)`` merge call takes; the effective threshold is
#: ``max(4 * num_vertices * k, _SCORED_FLUSH_ROWS)``.
_SCORED_FLUSH_ROWS = 262144

#: Phase 2 advances the carried ``H`` while the edges removed plus added since
#: the carried graph stay within this share of ``n·k``, and rebuilds it above.
#: Rebuild + search join vs delta + positional join, ms at 5,000 users, k = 10,
#: by share moved: 0.025 → 44 / 14, 0.05 → 41 / 19, 0.10 → 42 / 32, 0.125 →
#: 46 / 45, 0.15 → 46 / 44 (break-even), 0.30 → 55 / 87, 0.60 → 60 / 154; a
#: converged drift moves ~0.02, the iterations of a cold build 1.8 … 0.17.
_DELTA_REBUILD_FRACTION = 0.125

#: Names of the five phases, used consistently in timers, logs and benches.
PHASE_NAMES = (
    "1-partitioning",
    "2-hash-table",
    "3-pi-graph",
    "4-knn-computation",
    "5-profile-update",
)


class Phase4ScoreCache:
    """Generation-keyed cache of phase-4 similarity scores.

    Holds the previous scored iteration's ``(source, destination) → score``
    map as a sorted int64 pair-key array plus an aligned score array, tagged
    with the ``(measure, store generation, vertex count)`` it was computed
    under.  A similarity score depends only on the two endpoint profiles,
    so a cached entry may be reused **bit-for-bit** as long as neither
    endpoint's profile changed since the cached generation — exactly what
    the profile store's touched-row deltas
    (:meth:`~repro.storage.profile_store.OnDiskProfileStore.touched_rows_since`)
    report.  Anything the deltas cannot vouch for (unknown history, measure
    or vertex-count mismatch, empty cache) falls back to a full rescore,
    which is always correct.

    Capacity is bounded by ``max_entries`` (16 bytes per entry): an
    iteration whose scored set exceeds the cap leaves the cache empty
    (recorded in :attr:`evictions`) rather than keeping a partial map.
    """

    def __init__(self, max_entries: int = 4_000_000):
        self.max_entries = int(max_entries)
        self.evictions: int = 0
        self.clear()

    def clear(self) -> None:
        self.measure: Optional[str] = None
        self.generation: Optional[int] = None
        self.num_vertices: int = 0
        self.keys: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None

    def matches(self, measure: str, num_vertices: int) -> bool:
        """Whether the cached scores speak about this measure and graph."""
        return (self.keys is not None and self.generation is not None
                and self.measure == measure and self.num_vertices == num_vertices)

    def lookup(self, pair_keys: np.ndarray, touched_mask: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Join a candidate set against the cache: cached-clean or dirty.

        ``pair_keys`` are ``src * num_vertices + dst`` keys — phase 4 hands
        over the dedup table's whole sorted key array once an iteration, so
        the join is one ``searchsorted`` of sorted queries in a sorted
        cache.  Returns ``(scores, hit_mask)``, both aligned with
        ``pair_keys``: ``hit_mask[i]`` is ``True`` exactly when both
        endpoints of pair ``i`` are untouched since the cached generation
        *and* the pair was scored then; ``scores[i]`` carries the cached
        score for those rows and NaN — to be overwritten by the caller, and
        refused by the ``G(t+1)`` merge if it is not — for dirty rows.
        """
        scores = np.full(len(pair_keys), np.nan)
        hit_mask = np.zeros(len(pair_keys), dtype=bool)
        if self.keys is None or not len(self.keys) or not len(pair_keys):
            return scores, hit_mask
        pos, known = find_sorted(self.keys, pair_keys)
        found = np.flatnonzero(known)
        known = pair_keys[found]
        sources = known // np.int64(self.num_vertices)
        clean = ~(touched_mask[sources]
                  | touched_mask[known - sources * self.num_vertices])
        found = found[clean]
        hit_mask[found] = True
        scores[found] = self.values[pos[found]]
        return scores, hit_mask

    def carry(self, patch: KeyPatch, pair_keys: np.ndarray,
              touched_mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup` without the search, for ``pair_keys`` that are this
        cache's own keys advanced by ``patch``: the slab follows its keys
        (a surviving pair keeps its score in place, an arriving one is NaN),
        so the hits are the carried pairs with two clean endpoints — the
        same ``(scores, hit_mask)`` the search would return."""
        scores = patch.apply(self.values, np.nan)
        sources = pair_keys // np.int64(self.num_vertices)
        hit_mask = ~(np.isnan(scores) | touched_mask[sources]
                     | touched_mask[pair_keys - sources * self.num_vertices])
        scores[~hit_mask] = np.nan
        return scores, hit_mask

    def advanced_to(self, touched_rows: np.ndarray,
                    generation: int) -> "Phase4ScoreCache":
        """A copy of this cache advanced past the given touched rows.

        Entries with a touched endpoint are pruned (they would be dirty
        anyway) and the remainder re-tagged with ``generation`` — the
        store state the pruned map now describes exactly.  Keeps the pair
        key encoding in one place for checkpointing
        (:meth:`KNNEngine.save_checkpoint` advances the cache to the
        snapshot generation this way).
        """
        cache = Phase4ScoreCache(max_entries=self.max_entries)
        if self.keys is None:
            return cache
        n = np.int64(self.num_vertices)
        mask = np.zeros(self.num_vertices, dtype=bool)
        touched_rows = np.asarray(touched_rows, dtype=np.int64)
        mask[touched_rows[touched_rows < self.num_vertices]] = True
        keep = ~(mask[self.keys // n] | mask[self.keys % n])
        cache.merge(self.keys[keep], self.values[keep], self.measure,
                    generation, self.num_vertices)
        return cache

    def replace(self, key_chunks: Sequence[np.ndarray],
                score_chunks: Sequence[np.ndarray], measure: str,
                generation: int, num_vertices: int) -> None:
        """Install scored pairs that arrive in any order, in chunks.

        ``key_chunks`` hold ``src * num_vertices + dst`` pair keys, unique
        across chunks.  Sorts them (the 16-bit LSD counting passes — pair
        keys are bounded by ``num_vertices²``) and hands over to
        :meth:`merge`, whose rules apply.
        """
        keys = (np.concatenate(key_chunks) if key_chunks
                else np.empty(0, dtype=np.int64))
        values = (np.concatenate(score_chunks) if score_chunks
                  else np.empty(0, dtype=np.float64))
        order = counting_argsort(keys, int(num_vertices) * int(num_vertices))
        self.merge(keys[order], values[order], measure, generation,
                   num_vertices)

    def merge(self, keys: np.ndarray, values: np.ndarray, measure: str,
              generation: int, num_vertices: int) -> None:
        """Adopt one iteration's scored pairs as the new cache contents.

        ``keys`` must be strictly increasing ``src * num_vertices + dst``
        pair keys and ``values`` their scores — in phase 4, the dedup
        table's key array and the score slab aligned with it, which already
        *are* the next cache: nothing is sorted, copied or interleaved.
        Both arrays are adopted as they are and marked read-only, because
        the iteration that produced them still holds them.  Over-capacity
        iterations clear the cache (one :attr:`evictions`) instead of
        keeping an arbitrary subset.
        """
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if len(keys) > self.max_entries:
            self.clear()
            self.evictions += 1
            return
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("score cache keys must be strictly increasing")
        keys.flags.writeable = False
        values.flags.writeable = False
        self.keys = keys
        self.values = values
        self.measure = measure
        self.generation = int(generation)
        self.num_vertices = int(num_vertices)


@dataclass
class IterationResult:
    """Everything produced and measured by one out-of-core KNN iteration."""

    iteration: int
    graph: KNNGraph
    assignment: np.ndarray
    schedule: ScheduleResult
    num_candidate_tuples: int
    similarity_evaluations: int
    profile_updates_applied: int
    phase_timer: PhaseTimer
    io_stats: IOStats
    #: The profile store's share of ``io_stats`` — its write side is the
    #: phase-5 update traffic, which the perf suite tracks per iteration.
    profile_io_stats: IOStats = field(default_factory=IOStats)
    #: Tuples whose score was reused verbatim from the phase-4 score cache.
    reused_scores: int = 0
    #: ``True`` when no cached score was usable this iteration (cold cache,
    #: unknown delta history, or ``incremental_phase4`` disabled).
    full_rescore: bool = True
    #: ``True`` when phase 2 built ``H`` from the partitions; ``False`` when it
    #: advanced last iteration's ``H`` by the edge delta ``G(t-1) → G(t)``.
    candidates_rebuilt: bool = True
    #: Wall-clock seconds spent installing this iteration's scores as the
    #: phase-4 score cache (an adoption of the score slab: checks, no copy).
    cache_merge_seconds: float = 0.0
    #: Residency steps that never acquired their partition pair under dirty
    #: scheduling: scores came from the score cache, plus at most a small
    #: row-level residual gather for never-seen pairs.  Always 0 when
    #: ``dirty_scheduling`` is off or the delta history could not vouch for
    #: the churn (full schedule).
    steps_skipped: int = 0
    #: Residency steps in the full traversal plan this iteration.
    steps_total: int = 0

    @property
    def load_unload_operations(self) -> int:
        """Actual partition load/unload operations performed in phase 4."""
        return self.io_stats.load_unload_operations

    def summary(self) -> Dict[str, object]:
        return {
            "iteration": self.iteration,
            "num_candidate_tuples": self.num_candidate_tuples,
            "similarity_evaluations": self.similarity_evaluations,
            "reused_scores": self.reused_scores,
            "full_rescore": self.full_rescore,
            "candidates_rebuilt": self.candidates_rebuilt,
            "cache_merge_seconds": self.cache_merge_seconds,
            "steps_skipped": self.steps_skipped,
            "steps_total": self.steps_total,
            "load_unload_operations": self.load_unload_operations,
            "scheduled_load_unload_operations": self.schedule.load_unload_operations,
            "profile_updates_applied": self.profile_updates_applied,
            "simulated_io_seconds": self.io_stats.simulated_io_seconds,
            "phase_seconds": self.phase_timer.as_dict(),
        }


#: One PI edge's unresolved tuples: the edge and its ``[lo, hi)`` run in the
#: iteration's ``positions`` / ``left_rows`` / ``right_rows`` arrays.
_EdgeBatch = Tuple[PIEdge, int, int]


@dataclass
class _Phase4Run:
    """One phase 4 in flight: the state its three stages share.

    ``scores`` is the *score slab*: one float64 per tuple of ``H``, aligned
    with ``keys`` (``H``'s sorted pair keys).  The one-shot cache join fills
    the slots it can answer, every residency step scatters its fresh scores
    into the rest, and the finished slab is both the input of the ``G(t+1)``
    merge and, with ``keys``, the next score cache.  NaN marks a slot nobody
    resolved.

    The unresolved slots are decoded once, grouped by PI edge: ``positions``
    (into the slab), and the partition-local rows of their sources
    (``left_rows``) and destinations (``right_rows``); ``edge_spans`` maps a
    PI edge to its run in those three arrays.
    """

    keys: np.ndarray
    scores: np.ndarray
    full_rescore: bool
    #: ``(step, from_cache)`` in execution order: dirty steps first, then the
    #: steps the dirty plan expects the cache to answer without partitions.
    ordered_steps: List[Tuple[ResidencyStep, bool]]
    layout: PartitionLayout
    positions: np.ndarray
    left_rows: np.ndarray
    right_rows: np.ndarray
    edge_spans: Dict[Tuple[int, int], Tuple[int, int]]
    store_generation: int
    reused: int
    evaluations: int = 0
    steps_skipped: int = 0
    cache_merge_seconds: float = 0.0

    def batches(self, edges: Iterable[PIEdge]) -> List[_EdgeBatch]:
        """The step's PI edges that still carry unresolved tuples."""
        found = []
        for edge in edges:
            lo, hi = self.edge_spans.get((edge.src, edge.dst), (0, 0))
            if hi > lo:
                found.append((edge, lo, hi))
        return found

    def resolve(self, batches: Sequence[_EdgeBatch], fresh: np.ndarray) -> None:
        """Record freshly computed scores, aligned with the batches'
        concatenation, in their slab slots."""
        start = 0
        for _, lo, hi in batches:
            self.scores[self.positions[lo:hi]] = fresh[start:start + hi - lo]
            start += hi - lo
        if start != len(fresh):
            raise RuntimeError(f"{len(fresh)} scores for {start} tuples")
        self.evaluations += start


#: A step the cache could not settle, with its unresolved PI-edge batches.
_PendingStep = Tuple[ResidencyStep, List[_EdgeBatch]]


class _StepResidency:
    """Step-at-a-time residency — the paper's cost model.

    One pending step a group, walked in plan order through an LRU
    :class:`PartitionCache` of ``max_resident_partitions`` slots.  Every
    pending step acquires its pair, also one whose tuples the cache answered
    in full (the planned :class:`ScheduleResult` counted it); a partition's
    profile slice is charged once per residency, and only when a step with
    tuples to score needs it — a fully cache-hit step touches no profile
    bytes at all.
    """

    def __init__(self, config: EngineConfig, partition_store: PartitionStore,
                 profile_store: OnDiskProfileStore, layout: PartitionLayout,
                 io_stats: IOStats, planned: ScheduleResult):
        budget = (MemoryBudget(config.memory_budget_bytes)
                  if config.memory_budget_bytes is not None else None)
        self._cache = PartitionCache(partition_store,
                                     config.max_resident_partitions,
                                     budget, io_stats)
        self._profile_store = profile_store
        self._layout = layout
        self._planned = planned
        self._steps = 0
        self._hits = 0
        self._tuples = 0
        # resident partitions whose slice read this residency already paid
        self._charged: Set[int] = set()

    def groups(self, pending: Iterable[_PendingStep]
               ) -> Iterable[List[_PendingStep]]:
        return ([item] for item in pending)

    def enter(self, group: Sequence[_PendingStep]) -> None:
        for (first, second, edges), batches in group:
            self._hits += self._cache.acquire_pair(first, second)
            self._steps += 1
            self._tuples += sum(edge.weight for edge in edges)
            # slices leave with their partitions — on every acquiring step,
            # or fully cache-hit steps would let the charged set outlive the
            # residencies it describes
            self._charged.intersection_update(self._cache.resident_ids)
            if batches:
                for pid in (first, second):
                    if pid not in self._charged:
                        self._profile_store.charge_slice_read(
                            self._layout.vertices(pid))
                        self._charged.add(pid)

    def leave(self, group: Sequence[_PendingStep]) -> None:
        """Nothing: a partition stays until the LRU walk evicts it."""

    def schedule(self) -> ScheduleResult:
        """Unload what is still resident; the schedule as executed, read off
        the walk itself — a dirty plan changes which steps reach the
        partition cache and in what order."""
        final_resident = tuple(self._cache.resident_ids)
        self._cache.flush()
        return ScheduleResult(
            heuristic=self._planned.heuristic,
            num_partitions=self._planned.num_partitions,
            num_steps=self._steps,
            loads=self._cache.io_stats.partition_loads,
            unloads=self._cache.io_stats.partition_unloads,
            cache_hits=self._hits,
            tuples_scheduled=self._tuples,
            final_resident=final_resident,
        )


class _WaveResidency:
    """Wave residency — ``shard_parallel``'s cost model.

    The pending steps that have tuples to score are colored into waves of
    pairwise partition-disjoint steps (:func:`plan_shard_schedule`), one
    wave a group, every step's worker exclusively owning its partitions for
    the wave.  Each wave loads its distinct partitions once — in the
    workers' address spaces, so the operations and one slice read per
    (wave, partition) are attributed here — and drops them at the wave
    barrier: loads = unloads = the plan's total partition residencies.
    Nothing stays resident between waves, which is why this model pays up
    to twice the step-at-a-time walk's load/unload operations.  The
    partition files' reads are not charged; ``memory_budget_bytes`` caps
    each worker's step (:class:`ScoringWorkers`) instead of a partition
    cache.
    """

    def __init__(self, profile_store: OnDiskProfileStore,
                 layout: PartitionLayout, io_stats: IOStats,
                 planned: ScheduleResult):
        self._profile_store = profile_store
        self._layout = layout
        self._io_stats = io_stats
        self._planned = planned
        self._steps = 0
        self._residencies = 0
        self._tuples = 0

    def groups(self, pending: Iterable[_PendingStep]
               ) -> Iterable[List[_PendingStep]]:
        executing = [item for item in pending if item[1]]
        plan = plan_shard_schedule([step for step, _ in executing])
        waves: List[List[_PendingStep]] = [[] for _ in range(plan.num_waves)]
        for item, wave in zip(executing, plan.wave_of):
            waves[wave].append(item)
        return waves

    @staticmethod
    def _partitions(group: Sequence[_PendingStep]) -> List[int]:
        # steps of one wave are partition-disjoint
        return [pid for (first, second, _), _ in group
                for pid in ((first,) if second == first else (first, second))]

    def enter(self, group: Sequence[_PendingStep]) -> None:
        for pid in self._partitions(group):
            self._io_stats.record_partition_load()
            self._profile_store.charge_slice_read(self._layout.vertices(pid))

    def leave(self, group: Sequence[_PendingStep]) -> None:
        partitions = self._partitions(group)
        for _ in partitions:
            self._io_stats.record_partition_unload()
        self._residencies += len(partitions)
        self._steps += len(group)
        self._tuples += sum(edge.weight for step, _ in group for edge in step[2])

    def schedule(self) -> ScheduleResult:
        """The executed-residency schedule of the wave model: loads and
        unloads both equal the per-wave distinct-partition count, so the
        schedule == actual invariant holds by construction."""
        return ScheduleResult(
            heuristic=self._planned.heuristic,
            num_partitions=self._planned.num_partitions,
            num_steps=self._steps,
            loads=self._residencies,
            unloads=self._residencies,
            cache_hits=0,
            tuples_scheduled=self._tuples,
        )


_Residency = Union[_StepResidency, _WaveResidency]


def _score_in_process(left, left_rows, right, right_rows, measure: str) -> np.ndarray:
    """The kernel dispatch handed to the scoring workers: ``score_tuples`` as
    this module binds it *when called*, so whatever replaces that name sees
    the steps' scores as well as the residuals'."""
    return score_tuples(left, left_rows, right, right_rows, measure)


class OutOfCoreIteration:
    """Executes a single KNN iteration against on-disk profiles, charging
    the partition files' traffic without performing it."""

    def __init__(self, config: EngineConfig, profile_store: OnDiskProfileStore):
        self._config = config
        self._partition_store = PartitionStore(config.disk_model)
        self._profile_store = profile_store
        self._fault = config.fault_plan
        # who runs the kernel: the one seam every phase-4 score crosses,
        # alive for the whole run.  Under shard_parallel the memory budget
        # caps each worker's step instead of the partition cache.
        worker_budget = (config.memory_budget_bytes
                         if config.shard_parallel else None)
        self._workers = ScoringWorkers(
            profile_store,
            backend=config.backend,
            num_workers=config.num_workers,
            shard_timeout=config.shard_timeout_seconds,
            part_cache_slots=config.max_resident_partitions,
            worker_budget_bytes=worker_budget,
            bytes_per_user=(profile_store.estimated_bytes_per_user()
                            if worker_budget else 0),
            fault_plan=config.fault_plan,
            score=_score_in_process)
        # survives across iterations, exactly like the workers: the
        # cache holds the last scored generation's pair → score map
        self._score_cache = Phase4ScoreCache(config.score_cache_entries)
        # normalised (min, max) partition pair → store generation at which
        # the pair's tuples were last fully covered by the score cache.
        # Deliberately *not* checkpointed: a fresh runner (resume, recovery)
        # starts empty, which only costs executing clean pairs once — dirty
        # scheduling must never trust a pair the current cache can't vouch
        # for.  Rebuilt wholesale every non-overflow iteration, so entries
        # from older partition assignments cannot accumulate.
        self._pair_generations: Dict[Tuple[int, int], int] = {}
        # G(t) and its H as the last completed phase 4 left them (module
        # docstring); not checkpointed either — a fresh runner rebuilds once
        self._candidates: Optional[CarriedCandidates] = None

    @property
    def score_cache(self) -> Phase4ScoreCache:
        """The run-lifetime phase-4 score cache (checkpointing reads it)."""
        return self._score_cache

    @property
    def workers(self) -> ScoringWorkers:
        """The run-lifetime scoring workers (benchmarks read their budget)."""
        return self._workers

    def restore_score_cache(self, cache: Phase4ScoreCache) -> None:
        """Adopt a (checkpoint-loaded) score cache.

        Safe by construction: reuse only happens when the profile store can
        vouch for the row deltas since ``cache.generation``; a generation
        the store has no history for costs exactly one full rescore.  The
        engine-configured capacity wins over the serialised one — a cache
        larger than this run's ``score_cache_entries`` is dropped outright
        so the configured memory bound holds from the first iteration.
        """
        cache.max_entries = self._config.score_cache_entries
        if cache.keys is not None and len(cache.keys) > cache.max_entries:
            cache.clear()
            cache.evictions += 1
        self._score_cache = cache

    def close(self) -> None:
        """Shut down the scoring workers (idempotent)."""
        self._workers.shutdown()

    # -- public entry point -------------------------------------------------

    def run(self, iteration: int, graph: KNNGraph,
            update_queue: Optional[ProfileUpdateQueue] = None, *,
            updates_first: bool = False) -> IterationResult:
        """Run the five phases once, turning ``G(t)`` into ``G(t+1)``.

        The paper's order is 1–4 then 5: ``G(t+1)`` is scored against
        ``P(t)`` and the queued changes make ``P(t+1)`` afterwards.  With
        ``updates_first`` (the serving order) phase 5 runs at the head
        instead — the queue is drained and applied, then 1–4 score the
        profiles just written — so ``G(t+1)`` already reflects every change
        queued when the iteration began; what arrives later stays queued.
        """
        config = self._config
        if self._fault is not None:
            self._fault.point("iteration.begin")
        timer = PhaseTimer()
        io_stats = IOStats()
        measure = config.measure or self._profile_store_default_measure()

        if updates_first:
            with timer.phase(PHASE_NAMES[4]):
                updates_applied = self._phase5_profile_update(update_queue)

        # phases 1 and 2 scan G(t) in CSR form, and the edge delta against
        # the carried graph reads the same sorted keys; build both once
        edge_keys = graph.edge_keys()
        csr = graph.to_csr(edge_keys)

        with timer.phase(PHASE_NAMES[0]):
            layout = self._phase1_partition(csr)

        with timer.phase(PHASE_NAMES[1]):
            table, patch = self._phase2_hash_table(csr, edge_keys, layout)

        with timer.phase(PHASE_NAMES[2]):
            pi_graph, steps, schedule = self._phase3_pi_graph(table)

        with timer.phase(PHASE_NAMES[3]):
            run, new_graph, schedule = self._phase4_knn(
                iteration, graph, table, patch, steps, measure, io_stats,
                layout, schedule)
            # committed beside the score cache, by a completed phase 4 only
            self._candidates = (CarriedCandidates(csr, edge_keys, table)
                                if config.max_pairs_per_bridge is None else None)
        if self._fault is not None:
            # crash window: G(t+1) fully scored and not sealed; the queued
            # updates not applied yet (paper order) or applied and scored
            self._fault.point("phase4.done")

        if not updates_first:
            with timer.phase(PHASE_NAMES[4]):
                updates_applied = self._phase5_profile_update(update_queue)

        store_stats, profile_stats = self._drain_store_stats()
        io_stats.merge(store_stats)
        result = IterationResult(
            iteration=iteration,
            graph=new_graph,
            assignment=layout.assignment,
            schedule=schedule,
            num_candidate_tuples=table.num_tuples,
            similarity_evaluations=run.evaluations,
            profile_updates_applied=updates_applied,
            phase_timer=timer,
            io_stats=io_stats,
            profile_io_stats=profile_stats,
            reused_scores=run.reused,
            full_rescore=run.full_rescore,
            candidates_rebuilt=patch is None,
            cache_merge_seconds=run.cache_merge_seconds,
            steps_skipped=run.steps_skipped,
            steps_total=len(steps),
        )
        _logger.info(
            "iteration %d: %d tuples (%s), %d similarity evaluations "
            "(%d reused from cache), %d/%d steps skipped, %d load/unload ops",
            iteration, result.num_candidate_tuples,
            "rebuilt" if patch is None else "advanced", run.evaluations,
            run.reused, run.steps_skipped, len(steps),
            result.load_unload_operations,
        )
        return result

    # -- phase 1 --------------------------------------------------------------

    def _phase1_partition(self, csr) -> PartitionLayout:
        config = self._config
        partitioner = get_partitioner(config.partitioner)
        assignment = partitioner.assign(csr, config.num_partitions)
        # the one grouping of the vertices by partition this iteration: the
        # partition files are sized from it, a phase-2 rebuild slices the
        # partitions out of it, phase 4 addresses profile rows through it
        layout = partition_layout(assignment, config.num_partitions)
        self._partition_store.replace_all(
            csr, layout, self._profile_store.estimated_bytes_per_user())
        return layout

    # -- phase 2 --------------------------------------------------------------

    def _phase2_hash_table(self, csr, edge_keys: np.ndarray,
                           layout: PartitionLayout
                           ) -> Tuple[TupleHashTable, Optional[KeyPatch]]:
        """``H`` of ``G(t)`` and, when it was advanced from the carried table
        rather than rebuilt, how its keys differ from that table's."""
        config = self._config
        assignment = layout.assignment
        advanced = None if self._candidates is None else self._candidates.advance(
            csr, edge_keys, assignment, config.include_direct_edges,
            max_moved=_DELTA_REBUILD_FRACTION * csr.num_vertices * config.k)
        if advanced is None:
            # a retry would decide the same: what is carried is only memory now
            self._candidates = None
            # the bridge scan is the one reader of the partitions' edge lists
            partitions = build_partitions(csr, assignment,
                                          config.num_partitions, layout)
            advanced = generate_candidate_tuples(
                csr, partitions, assignment,
                include_direct_edges=config.include_direct_edges,
                max_pairs_per_bridge=config.max_pairs_per_bridge), None
        return advanced

    # -- phase 3 --------------------------------------------------------------

    def _phase3_pi_graph(self, table: TupleHashTable):
        config = self._config
        pi_graph = PIGraph.from_tuple_table(table, config.num_partitions)
        heuristic = get_heuristic(config.heuristic)
        steps = heuristic.plan(pi_graph)
        schedule = simulate_schedule(
            steps,
            heuristic_name=heuristic.name,
            num_partitions=config.num_partitions,
            cache_slots=config.max_resident_partitions,
        )
        return pi_graph, steps, schedule

    # -- phase 4 --------------------------------------------------------------

    def _touched_mask(self, graph: KNNGraph, measure: str) -> Optional[np.ndarray]:
        """Vertices whose profiles changed since the cached generation.

        Returns ``None`` when the cache cannot be consulted at all — wrong
        measure or vertex count, empty cache, or a delta history the profile
        store cannot vouch for (external rewrite, journal compaction,
        :meth:`~repro.storage.profile_store.OnDiskProfileStore.reload`) —
        which makes the iteration a full rescore.
        """
        cache = self._score_cache
        if not cache.matches(measure, graph.num_vertices):
            return None
        touched = self._profile_store.touched_rows_since(cache.generation)
        if touched is None:
            return None
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[touched[touched < graph.num_vertices]] = True
        return mask

    def _plan_dirty(self, steps: Sequence[ResidencyStep],
                    assignment: np.ndarray) -> Optional[DirtySchedule]:
        """The iteration's dirty-partition plan, or ``None`` for the full one.

        ``None`` covers every situation where planning cannot help or
        cannot be trusted: the toggle is off, the cache is unusable this
        iteration (cold, wrong measure, full rescore), or the delta history cannot vouch for the churn — reload, compaction
        rollover and recovery all surface as ``touched_partitions_since``
        returning ``None``, and the only safe answer is to run everything.
        """
        score_cache = self._score_cache
        dirty_partitions = self._profile_store.touched_partitions_since(
            score_cache.generation, assignment)
        plan = plan_dirty_schedule(steps, dirty_partitions,
                                   self._pair_generations,
                                   score_cache.generation)
        return None if plan.assume_all_dirty else plan

    def _begin_phase4(self, graph: KNNGraph, table: TupleHashTable,
                      patch: Optional[KeyPatch],
                      steps: Sequence[ResidencyStep], measure: str,
                      layout: PartitionLayout) -> _Phase4Run:
        """The front of phase 4: slab, cache join, plan, and the unresolved
        tuples decoded into partition-local rows."""
        config = self._config
        keys = table.keys
        # tuples with two endpoints untouched since the cache's generation
        # reuse its score verbatim; only the rest reach a kernel
        touched_mask = (self._touched_mask(graph, measure)
                        if config.incremental_phase4 else None)
        full_rescore = touched_mask is None
        cache = self._score_cache
        hits = None
        if full_rescore:
            scores = np.full(len(keys), np.nan)
        elif patch is not None and cache.keys is self._candidates.table.keys:
            # H was advanced from the very keys the slab is aligned with, so
            # the slab follows them: a positional join
            scores, hits = cache.carry(patch, keys, touched_mask)
        else:
            # both key arrays are sorted: one search joins them
            scores, hits = cache.lookup(keys, touched_mask)
        # dirty-partition planning: steps whose partitions are both clean
        # and whose pair the cache vouches for run lookup-only (no partition
        # acquired unless a lookup missed); everything else runs dirty-first
        dirty_plan = (self._plan_dirty(steps, layout.assignment)
                      if config.dirty_scheduling and hits is not None else None)
        if dirty_plan is not None:
            ordered_steps = ([(step, False) for step in dirty_plan.executed]
                             + [(step, True) for step in dirty_plan.cached])
        else:
            ordered_steps = [(step, False) for step in steps]
        # the positions of H the cache did not answer, grouped by PI edge and
        # decoded once: a PI edge (p, q) has its sources in p and destinations
        # in q, so the endpoints' local rows address the two slices directly
        positions, edge_spans = table.bucket_index(
            None if hits is None else ~hits)
        table.freeze()      # read-only from here on, and done with its index
        sources, destinations = table.endpoints(positions)
        return _Phase4Run(
            keys=keys, scores=scores, full_rescore=full_rescore,
            ordered_steps=ordered_steps, layout=layout, positions=positions,
            left_rows=layout.local_row[sources],
            right_rows=layout.local_row[destinations], edge_spans=edge_spans,
            store_generation=self._profile_store.generation,
            reused=int(np.count_nonzero(hits)) if hits is not None else 0)

    def _score_residual(self, run: _Phase4Run, step: ResidencyStep,
                        batches: Sequence[_EdgeBatch], measure: str) -> bool:
        """Score a cached step's misses off a row-level gather, if few.

        The plan called this pair clean, but graph churn elsewhere minted
        candidate tuples the cache has never seen (neighbour lists keep
        moving even between clean partitions).  A small residue is scored
        off a gather of exactly the needed profiles — no partition acquired,
        the step still skips (returns ``True``); a large one means the pair
        genuinely needs its partitions, and the caller executes the step.
        The 4x rule is a pure function of the data, so every backend and
        every resume makes the same choice.
        """
        first, second, _ = step
        layout = run.layout
        endpoints = np.concatenate(
            [layout.vertices(edge.src)[run.left_rows[lo:hi]]
             for edge, lo, hi in batches]
            + [layout.vertices(edge.dst)[run.right_rows[lo:hi]]
               for edge, lo, hi in batches])
        # the gathered slice holds the distinct endpoints ascending, so the
        # inverse of the unique pass *is* each endpoint's row in it
        residual_users, rows = np.unique(endpoints, return_inverse=True)
        pair_span = layout.size(first) + (layout.size(second)
                                          if second != first else 0)
        if len(residual_users) * 4 > pair_span:
            return False
        residual_slice = self._profile_store.load_users(residual_users)
        half = len(rows) // 2
        fresh = score_tuples(residual_slice, rows[:half], residual_slice,
                             rows[half:], measure)
        run.resolve(batches, fresh)
        run.steps_skipped += 1
        return True

    def _pending_steps(self, run: _Phase4Run, measure: str
                       ) -> Iterator[Tuple[ResidencyStep, List[_EdgeBatch]]]:
        """Classify the ordered steps, one at a time as the loop asks:
        yields, with the PI-edge batches of its unresolved tuples, every
        step that is not settled without its partitions.

        A step the dirty plan expects the cache to answer is settled when
        the join did answer all of it, or when :meth:`_score_residual` takes
        the few tuples it missed; otherwise it falls back to executing —
        acquired on demand, scored against the resident pair, exact.  A step
        the plan executes is yielded even with nothing left to score: the
        step-at-a-time cost model still acquires its partitions.
        """
        for step, from_cache in run.ordered_steps:
            batches = run.batches(step[2])
            if from_cache:
                if not batches:
                    # every tuple answered from the cache: the step never
                    # touched the partition cache, a profile byte or a kernel
                    run.steps_skipped += 1
                    continue
                if self._score_residual(run, step, batches, measure):
                    continue
            yield step, batches

    def _execute_pending(self, iteration: int, run: _Phase4Run, measure: str,
                         residency: _Residency) -> None:
        """The one phase-4 loop: per group of pending steps, residency in,
        one ``execute`` across the worker seam, scores into the slab,
        residency out."""
        layout = run.layout
        for group in residency.groups(self._pending_steps(run, measure)):
            residency.enter(group)
            tasks = []
            scored = []
            for step, batches in group:
                if not batches:
                    continue
                if self._fault is not None:
                    # crash window: mid-phase-4, some steps scored, nothing
                    # committed — one firing per executed step
                    self._fault.point("phase4.step")
                first, second, _ = step
                pids = (first,) if second == first else (first, second)
                # worker caches are keyed by (iteration, partition):
                # partition ids repeat across iterations with different
                # vertex sets, and the store generation tells workers when
                # phase 5 replaced the files.  Every PI edge of the step is
                # one batch: the sources' rows in the source partition's
                # slice against the destinations' rows in the destination's.
                tasks.append(ShardStepTask(
                    parts=tuple(((iteration, pid), layout.vertices(pid))
                                for pid in pids),
                    batches=tuple((pids.index(edge.src), pids.index(edge.dst),
                                   run.left_rows[lo:hi], run.right_rows[lo:hi])
                                  for edge, lo, hi in batches),
                    measure=measure, generation=run.store_generation))
                scored.append(batches)
            for batches, fresh in zip(scored, self._workers.execute(tasks)):
                run.resolve(batches, fresh)
            residency.leave(group)

    def _finish_phase4(self, run: _Phase4Run, graph: KNNGraph,
                       table: TupleHashTable, steps: Sequence[ResidencyStep],
                       measure: str) -> KNNGraph:
        """The back of phase 4: ``G(t+1)`` and the next cache."""
        config = self._config
        keys = run.keys
        # the steps are done with the decoded rows, and the merge below has
        # the iteration's largest temporaries (callers keep no view of them)
        run.positions = run.left_rows = run.right_rows = None
        if run.reused + run.evaluations != len(keys):
            raise RuntimeError(
                f"phase 4 resolved {run.reused + run.evaluations} score slots "
                f"for {len(keys)} candidate tuples")
        # H's order is (source, destination), so the slab is merged as it
        # lies, in runs of whole sources no longer than the flush threshold:
        # the sort temporaries never outgrow a small multiple of the graph
        # itself, preserving the two-resident-partitions memory envelope.
        # G(t) is the hint: its edges are candidates (include_direct_edges),
        # and their fresh scores bound each source's top-K from below.
        num_vertices = graph.num_vertices
        new_graph = KNNGraph(num_vertices, config.k)
        limit = max(4 * num_vertices * config.k, _SCORED_FLUSH_ROWS)
        source_starts = (np.searchsorted(
            keys, np.arange(num_vertices + 1, dtype=np.int64) * num_vertices)
            if len(keys) > limit else None)
        start = 0
        while start < len(keys):
            stop = len(keys)
            if stop - start > limit:
                # a source has fewer than num_vertices <= limit candidates,
                # so a source boundary always lies within the limit
                stop = int(source_starts[np.searchsorted(
                    source_starts, start + limit, side="right") - 1])
            sources, destinations = table.endpoints(slice(start, stop))
            new_graph.add_candidates_sharded(
                sources, destinations, run.scores[start:stop],
                assume_unique=True, hint=graph)
            start = stop
        score_cache = self._score_cache
        if config.incremental_phase4:
            # the cached scores describe the store as of *this* phase 4 —
            # phase 5 runs after and its deltas are what the next iteration
            # asks touched_rows_since() about.  (H.keys, slab) already is
            # that cache; an over-capacity iteration leaves it empty.
            merge_start = time.perf_counter()
            score_cache.merge(keys, run.scores, measure, run.store_generation,
                              num_vertices)
            run.cache_merge_seconds = time.perf_counter() - merge_start
        else:
            score_cache.clear()
        if score_cache.keys is None:
            self._pair_generations.clear()
        else:
            # the cache now covers every tuple of every step in this
            # iteration's plan, all tagged with this phase 4's store
            # generation.  Rebuilding the map wholesale drops pairs from
            # older partition assignments.
            self._pair_generations = {
                ((first, second) if first <= second else (second, first)):
                run.store_generation
                for first, second, _ in steps}
        return new_graph

    def _phase4_knn(self, iteration: int, graph: KNNGraph, table: TupleHashTable,
                    patch: Optional[KeyPatch],
                    steps: Sequence[ResidencyStep], measure: str,
                    io_stats: IOStats, layout: PartitionLayout,
                    schedule: ScheduleResult
                    ) -> Tuple[_Phase4Run, KNNGraph, ScheduleResult]:
        """Walk the plan, score every tuple the cache could not answer, and
        emit ``G(t+1)``.

        Bit-identity across schedules and backends holds by construction,
        not by luck: similarity scores are a pure function of the two
        endpoint profiles (no worker observes phase-5 writes mid-iteration —
        they run before phase 4 or after it), every score lands in the same
        slab slot whichever group or worker produced it, and the G(t+1) merge
        is a pure function of the slab.  Regrouping steps into waves or cutting
        one across workers therefore cannot move a single edge or byte.
        """
        config = self._config
        run = self._begin_phase4(graph, table, patch, steps, measure, layout)
        residency: _Residency
        if config.shard_parallel:
            residency = _WaveResidency(self._profile_store, layout, io_stats,
                                       schedule)
        else:
            residency = _StepResidency(config, self._partition_store,
                                       self._profile_store, layout, io_stats,
                                       schedule)
        self._execute_pending(iteration, run, measure, residency)
        executed = residency.schedule()
        return run, self._finish_phase4(run, graph, table, steps, measure), executed

    # -- phase 5 --------------------------------------------------------------

    def _phase5_profile_update(self, update_queue: Optional[ProfileUpdateQueue]) -> int:
        if update_queue is None or len(update_queue) == 0:
            return 0
        if self._fault is not None:
            # crash window: updates enqueued (WAL-durable when the engine
            # runs durable) but not yet applied to the profile store
            self._fault.point("phase5.before_apply")
        changes = update_queue.drain()
        return self._profile_store.apply_changes(changes)

    # -- helpers ----------------------------------------------------------------

    def _profile_store_default_measure(self) -> str:
        return "cosine" if self._profile_store.kind == "dense" else "jaccard"

    def _drain_store_stats(self) -> Tuple[IOStats, IOStats]:
        """Collect and reset the stores' own I/O counters.

        Returns ``(combined, profile_only)`` — the profile store's snapshot is
        kept separate so callers can watch phase-5 update write-bytes without
        the partition traffic mixed in.
        """
        profile_snapshot = IOStats()
        profile_snapshot.merge(self._profile_store.io_stats)
        snapshot = IOStats()
        snapshot.merge(self._partition_store.io_stats)
        snapshot.merge(profile_snapshot)
        self._partition_store.io_stats.reset()
        self._profile_store.io_stats.reset()
        return snapshot, profile_snapshot
