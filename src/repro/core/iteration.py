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
What survives across iterations is the **carried state**
(:class:`Phase4ScoreCache`) — ``G(t)``, the ``H`` phase 2 made of it, the
score slab over ``H`` and the ``G(t+1)`` made of them.  Phase 2 advances
``H`` by the edge delta and the slab follows its keys; a tuple with two
endpoints untouched since the slab's generation reuses its score
bit-for-bit, a step whose misses are few skips its residency, and only
the rows whose top-K a fresh score or a deleted key can move are merged
into the next ``G(t+1)``: kernel and merge work scale with the churn.
``H`` is rebuilt, or the scores dropped, whenever the data cannot vouch for
them (the class says when); either loss keeps the other half.

The state is committed by a completed phase 4 only, in one ``merge``: an
aborted iteration leaves it untouched (a rebuild lets go of ``G(t)`` and
``H`` as it starts — a retry would rebuild too).  Within an iteration the
candidate set has one representation, ``H``'s sorted key array, and phase 4
one 8 B/tuple score slab aligned with it: the cache join fills what it
knows, each residency step scatters its fresh scores into its own slots, and
the slab is read twice as it lies — merged into ``G(t+1)`` in source-aligned
chunks no larger than the flush threshold, and committed as the next state.

Within a residency step the only address is the **partition-local row**: a
vertex's rank among its partition's ascending vertices, fixed by phase 1
(:class:`~repro.partition.model.PartitionLayout`) and equal to its row in
the partition's profile slice.  The tuples the cache could not answer are
decoded once an iteration into ``(left row, right row)`` runs grouped by PI
edge, and proved in range there, once; so a step costs a slice of those
arrays, a gather from each resident slice and one kernel call.

Phase 4 itself is one loop, the paper's, on the calling thread: every step
of the plan, in plan order, meets one classification by its cache misses
(:func:`classify_step`), and a step it executes acquires its partition pair
and scores all of its PI edges through one :func:`score_tuples` call on the
pair's slices into the slab.  The residency model (:class:`_StepResidency`)
holds those slices — it loads each once per partition residency through the
engine's own store, which is also the charge — and charges the partition
loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.update_queue import ProfileUpdateQueue
from repro.graph.digraph import CSRDiGraph
from repro.graph.knn_graph import KNNGraph
from repro.utils.arrays import find_sorted, ragged_ranges, sorted_unique
from repro.partition.model import (PartitionLayout, build_partitions,
                                   partition_layout)
from repro.partition.partitioners import get_partitioner
from repro.pigraph.pi_graph import PIEdge, PIGraph
# unused here but for the e2e tracer, which wraps them by this module's names
from repro.pigraph.scheduler import (ScheduleResult, plan_dirty_schedule,
                                     simulate_schedule)
from repro.pigraph.traversal import ResidencyStep, get_heuristic
from repro.storage.io_stats import IOStats
from repro.storage.memory_manager import MemoryBudget, PartitionCache
from repro.storage.partition_store import PartitionStore
from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice
from repro.tuples.delta import edge_delta, multiplicity_delta
from repro.tuples.generator import generate_candidate_tuples
from repro.tuples.hash_table import KeyPatch, TupleHashTable
from repro.utils.logging import get_logger
from repro.utils.timer import PhaseTimer

_logger = get_logger("core.iteration")

#: Floor (in scored rows) for the phase-4 bulk-merge flush threshold — the
#: most slab rows one ``G(t+1)`` merge call takes; the effective threshold is
#: ``max(4 * num_vertices * k, _SCORED_FLUSH_ROWS)``.  Also the queued
#: tuples at which a residual flush gathers and scores its steps.
_SCORED_FLUSH_ROWS = 262144

#: Phase 2 advances the carried ``H`` while the edges removed plus added since
#: the carried graph stay within this share of ``n·k``, and rebuilds it above.
#: Rebuild + search join vs delta + positional join, ms at 5,000 users, k = 10,
#: by share moved: 0.025 → 44 / 14, 0.05 → 41 / 19, 0.10 → 42 / 32, 0.125 →
#: 46 / 45, 0.15 → 46 / 44 (break-even), 0.30 → 55 / 87, 0.60 → 60 / 154; a
#: converged drift moves ~0.02, the iterations of a cold build 1.8 … 0.17.
_DELTA_REBUILD_FRACTION = 0.125

#: Phase 4 merges only the rows whose top-K can move, copying the rest of the
#: graph it produced last, while they are at most this share of ``n``.
#: Iteration time, merging them only vs all, by that share (k = 10): 5k dense
#: 0.30 −33 %, 0.66 −10 %, 0.74 −5 %, 0.89 +6 %; 40k dense 0.37 −30 %, 0.68
#: −10 %, 0.74 −3 %, 0.82 +2 %; 5k sparse 0.66 −9 %, 0.84 +2 %; 40k sparse
#: 0.74 −4 %, 0.85 +1 %; re-timed with the top-K test, 5k dense 0.65 −7 %,
#: 0.86 +0 %.  Serving sits near 0.05, a converged drift near 0.37.
_COPY_FORWARD_FRACTION = 0.7


def score_tuples(left: ProfileSlice, left_rows: np.ndarray,
                 right: ProfileSlice, right_rows: np.ndarray,
                 measure: str) -> np.ndarray:
    """Similarity of row ``left_rows[i]`` of ``left`` against row
    ``right_rows[i]`` of ``right`` for every ``i``.

    ``left`` and ``right`` are profile slices (the same object for tuples
    inside one partition) and the rows are local to them; every measure is
    symmetric bit for bit.  This is the kernel dispatch: phase 4 looks the
    name up at call time, once for an executed step and once for a
    residual flush (however many steps it settles), so whatever replaces
    it — a tracer, a native kernel — sees every score.
    """
    return left.similarity_rows(left_rows, right, right_rows, measure)


SKIP, GATHER, EXECUTE = "skip", "gather", "execute"


def classify_step(tuples: int, distinct: int, span: int) -> str:
    """What phase 4 does with a step whose cache misses are known, from its
    :attr:`_Phase4Run.residue` (``tuples`` missed, their ``distinct``
    endpoints, its pair's ``span`` of rows): no misses, skip; at most an
    eighth of the span in tuples or a quarter in distinct endpoints (the
    4x rule), gather; anything else, execute.  A pure function of the data,
    looked up at call time: the full schedule is this name answering
    :data:`EXECUTE` to every step."""
    if not tuples:
        return SKIP
    if 8 * tuples > span and 4 * distinct > span:
        return EXECUTE
    return GATHER


#: Names of the five phases, used consistently in timers, logs and benches.
PHASE_NAMES = (
    "1-partitioning",
    "2-hash-table",
    "3-pi-graph",
    "4-knn-computation",
    "5-profile-update",
)


class Phase4ScoreCache:
    """What a completed phase 4 carries into the next iteration.

    ``G(t)`` (``csr``, ``edge_keys``) and its ``H`` (``table``), which phase
    2 :meth:`advance`\\ s by the edge delta; and the scores, a sorted int64
    pair-key array (``keys``) with the slab of scores aligned with it
    (``values``), tagged with the ``(measure, store generation, vertex
    count)`` they were computed under.  A similarity score depends only on
    the two endpoint profiles, so a score is reused
    **bit-for-bit** while neither endpoint changed since its generation —
    what the store's touched-row deltas
    (:meth:`~repro.storage.profile_store.OnDiskProfileStore.touched_rows_since`)
    report; anything they cannot vouch for is a full rescore.

    A commit (:meth:`merge`, the only one) makes ``keys`` *be*
    ``table.keys``: while ``aligned`` the slab follows ``H`` through an
    advance's patch (:meth:`carry`); after a rebuild (:meth:`release`) it is
    joined by search (:meth:`lookup`).  ``produced`` is the frozen ``G(t+1)``
    and ``merged_rows`` its only rows that may not be ``G(t)``'s, those
    ``KNNGraph.movable_rows`` found (``None``: any).  A scored set over
    ``max_entries`` (16 bytes each) leaves no scores (one
    :attr:`evictions`) rather than a partial map.  Nothing of it is
    checkpointed: a resumed or recovered run starts empty, rebuilds ``H``
    and rescores once.
    """

    def __init__(self, max_entries: int = 4_000_000):
        self.max_entries = int(max_entries)
        self.evictions: int = 0
        self.release()
        self.clear()

    def clear(self) -> None:
        """Drop the scores and their tags; ``G(t)`` and ``H`` stay."""
        self.measure: Optional[str] = None
        self.generation: Optional[int] = None
        self.num_vertices: int = 0
        self.keys: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.aligned = False

    def release(self) -> None:
        """Let go of ``G(t)``, ``H`` and ``G(t+1)`` — a rebuild starts, and
        a retry would rebuild too; the scores stay for the search join."""
        self.csr: Optional[CSRDiGraph] = None
        self.edge_keys: Optional[np.ndarray] = None
        self.table: Optional[TupleHashTable] = None
        self.produced: Optional[KNNGraph] = None
        self.merged_rows: Optional[np.ndarray] = None
        self.aligned = False

    def _graph_arrays(self) -> Tuple[np.ndarray, ...]:
        csr = self.csr
        return self.edge_keys, csr.indptr, csr.indices, csr.rindptr, csr.rindices

    @property
    def nbytes(self) -> int:
        """Bytes of the carried ``G(t)`` and ``H``."""
        return (sum(array.nbytes for array in self._graph_arrays())
                + self.table.memory_estimate_bytes())

    def advance(self, csr: CSRDiGraph, edge_keys: np.ndarray,
                assignment: np.ndarray, include_direct_edges: bool,
                max_moved: float, rows: Optional[np.ndarray] = None
                ) -> Optional[Tuple[TupleHashTable, KeyPatch]]:
        """``H`` of the graph ``csr`` (sorted edge keys ``edge_keys``),
        bucketed by ``assignment``, advanced from the carried table, and how
        its keys differ from that table's — or ``None`` when the caller
        should rebuild: another vertex count, or more than ``max_moved``
        edges removed plus added.  The edge delta reads only the sources
        ``rows`` when only theirs may differ.  Nothing carried is modified."""
        if csr.num_vertices != self.csr.num_vertices:
            return None
        old = self.edge_keys
        if rows is not None:      # the edge keys lie in CSR order
            old, edge_keys = (
                keys[ragged_ranges(indptr[rows], indptr[rows + 1] - indptr[rows])]
                for keys, indptr in ((old, self.csr.indptr), (edge_keys, csr.indptr)))
        removed, added = edge_delta(old, edge_keys)
        if len(removed) + len(added) > max_moved:
            return None
        keys, changes = multiplicity_delta(self.csr, csr, removed, added,
                                           include_direct_edges)
        return self.table.patched(keys, changes, assignment)

    def matches(self, measure: str, num_vertices: int) -> bool:
        """Whether the cached scores speak about this measure and graph."""
        return (self.keys is not None and self.measure == measure
                and self.num_vertices == num_vertices)

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

    def carry(self, slab: np.ndarray, pair_keys: np.ndarray, csr: CSRDiGraph,
              touched: np.ndarray) -> np.ndarray:
        """:meth:`lookup` without the search, for ``pair_keys`` that are this
        cache's keys advanced by a patch and ``slab`` its scores moved along
        (:meth:`KeyPatch.apply`): NaN goes into every slot with an endpoint
        in ``touched`` (sorted), and the NaN slots — the misses — are
        returned, ascending.  The keys are ``H`` of ``csr`` with no bridge
        cap, so a touched source's pairs are one run of them and a touched
        destination ``d``'s lie at ``s·n + d`` for ``s`` one or two hops
        upstream: no key is decoded."""
        n = np.int64(self.num_vertices)
        lo, hi = np.searchsorted(pair_keys, (touched + np.array([[0], [1]])) * n)
        slab[ragged_ranges(lo, hi - lo)] = np.nan
        upstream, of = touched, touched
        for _ in range(2):
            starts = csr.rindptr[upstream]
            counts = csr.rindptr[upstream + 1] - starts
            upstream = csr.rindices[ragged_ranges(starts, counts)]
            of = np.repeat(of, counts)
            # ascending needles: each search starts where the last one ended
            pos, found = find_sorted(pair_keys, np.sort(upstream * n + of))
            slab[pos[found]] = np.nan
        return np.flatnonzero(np.isnan(slab))

    def merge(self, keys: np.ndarray, values: np.ndarray,
              measure: str, generation: int, num_vertices: int, *,
              graph: Optional[Tuple[CSRDiGraph, np.ndarray,
                                    TupleHashTable]] = None,
              produced: Tuple[Optional[KNNGraph], Optional[np.ndarray]]
              = (None, None)) -> None:
        """Commit one iteration as the new state.

        ``keys`` are strictly increasing ``src * num_vertices + dst`` pair
        keys and ``values`` their scores — in phase 4, ``H``'s key array and
        the slab aligned with it, adopted as they lie (read-only, the
        iteration still holds them: no sort, no copy).  ``graph`` is the
        ``(csr, edge_keys, table)`` whose ``table.keys`` they are, or
        ``None``; ``produced`` the ``(G(t+1), merged_rows)`` made of them.
        An over-capacity set keeps no scores.  A refused merge changes
        nothing.
        """
        scored = len(keys) <= self.max_entries
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if scored and not (keys[1:] > keys[:-1]).all():
            raise ValueError("score cache keys must be strictly increasing")
        if graph is not None and graph[2].keys is not keys:
            raise ValueError("the scored keys must be the carried table's")
        self.release()
        if graph is not None:
            self.csr, self.edge_keys, self.table = graph
            self.table.freeze()
            for array in self._graph_arrays():
                array.flags.writeable = False
        self.produced, self.merged_rows = produced
        if self.produced is not None:
            self.produced.freeze()
            if self.merged_rows is not None:
                self.merged_rows.flags.writeable = False
        self.clear()
        if not scored:
            self.evictions += 1
            return
        keys.flags.writeable = False
        values.flags.writeable = False
        self.keys, self.values = keys, values
        self.measure = measure
        self.generation = int(generation)
        self.num_vertices = int(num_vertices)
        self.aligned = graph is not None


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
    #: phase-5 update traffic of this iteration.
    profile_io_stats: IOStats = field(default_factory=IOStats)
    #: Tuples whose score was reused verbatim from the phase-4 score cache.
    reused_scores: int = 0
    #: ``True`` when no cached score was usable this iteration (cold cache or
    #: a delta history the store cannot vouch for).
    full_rescore: bool = True
    #: ``True`` when phase 2 built ``H`` from the partitions; ``False`` when it
    #: advanced last iteration's ``H`` by the edge delta ``G(t-1) → G(t)``.
    candidates_rebuilt: bool = True
    #: Residency steps that never acquired their partition pair: the score
    #: cache answered all their tuples, or the join's few misses were scored
    #: off the residual gather (:func:`classify_step`).  Always 0 when the
    #: delta history could not vouch for the churn (full rescore).
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
            "steps_skipped": self.steps_skipped,
            "steps_total": self.steps_total,
            "load_unload_operations": self.load_unload_operations,
            "scheduled_load_unload_operations": self.schedule.load_unload_operations,
            "profile_updates_applied": self.profile_updates_applied,
            "simulated_io_seconds": self.io_stats.simulated_io_seconds,
            "phase_seconds": self.phase_timer.as_dict(),
        }


@dataclass
class IterationFront:
    """Phases 1–3 of the iteration on ``graph``, the carried slab moved
    along ``H`` (``slab``, or ``None``: no positional join) and the deleted
    keys' endpoints (``deleted``, for copy-forward): a function of ``G(t)``
    and the carried state alone, so :meth:`OutOfCoreIteration.front` can
    make it before the batch arrives.  ``timer`` holds phases 1–3 seconds."""

    graph: KNNGraph
    edge_keys: np.ndarray
    csr: CSRDiGraph
    layout: PartitionLayout
    table: TupleHashTable
    patch: Optional[KeyPatch]
    steps: List[ResidencyStep]
    slab: Optional[np.ndarray]
    deleted: Optional[Tuple[np.ndarray, np.ndarray]]
    timer: PhaseTimer


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
    merge and, with ``keys``, the next carried scores.  NaN marks a slot
    nobody resolved.

    The unresolved slots are decoded once, grouped by PI edge: ``positions``
    (into the slab), and the partition-local rows of their sources
    (``left_rows``) and destinations (``right_rows``); ``edge_spans`` maps a
    PI edge to its run in those three arrays.
    """

    keys: np.ndarray
    scores: np.ndarray
    full_rescore: bool
    #: ``(step, batches)`` in plan order: ``batches`` are the step's tuples
    #: the cache join missed — all of them in a full rescore
    steps: List[Tuple[ResidencyStep, List[_EdgeBatch]]]
    layout: PartitionLayout
    positions: np.ndarray
    left_rows: np.ndarray
    right_rows: np.ndarray
    edge_spans: Dict[Tuple[int, int], Tuple[int, int]]
    store_generation: int
    reused: int
    #: ``(sources, destinations)`` of the carried keys the patch deleted when
    #: ``G(t)`` is the graph made of them; ``None``: no row can be copied
    deleted: Optional[Tuple[np.ndarray, np.ndarray]]
    #: the sources re-merged, every other row of ``G(t)`` copied; ``None``: all
    rows: Optional[np.ndarray] = None
    evaluations: int = 0
    steps_skipped: int = 0
    #: ``[tuples, distinct endpoints, pair rows]`` per step when the join's
    #: misses are known; past a quarter of the rows, a lower bound suffices
    residue: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    #: the batches of each settled step not scored yet, and their tuples:
    #: the next residual flush scores them
    queued: List[List[_EdgeBatch]] = field(default_factory=list)
    queued_tuples: int = 0

    def count_residue(self) -> None:
        """Fill :attr:`residue` for every step.  The 4x rule reads distinct
        endpoints only of steps with over an eighth of their span in
        tuples, and only whether they pass a quarter of it: a step whose
        distinct sources (its two PI edges leave different partitions)
        already do keeps that lower bound.  The rest count their distinct
        partition-local rows, marked on one boolean array over their pair
        spans laid end to end and summed by segment, at most
        :data:`_SCORED_FLUSH_ROWS` tuples at once."""
        size, crowded = np.diff(self.layout.bounds).tolist(), []
        for (first, second, _), batches in self.steps:
            tuples = sum(hi - lo for _, lo, hi in batches)
            span = size[first] + (size[second] if second != first else 0)
            self.residue[first, second] = [tuples, 0, span]
            if 8 * tuples > span:
                crowded.append((first, second, tuples, span, batches))
        if crowded:
            # a PI edge's tuples lie in key order, so its source rows ascend:
            # its run's first row and each change of row is a new source (no
            # more than the partition's rows, which int32 local rows index)
            starts = np.array([lo for lo, _ in self.edge_spans.values()])
            new = np.empty(len(self.left_rows), dtype=bool)
            np.not_equal(self.left_rows[1:], self.left_rows[:-1], out=new[1:])
            new[starts] = True
            sources = dict(zip(self.edge_spans, np.add.reduceat(
                new, starts, dtype=np.int32).tolist()))
            for first, second, _, _, batches in crowded:
                self.residue[first, second][1] = sum(
                    sources[edge.src, edge.dst] for edge, _, _ in batches)
            crowded = [entry for entry in crowded
                       if 4 * self.residue[entry[:2]][1] <= entry[3]]
        while crowded:
            heads, marks, end, marked = {}, [], 0, 0
            while crowded and not (
                    heads and marked + crowded[-1][2] > _SCORED_FLUSH_ROWS):
                first, second, tuples, span, batches = crowded.pop()
                heads[first, second] = end
                marks += [(lo, hi - lo, end + size[first] * (edge.src != first),
                           end + size[first] * (edge.dst != first))
                          for edge, lo, hi in batches]
                end, marked = end + span, marked + tuples
            los, lens, left_at, right_at = np.array(marks, dtype=np.int64).T
            runs, hit = ragged_ranges(los, lens), np.zeros(end, dtype=bool)
            for rows, at in ((self.left_rows, left_at), (self.right_rows, right_at)):
                hit[rows[runs] + np.repeat(at, lens)] = True
            counts = np.add.reduceat(hit, list(heads.values()), dtype=np.int64)
            for pair, count in zip(heads, counts.tolist()):
                self.residue[pair][1] = count

    def step_rows(self, first: int, batches: Sequence[_EdgeBatch]
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """The batches' tuples as rows of the step's first partition's slice
        against rows of its second's, aligned with their concatenation: a
        batch leaving the second partition has its row columns swapped."""
        left, right = zip(*[(self.left_rows[lo:hi], self.right_rows[lo:hi])
                            [::1 if edge.src == first else -1]
                            for edge, lo, hi in batches])
        return np.concatenate(left), np.concatenate(right)

    def resolve(self, batches: Sequence[_EdgeBatch], fresh: np.ndarray) -> None:
        """Record freshly computed scores, aligned with the batches'
        concatenation, in their slab slots: one scatter."""
        slots = np.concatenate([self.positions[lo:hi] for _, lo, hi in batches])
        if len(slots) != len(fresh):
            raise RuntimeError(f"{len(fresh)} scores for {len(slots)} tuples")
        self.scores[slots] = fresh
        self.evaluations += len(slots)


class _StepResidency:
    """Step-at-a-time residency — the paper's cost model.

    The executed steps, walked in plan order through an LRU
    :class:`PartitionCache` of ``max_resident_partitions`` slots whose
    ``memory_budget_bytes`` is the one cap on resident partitions.  Every
    executed step acquires its pair, also one (on the full schedule) whose
    tuples the cache answered in full.  A resident partition's profile
    slice is the residency's: the first step with tuples to score loads it
    from the engine's store — the load is the charge, once per residency —
    and it leaves when the LRU walk evicts its partition or the walk ends,
    so no slice outlives phase 4.  A fully cache-hit step touches no
    profile bytes at all.
    """

    def __init__(self, config: EngineConfig, partition_store: PartitionStore,
                 profile_store: OnDiskProfileStore, layout: PartitionLayout,
                 io_stats: IOStats):
        self._budget = (MemoryBudget(config.memory_budget_bytes)
                        if config.memory_budget_bytes is not None else None)
        self._cache = PartitionCache(partition_store,
                                     config.max_resident_partitions,
                                     self._budget, io_stats)
        self._profile_store = profile_store
        self._layout = layout
        self._heuristic = config.heuristic
        self._num_partitions = config.num_partitions
        self._steps = 0
        self._hits = 0
        self._tuples = 0
        # the loaded slice of each resident partition a step has scored on
        self._slices: Dict[int, ProfileSlice] = {}

    def acquire(self, step: ResidencyStep, batches: Sequence[_EdgeBatch]
                ) -> List[ProfileSlice]:
        """Make the step's pair resident; the slices its batches score on —
        the first partition's, then the second's unless it is the same."""
        first, second, edges = step
        self._hits += self._cache.acquire_pair(first, second)
        self._steps += 1
        self._tuples += sum(edge.weight for edge in edges)
        # slices leave with their partitions — on every acquiring step, or
        # fully cache-hit steps would let them outlive their residencies
        resident = self._cache.resident_ids
        self._slices = {pid: piece for pid, piece in self._slices.items()
                        if pid in resident}
        if not batches:
            return []
        pids = (first,) if second == first else (first, second)
        for pid in pids:
            if pid not in self._slices:
                self._slices[pid] = self._profile_store.load_users(
                    self._layout.vertices(pid))
        # the headroom beside the resident partitions is split evenly
        # between the slots, and every slice held caps its kernel's derived
        # state at one share
        share = (None if self._budget is None
                 else self._budget.available_bytes / self._cache.max_resident)
        for piece in self._slices.values():
            piece.cap_derived_bytes(share)
        return [self._slices[pid] for pid in pids]

    def schedule(self) -> ScheduleResult:
        """Unload what is still resident; the schedule as executed, read off
        the walk itself — the classification decides which steps reach the
        partition cache."""
        final_resident = tuple(self._cache.resident_ids)
        self._slices.clear()
        self._cache.flush()
        return ScheduleResult(
            heuristic=self._heuristic,
            num_partitions=self._num_partitions,
            num_steps=self._steps,
            loads=self._cache.io_stats.partition_loads,
            unloads=self._cache.io_stats.partition_unloads,
            cache_hits=self._hits,
            tuples_scheduled=self._tuples,
            final_resident=final_resident,
        )


class OutOfCoreIteration:
    """Executes a single KNN iteration against on-disk profiles, charging
    the partition files' traffic without performing it."""

    def __init__(self, config: EngineConfig, profile_store: OnDiskProfileStore):
        self._config = config
        self._partition_store = PartitionStore(config.disk_model)
        self._profile_store = profile_store
        self._fault = config.fault_plan
        # survives across iterations
        self._score_cache = Phase4ScoreCache(config.score_cache_entries)

    @property
    def score_cache(self) -> Phase4ScoreCache:
        """The run-lifetime carried state."""
        return self._score_cache

    # -- public entry point -------------------------------------------------

    def front(self, graph: KNNGraph) -> IterationFront:
        """The graph-only front of the iteration that will run on ``graph``.
        Only a rebuild of ``H`` touches the carried state: it lets go of the
        carried ``G(t)`` and ``H`` first (the scores stay), so whichever
        front the iteration runs with, it joins them by search."""
        config, timer = self._config, PhaseTimer()
        # phases 1 and 2 scan G(t) in CSR form, and the edge delta against
        # the carried graph reads the same sorted keys; build both once
        edge_keys = graph.edge_keys()
        csr = graph.to_csr(edge_keys)
        with timer.phase(PHASE_NAMES[0]):
            # the one grouping of the vertices by partition this iteration:
            # the partition files are sized from it, a phase-2 rebuild slices
            # the partitions out of it, phase 4 addresses rows through it
            layout = partition_layout(get_partitioner(config.partitioner).assign(
                csr, config.num_partitions), config.num_partitions)
        with timer.phase(PHASE_NAMES[1]):
            table, patch = self._phase2_hash_table(graph, csr, edge_keys,
                                                   layout)
        with timer.phase(PHASE_NAMES[2]):
            steps = get_heuristic(config.heuristic).plan(
                PIGraph.from_tuple_table(table, config.num_partitions))
        cache = self._score_cache
        slab = deleted = None
        if patch is not None and cache.aligned:
            # H was advanced from the very keys the slab is aligned with, so
            # the slab follows them
            slab = patch.apply(cache.values, np.nan)
            if graph is cache.produced:
                deleted = cache.table.endpoints(patch.deleted)
        return IterationFront(graph, edge_keys, csr, layout, table, patch,
                              steps, slab, deleted, timer)

    def run(self, iteration: int, graph: KNNGraph,
            update_queue: Optional[ProfileUpdateQueue] = None, *,
            updates_first: bool = False,
            front: Optional[IterationFront] = None) -> IterationResult:
        """Run the five phases once, turning ``G(t)`` into ``G(t+1)``.

        The paper's order is 1–4 then 5: ``G(t+1)`` is scored against
        ``P(t)`` and the queued changes make ``P(t+1)`` afterwards.  With
        ``updates_first`` (the serving order) phase 5 runs at the head
        instead — the queue is drained and applied, then 1–4 score the
        profiles just written — so ``G(t+1)`` already reflects every change
        queued when the iteration began; what arrives later stays queued.

        A :meth:`front` made ahead is used only if made for this ``graph``.
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

        if front is None or front.graph is not graph:
            front = self.front(graph)
        timer.merge(front.timer)
        csr, edge_keys, layout = front.csr, front.edge_keys, front.layout
        table, patch, steps = front.table, front.patch, front.steps
        with timer.phase(PHASE_NAMES[0]):
            # sized from the profiles phase 4 reads — phase 5 may just have
            # changed them — so never part of the front
            self._partition_store.replace_all(
                csr, layout, self._profile_store.estimated_bytes_per_user())

        with timer.phase(PHASE_NAMES[3]):
            run, new_graph, schedule = self._phase4_knn(
                graph, front, measure, io_stats)
            # the one commit, by a completed phase 4 only.  The scores
            # describe the store as of *this* phase 4 — the deltas the next
            # iteration asks touched_rows_since() about start here — and
            # cover every tuple of every step in this iteration's plan.
            score_cache = self._score_cache
            score_cache.merge(
                table.keys, run.scores, measure, run.store_generation,
                graph.num_vertices,
                graph=((csr, edge_keys, table)
                       if config.max_pairs_per_bridge is None else None),
                produced=(new_graph, run.rows))
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

    # -- phase 2 --------------------------------------------------------------

    def _phase2_hash_table(self, graph: KNNGraph, csr, edge_keys: np.ndarray,
                           layout: PartitionLayout
                           ) -> Tuple[TupleHashTable, Optional[KeyPatch]]:
        """``H`` of ``G(t)`` and, when it was advanced from the carried table
        rather than rebuilt, how its keys differ from that table's."""
        config = self._config
        assignment = layout.assignment
        carried = self._score_cache
        advanced = None if carried.table is None else carried.advance(
            csr, edge_keys, assignment, config.include_direct_edges,
            max_moved=_DELTA_REBUILD_FRACTION * csr.num_vertices * config.k,
            rows=carried.merged_rows if graph is carried.produced else None)
        if advanced is None:
            carried.release()
            # the bridge scan is the one reader of the partitions' edge lists
            partitions = build_partitions(csr, assignment,
                                          config.num_partitions, layout)
            advanced = generate_candidate_tuples(
                csr, partitions, assignment,
                include_direct_edges=config.include_direct_edges,
                max_pairs_per_bridge=config.max_pairs_per_bridge), None
        return advanced

    # -- phase 4 --------------------------------------------------------------

    def _begin_phase4(self, graph: KNNGraph, front: IterationFront,
                      measure: str) -> _Phase4Run:
        """The head of phase 4: slab, cache join, plan, and the unresolved
        tuples decoded into partition-local rows."""
        table, layout, steps = front.table, front.layout, front.steps
        keys, cache = table.keys, self._score_cache
        # tuples with both endpoints untouched since the cache's generation
        # reuse its score; without scores of this measure and vertex count,
        # or a delta history the store vouches for (``None``), all rescore
        touched = (self._profile_store.touched_rows_since(cache.generation)
                   if cache.matches(measure, graph.num_vertices) else None)
        full_rescore = touched is None
        if not full_rescore:
            touched = touched[touched < graph.num_vertices]
        misses = deleted = None
        if full_rescore:
            scores = np.full(len(keys), np.nan)
        elif front.slab is not None:
            scores = front.slab
            misses = cache.carry(scores, keys, front.csr, touched)
            deleted = front.deleted
        else:
            # both key arrays are sorted: one search joins them
            touched_mask = np.zeros(graph.num_vertices, dtype=bool)
            touched_mask[touched] = True
            scores, hits = cache.lookup(keys, touched_mask)
            misses = np.flatnonzero(~hits)
        # the positions of H the cache did not answer — all that classifies a
        # step, its partitions dirty or clean; every position, and every step
        # executes, without them — grouped by PI edge and decoded once: a PI
        # edge (p, q) has its sources in p and destinations in q, so the
        # endpoints' local rows address the two slices directly
        positions, edge_spans = table.bucket_index(misses)
        table.freeze()      # read-only from here on, and done with its index
        left_rows, right_rows = (layout.local_row[ends]
                                 for ends in table.endpoints(positions))
        if edge_spans:
            # one maximum per PI edge and side proves every row in its slice
            # for the iteration (a negative int32 row read unsigned is huge)
            sizes = np.diff(layout.bounds)[np.array(list(edge_spans)).T]
            starts = [lo for lo, _ in edge_spans.values()]
            if any((np.maximum.reduceat(rows.view(np.uint32), starts) >= size).any()
                   for rows, size in zip((left_rows, right_rows), sizes)):
                raise RuntimeError("a decoded row lies outside its partition")
        return _Phase4Run(
            keys=keys, scores=scores, full_rescore=full_rescore,
            steps=[(step, [(edge, *span) for edge in step[2]  # unresolved
                           if (span := edge_spans.get((edge.src, edge.dst)))])
                   for step in steps], layout=layout, positions=positions,
            left_rows=left_rows, right_rows=right_rows, edge_spans=edge_spans,
            store_generation=self._profile_store.generation,
            reused=len(keys) - len(misses) if misses is not None else 0,
            deleted=deleted)

    def _score_residual(self, run: _Phase4Run, step: ResidencyStep,
                        batches: Sequence[_EdgeBatch], measure: str) -> bool:
        """Settle a step's misses off a row-level gather, if few.

        The cache join missed some of the step's tuples: a row changed,
        graph churn minted tuples the cache has never seen, or the pair was
        not scored at all.  When :func:`classify_step` finds the residue
        small, it is queued for the next :meth:`_flush_residual`, which
        scores it off a gather of exactly the needed profiles — no
        partition acquired, the step skips (returns ``True``); otherwise
        the caller executes it.
        """
        residue = run.residue[step[:2]]
        if classify_step(*residue) != GATHER:
            return False
        run.queued.append(batches)
        run.queued_tuples += residue[0]
        run.steps_skipped += 1
        return True

    def _flush_residual(self, run: _Phase4Run, measure: str) -> None:
        """Score every queued step's tuples off one gather: one
        :meth:`~repro.storage.profile_store.OnDiskProfileStore.load_users`
        of the steps' endpoints, charged step by step as each step's own
        gather would be, one :func:`score_tuples` call on the union slice
        and one scatter into the slab."""
        if not run.queued:
            return
        queued, run.queued, run.queued_tuples = run.queued, [], 0
        batches = [batch for step_batches in queued for batch in step_batches]
        layout, num_vertices = run.layout, len(run.layout.assignment)
        tags, los, lengths, src_at, dst_at = np.array(
            [(index * num_vertices, lo, hi - lo, layout.bounds[edge.src],
              layout.bounds[edge.dst])
             for index, step_batches in enumerate(queued)
             for edge, lo, hi in step_batches], dtype=np.int64).T
        # a batch's local rows are where its partitions' vertices lie
        at = ragged_ranges(los, lengths)
        sources = layout.by_partition[run.left_rows[at] + np.repeat(src_at, lengths)]
        destinations = layout.by_partition[run.right_rows[at]
                                           + np.repeat(dst_at, lengths)]
        # one group a step: its distinct endpoints, ascending
        tags = np.repeat(tags, lengths)
        tagged = sorted_unique(np.concatenate([tags + sources, tags + destinations]))
        gathered = self._profile_store.load_users(
            tagged % num_vertices, group_starts=np.searchsorted(
                tagged, np.arange(len(queued), dtype=np.int64) * num_vertices))
        users = gathered.user_ids
        run.resolve(batches, score_tuples(
            gathered, np.searchsorted(users, sources),
            gathered, np.searchsorted(users, destinations), measure))

    def _execute_pending(self, run: _Phase4Run, measure: str,
                         residency: _StepResidency) -> None:
        """The one phase-4 loop over the plan's steps.  While the join's
        misses are known, the residues are counted at the head of the walk
        and every step is classified (:func:`classify_step`): one the join
        answered in full skips, one with a few misses is queued by
        :meth:`_score_residual` for one flush — once the queue holds
        :data:`_SCORED_FLUSH_ROWS` tuples, and at the end of the walk.  Any
        other step acquires its pair, also with nothing left to score (the
        step-at-a-time cost model), and scores all its PI edges in one
        kernel call into the slab."""
        known = not run.full_rescore
        if known:
            run.count_residue()
        for step, batches in run.steps:
            if batches and self._fault is not None:
                # crash window: mid-phase-4, some steps scored or queued,
                # nothing committed — one firing per step with tuples to score
                self._fault.point("phase4.step")
            if (known and not batches
                    and classify_step(*run.residue[step[:2]]) == SKIP):
                # every tuple answered from the cache: the step never
                # touched the partition cache, a profile byte or a kernel
                run.steps_skipped += 1
                continue
            if known and batches and self._score_residual(run, step, batches,
                                                          measure):
                if run.queued_tuples >= _SCORED_FLUSH_ROWS:
                    self._flush_residual(run, measure)
                continue
            slices = residency.acquire(step, batches)
            if not batches:
                continue
            # rows of the first partition's slice (slice 0) against rows of
            # the second's, which is the same slice inside one partition
            left_rows, right_rows = run.step_rows(step[0], batches)
            run.resolve(batches, score_tuples(slices[0], left_rows, slices[-1],
                                              right_rows, measure))
        self._flush_residual(run, measure)

    def _finish_phase4(self, run: _Phase4Run, graph: KNNGraph,
                       table: TupleHashTable) -> KNNGraph:
        """The back of phase 4: ``G(t+1)`` from the finished slab."""
        config = self._config
        keys = run.keys
        if run.reused + run.evaluations != len(keys):
            raise RuntimeError(
                f"phase 4 resolved {run.reused + run.evaluations} score slots "
                f"for {len(keys)} candidate tuples")
        num_vertices = graph.num_vertices
        if run.deleted is not None:
            # G(t) is the top-K of the carried keys and scores, and only the
            # unanswered slots and the deleted keys differ from them: a row
            # whose top-K they cannot move is copied, the rest re-merge
            rows = graph.movable_rows(*table.endpoints(run.positions),
                                      run.scores[run.positions], run.deleted)
            if len(rows) <= _COPY_FORWARD_FRACTION * num_vertices:
                run.rows = rows
        # the steps are done with the decoded rows, and the merge below has
        # the iteration's largest temporaries (callers keep no view of them)
        run.positions = run.left_rows = run.right_rows = None
        # H's order is (source, destination), so the slab is merged as it
        # lies, in runs of whole sources no longer than the flush threshold:
        # the sort temporaries never outgrow a small multiple of the graph
        # itself, preserving the two-resident-partitions memory envelope.
        # Each run is in key order into empty rows: the sorted merge finds
        # every source's K-th best and ranks only what can still reach it.
        scores, taken = run.scores, None
        if run.rows is None:
            new_graph = KNNGraph(num_vertices, config.k)
        else:
            # every other row stays G(t)'s; a NaN in one of its slots would
            # have ranked, so the NaN's row re-merges and the merge refuses it
            new_graph = graph.cleared(run.rows)
            lo, hi = np.searchsorted(keys, (run.rows + [[0], [1]]) * num_vertices)
            taken = ragged_ranges(lo, hi - lo)      # their runs of the slab
            keys, scores = keys[taken], scores[taken]
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
            sources, destinations = table.endpoints(
                slice(start, stop) if taken is None else taken[start:stop])
            new_graph.add_candidates_sharded(
                sources, destinations, scores[start:stop],
                assume_unique=True)
            start = stop
        return new_graph

    def _phase4_knn(self, graph: KNNGraph, front: IterationFront,
                    measure: str, io_stats: IOStats
                    ) -> Tuple[_Phase4Run, KNNGraph, ScheduleResult]:
        """Walk the plan, score every tuple the cache could not answer, and
        emit ``G(t+1)``.

        Bit-identity across schedules holds by construction, not by luck:
        similarity scores are a pure function of the two endpoint profiles
        (phase-5 writes run before phase 4 or after it, never during), every
        score lands in the same slab slot whichever step produced it, and
        the G(t+1) merge is a pure function of the slab.
        """
        run = self._begin_phase4(graph, front, measure)
        residency = _StepResidency(self._config, self._partition_store,
                                   self._profile_store, front.layout, io_stats)
        self._execute_pending(run, measure, residency)
        executed = residency.schedule()
        return run, self._finish_phase4(run, graph, front.table), executed

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
