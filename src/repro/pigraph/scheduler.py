"""Load/unload scheduling and operation counting for PI-graph traversals.

Given the ordered residency steps produced by a traversal heuristic, the
scheduler simulates a bounded partition cache (two slots by default, as the
paper requires) and counts the partition **load** and **unload** operations
the traversal would incur — the quantity reported in the paper's Table 1.
The same plan can then be executed against the real
:class:`~repro.storage.memory_manager.PartitionCache` during phase 4; the
simulated and executed counts agree because both use LRU eviction over the
same step sequence.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.traversal import ResidencyStep, TraversalHeuristic, get_heuristic
from repro.utils.validation import check_positive_int

#: Declared-pure planners: same inputs, same plan — on every backend,
#: every resume, every re-plan.  The dirty-partition scheduler (PR 7) and
#: the shard planner (PR 9) rely on this to keep the parity walls meaningful.  The invariant lint
#: (``python -m repro.analysis``) walks the call graph from each entry
#: and rejects reachable wall-clock reads, randomness, environment reads,
#: file I/O and module-global writes.  Add a function here to put it
#: under the same contract.
PURE_FUNCTIONS = (
    "repro.pigraph.scheduler.plan_dirty_schedule",
    "repro.pigraph.scheduler.plan_shard_schedule",
    "repro.pigraph.scheduler.simulate_schedule",
)


@dataclass
class ScheduleResult:
    """Outcome of simulating one traversal plan."""

    heuristic: str
    num_partitions: int
    num_steps: int
    loads: int
    unloads: int
    cache_hits: int
    tuples_scheduled: int
    final_resident: Tuple[int, ...] = ()

    @property
    def load_unload_operations(self) -> int:
        """Loads + unloads: the number the paper's Table 1 reports."""
        return self.loads + self.unloads

    def as_dict(self) -> Dict[str, int]:
        return {
            "heuristic": self.heuristic,
            "num_partitions": self.num_partitions,
            "num_steps": self.num_steps,
            "loads": self.loads,
            "unloads": self.unloads,
            "load_unload_operations": self.load_unload_operations,
            "cache_hits": self.cache_hits,
            "tuples_scheduled": self.tuples_scheduled,
        }


def plan_schedule(pi_graph: PIGraph,
                  heuristic: Union[str, TraversalHeuristic]) -> List[ResidencyStep]:
    """Linearise ``pi_graph`` with ``heuristic`` (name or instance)."""
    if isinstance(heuristic, str):
        heuristic = get_heuristic(heuristic)
    return heuristic.plan(pi_graph)


@dataclass
class DirtySchedule:
    """A full traversal plan split by what the update churn can still touch.

    ``executed`` keeps every step that must run against the partition cache,
    reordered dirty-first; ``cached`` holds the steps whose partitions are
    both clean *and* whose pair was already scored at the score cache's
    generation — their tuples are answerable from the cache without loading
    a profile.  ``executed + cached`` is always a permutation of the input
    steps: dirty scheduling never drops candidate tuples, it only changes
    where their scores come from.
    """

    executed: List[ResidencyStep]
    cached: List[ResidencyStep]
    dirty_partitions: Optional[Tuple[int, ...]]
    assume_all_dirty: bool

    @property
    def num_steps(self) -> int:
        return len(self.executed) + len(self.cached)


def _normalised_pair(first: int, second: int) -> Tuple[int, int]:
    return (first, second) if first <= second else (second, first)


def plan_dirty_schedule(steps: Sequence[ResidencyStep],
                        dirty_partitions: Optional[Iterable[int]],
                        pair_generations: Mapping[Tuple[int, int], int],
                        cache_generation: Optional[int]) -> DirtySchedule:
    """Split and reorder a traversal plan around the partitions churn touched.

    A *pure* function of its four inputs — no wall clock, no ambient state —
    so every backend, every resume and every re-plan of the same iteration
    produces the same schedule:

    - ``dirty_partitions``: partitions holding at least one row that changed
      since the score cache's generation, as reported by
      ``OnDiskProfileStore.touched_partitions_since``.  ``None`` propagates
      that method's "cannot vouch" answer: every step executes, in the
      heuristic's original order (reload, compaction rollover and recovery
      all land here — the only safe answer is "run everything").
    - ``pair_generations``: store generation at which each normalised
      partition pair ``(min, max)`` last had its tuples fully scored.
    - ``cache_generation``: the generation the phase-4 score cache currently
      matches, or ``None`` when there is no usable cache.

    A step may be served from the cache only when *both* partitions are
    clean and its pair is recorded as scored at exactly ``cache_generation``.
    Clean-pair steps whose scores are not vouched for still execute — after
    the dirty steps, so the partitions most likely to change the graph are
    visited first (convergence-driven ordering).  Relative order within each
    class is preserved, keeping the heuristic's residency locality.
    """
    all_steps = list(steps)
    if dirty_partitions is None or cache_generation is None:
        return DirtySchedule(executed=all_steps, cached=[],
                             dirty_partitions=None, assume_all_dirty=True)
    dirty = frozenset(int(p) for p in dirty_partitions)
    dirty_steps: List[ResidencyStep] = []
    clean_unscored: List[ResidencyStep] = []
    cached: List[ResidencyStep] = []
    for step in all_steps:
        first, second, _ = step
        if first in dirty or second in dirty:
            dirty_steps.append(step)
        elif pair_generations.get(_normalised_pair(first, second)) == cache_generation:
            cached.append(step)
        else:
            clean_unscored.append(step)
    return DirtySchedule(executed=dirty_steps + clean_unscored, cached=cached,
                         dirty_partitions=tuple(sorted(dirty)),
                         assume_all_dirty=False)


@dataclass
class ShardSchedule:
    """A step sequence colored into waves of partition-disjoint steps.

    Within one wave no two steps share a partition, so every step of a wave
    can execute concurrently with each executor holding exclusive ownership
    of its step's partitions.  ``waves`` flattened in order is a permutation
    of the input steps, and steps that share a partition keep their input
    order across waves (each partition's step sequence is monotone in wave
    index), so per-partition effects replay in the serial order.
    """

    waves: List[List[ResidencyStep]]
    wave_of: Tuple[int, ...]

    @property
    def num_steps(self) -> int:
        return len(self.wave_of)

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def max_wave_width(self) -> int:
        """Steps in the widest wave — the useful parallelism bound."""
        return max((len(wave) for wave in self.waves), default=0)

    def wave_partitions(self, wave_index: int) -> List[int]:
        """Distinct partitions resident during one wave, in step order."""
        partitions: List[int] = []
        seen = set()
        for first, second, _ in self.waves[wave_index]:
            for partition in (first, second):
                if partition not in seen:
                    seen.add(partition)
                    partitions.append(partition)
        return partitions

    @property
    def total_partition_residencies(self) -> int:
        """Sum of distinct partitions across waves: the sharded load count.

        Each wave loads each of its partitions exactly once (and drops them
        at the wave barrier), so this is both the load and the unload count
        of a sharded execution — the analogue of
        :attr:`ScheduleResult.load_unload_operations` ``/ 2``.
        """
        return sum(len(self.wave_partitions(i)) for i in range(len(self.waves)))


def plan_shard_schedule(steps: Sequence[ResidencyStep]) -> ShardSchedule:
    """Color ``steps`` into waves of pairwise partition-disjoint steps.

    A *pure*, deterministic function of the step sequence (no wall clock, no
    ambient state), so every backend and every re-plan produces the same
    waves.  Greedy earliest-wave placement: each step lands in the first
    wave where neither of its partitions is taken yet, which both preserves
    the per-partition step order of the input (a partition's ``wave_free``
    watermark only moves forward) and keeps dirty-first sequences front
    loaded — the dirty steps the input leads with fill the early waves.

    Degenerate inputs behave sensibly: an empty sequence yields zero waves,
    and a single-partition graph (every step ``(p, p)``) yields one
    single-step wave per step in input order.
    """
    wave_free: Dict[int, int] = {}
    waves: List[List[ResidencyStep]] = []
    wave_of: List[int] = []
    for step in steps:
        first, second, _ = step
        wave = max(wave_free.get(first, 0), wave_free.get(second, 0))
        if wave == len(waves):
            waves.append([])
        waves[wave].append(step)
        wave_of.append(wave)
        wave_free[first] = wave + 1
        wave_free[second] = wave + 1
    return ShardSchedule(waves=waves, wave_of=tuple(wave_of))


def simulate_schedule(steps: Sequence[ResidencyStep],
                      heuristic_name: str = "",
                      num_partitions: int = 0,
                      cache_slots: int = 2,
                      unload_at_end: bool = True) -> ScheduleResult:
    """Simulate a ``cache_slots``-slot LRU partition cache over ``steps``.

    Every partition brought into the cache counts one *load*; every eviction
    (including the final flush when ``unload_at_end``) counts one *unload*.
    A step whose partitions are already resident costs nothing and is
    recorded as a cache hit.
    """
    check_positive_int(cache_slots, "cache_slots")
    resident: "OrderedDict[int, None]" = OrderedDict()
    loads = unloads = hits = 0
    tuples_scheduled = 0

    def touch(partition: int) -> bool:
        """Ensure ``partition`` is resident; return True on a cache hit."""
        nonlocal loads, unloads
        if partition in resident:
            resident.move_to_end(partition)
            return True
        while len(resident) >= cache_slots:
            resident.popitem(last=False)
            unloads += 1
        resident[partition] = None
        loads += 1
        return False

    for first, second, edges in steps:
        needed = (first,) if first == second else (first, second)
        if len(needed) > cache_slots:
            raise ValueError(
                f"step needs {len(needed)} resident partitions but the cache has "
                f"{cache_slots} slots"
            )
        # Mirror ``PartitionCache.acquire_pair``: every partition of this step
        # that is already resident is touched *before* any miss is loaded, so
        # a load can never evict the step's own partner.  Without the
        # pre-touch pass, a step whose partner sat at the LRU position would
        # evict it while loading the other partition and immediately reload
        # it — one spurious load+unload the executor never performs, breaking
        # the "simulated and executed counts agree" contract exactly at the
        # ``cache_slots`` boundary.
        step_hit = True
        for partition in needed:
            if partition in resident:
                resident.move_to_end(partition)
            else:
                step_hit = False
        # Touch the pivot before the partner: the partner then becomes the
        # eviction candidate on the next step while the pivot stays resident,
        # and a pivot switch to the previous partner is a cache hit.
        for partition in needed:
            touch(partition)
        if step_hit:
            hits += 1
        tuples_scheduled += sum(edge.weight for edge in edges)

    final_resident = tuple(resident)
    if unload_at_end:
        unloads += len(resident)
        resident.clear()
    return ScheduleResult(
        heuristic=heuristic_name,
        num_partitions=num_partitions,
        num_steps=len(steps),
        loads=loads,
        unloads=unloads,
        cache_hits=hits,
        tuples_scheduled=tuples_scheduled,
        final_resident=final_resident,
    )


def count_load_unload_operations(pi_graph: PIGraph,
                                 heuristic: Union[str, TraversalHeuristic],
                                 cache_slots: int = 2,
                                 unload_at_end: bool = True) -> ScheduleResult:
    """Plan + simulate in one call; the Table 1 measurement for one cell."""
    heuristic_obj = get_heuristic(heuristic) if isinstance(heuristic, str) else heuristic
    steps = heuristic_obj.plan(pi_graph)
    return simulate_schedule(
        steps,
        heuristic_name=heuristic_obj.name,
        num_partitions=pi_graph.num_partitions,
        cache_slots=cache_slots,
        unload_at_end=unload_at_end,
    )


def compare_heuristics(pi_graph: PIGraph,
                       heuristics: Sequence[Union[str, TraversalHeuristic]],
                       cache_slots: int = 2) -> Dict[str, ScheduleResult]:
    """Run several heuristics over the same PI graph (one Table 1 row)."""
    results: Dict[str, ScheduleResult] = {}
    for heuristic in heuristics:
        result = count_load_unload_operations(pi_graph, heuristic, cache_slots=cache_slots)
        results[result.heuristic] = result
    return results
