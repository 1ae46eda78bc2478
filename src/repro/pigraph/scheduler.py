"""Load/unload scheduling and operation counting for PI-graph traversals.

Given the ordered residency steps produced by a traversal heuristic, the
scheduler walks them through a bounded partition cache (two slots by
default, as the paper requires) and counts the partition **load** and
**unload** operations the traversal incurs — the quantity reported in the
paper's Table 1.  The cache is
:class:`~repro.storage.memory_manager.PartitionCache`, the same one phase 4
executes the plan against (there it also charges bytes and a memory
budget), so the simulated and the executed counts agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.traversal import ResidencyStep, TraversalHeuristic, get_heuristic
from repro.storage.memory_manager import PartitionCache

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
    """Walk ``steps`` through a ``cache_slots``-slot LRU partition cache.

    Every partition brought into the cache counts one *load*; every eviction
    (including the final flush when ``unload_at_end``) counts one *unload*.
    A step whose partitions are already resident costs nothing and is
    recorded as a cache hit.  The walk is the executor's own
    :class:`~repro.storage.memory_manager.PartitionCache` with nothing to
    charge, so what is counted here is what phase 4 performs.
    """
    cache = PartitionCache(max_resident=cache_slots)
    hits = tuples_scheduled = 0
    for first, second, edges in steps:
        if first != second and cache_slots < 2:
            raise ValueError(
                "step needs 2 resident partitions but the cache has "
                f"{cache_slots} slots"
            )
        hits += cache.acquire_pair(first, second)
        tuples_scheduled += sum(edge.weight for edge in edges)

    final_resident = tuple(cache.resident_ids)
    return ScheduleResult(
        heuristic=heuristic_name,
        num_partitions=num_partitions,
        num_steps=len(steps),
        loads=cache.io_stats.partition_loads,
        unloads=(cache.io_stats.partition_unloads
                 + (len(final_resident) if unload_at_end else 0)),
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
