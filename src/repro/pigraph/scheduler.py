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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.traversal import ResidencyStep, TraversalHeuristic, get_heuristic
from repro.storage.memory_manager import PartitionCache


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
    """A traversal plan split into the steps with a dirty partition
    (``executed``) and those with both clean (``cached``).  Phase 4 no
    longer splits its plan: this is kept only for the e2e tracer's
    ``pigraph.dirty_plan`` row, which resolves :func:`plan_dirty_schedule`
    by name."""

    executed: List[ResidencyStep]
    cached: List[ResidencyStep]


def plan_dirty_schedule(steps: Sequence[ResidencyStep],
                        dirty_partitions: Optional[Iterable[int]]
                        ) -> DirtySchedule:
    """Split ``steps`` around ``dirty_partitions``, each class in plan
    order; ``None`` executes every step.  Tracer-only (see
    :class:`DirtySchedule`)."""
    if dirty_partitions is None:
        return DirtySchedule(executed=list(steps), cached=[])
    dirty = frozenset(int(p) for p in dirty_partitions)
    plan = DirtySchedule(executed=[], cached=[])
    for step in steps:
        first, second, _ = step
        (plan.executed if first in dirty or second in dirty
         else plan.cached).append(step)
    return plan


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


def load_unload_floor(pi_graph: PIGraph) -> int:
    """The fewest load/unload operations any traversal of ``pi_graph`` can
    make with two cache slots, counting the final unloads.

    Every partition loaded is unloaded once, so the operations are twice the
    loads.  With two slots each load makes one new resident pair, so every
    distinct unordered pair of partitions joined by a PI edge needs a load
    of its own.  The first load into a connected component of those pairs
    makes none of them (nothing else of the component is resident yet), and
    a partition whose one PI edge is its self-edge needs one load.
    """
    parent = list(range(pi_graph.num_partitions))

    def root(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    pairs, self_edged = set(), set()
    for edge in pi_graph.edges():
        if edge.src == edge.dst:
            self_edged.add(edge.src)
        else:
            pairs.add((min(edge.src, edge.dst), max(edge.src, edge.dst)))
            parent[root(edge.src)] = root(edge.dst)
    paired = {p for pair in pairs for p in pair}
    components = len({root(p) for p in paired})
    return 2 * (len(pairs) + components + len(self_edged - paired))


def compare_heuristics(pi_graph: PIGraph,
                       heuristics: Sequence[Union[str, TraversalHeuristic]],
                       cache_slots: int = 2) -> Dict[str, ScheduleResult]:
    """Run several heuristics over the same PI graph (one Table 1 row)."""
    results: Dict[str, ScheduleResult] = {}
    for heuristic in heuristics:
        result = count_load_unload_operations(pi_graph, heuristic, cache_slots=cache_slots)
        results[result.heuristic] = result
    return results
