"""PI-graph traversal heuristics (phase 3).

A heuristic turns the PI graph into an ordered list of *residency steps*:
pairs of partitions that must be simultaneously resident while the tuples
on the PI edges between them are scored.  All heuristics follow the pivot
scheme the paper describes:

* pick the next **pivot** partition according to the heuristic's pivot
  order, load it, and process **all of its not-yet-processed PI edges**
  (in both directions), grouped by the neighbouring partition;
* the order in which the pivot's neighbours are visited is the heuristic's
  second degree of freedom;
* once the pivot's edges are exhausted the pivot is removed from further
  consideration and the next pivot is chosen.

Heuristics shipped:

=================  ======================================  =========================
name               pivot order                             neighbour order
=================  ======================================  =========================
``sequential``     ascending partition id                  ascending partition id
``degree-high-low``descending PI degree                    descending PI degree
``degree-low-high``descending PI degree                    ascending PI degree
``greedy-resident``next pivot = a currently resident       descending shared weight
                   partition when possible (extension)
=================  ======================================  =========================

The first three are the heuristics evaluated in the paper's Table 1; the
fourth is one of the "better heuristics" the paper's future work calls for.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.pigraph.pi_graph import PIEdge, PIGraph

#: A residency step: the pair of partitions that must be in memory together,
#: plus the list of directed PI edges scored while they are resident.
ResidencyStep = Tuple[int, int, Tuple[PIEdge, ...]]


class TraversalHeuristic(abc.ABC):
    """Strategy that linearises a PI graph into residency steps."""

    name: str = "base"

    @abc.abstractmethod
    def pivot_order(self, pi_graph: PIGraph) -> List[int]:
        """Order in which partitions take their turn as the pivot."""

    @abc.abstractmethod
    def neighbor_order(self, pi_graph: PIGraph, pivot: int,
                       neighbors: Iterable[int]) -> List[int]:
        """Order in which a pivot's neighbouring partitions are visited."""

    def plan(self, pi_graph: PIGraph) -> List[ResidencyStep]:
        """Produce the full ordered list of residency steps for ``pi_graph``."""
        remaining, weights, incident = _index_edges(pi_graph)
        steps: List[ResidencyStep] = []
        for pivot in self.pivot_order(pi_graph):
            partners = _remaining_partners(pivot, incident, remaining)
            if not partners:
                continue
            _emit_pivot_steps(
                pivot, partners, weights, remaining, steps,
                lambda keys: self.neighbor_order(pi_graph, pivot, keys),
            )
        if remaining:
            raise RuntimeError(f"traversal left {len(remaining)} PI edges unprocessed (bug)")
        return steps


class SequentialHeuristic(TraversalHeuristic):
    """The paper's baseline: partitions are taken in ascending id order."""

    name = "sequential"

    def pivot_order(self, pi_graph: PIGraph) -> List[int]:
        return pi_graph.active_partitions()

    def neighbor_order(self, pi_graph: PIGraph, pivot: int,
                       neighbors: Iterable[int]) -> List[int]:
        return sorted(neighbors)


class _DegreeBasedHeuristic(TraversalHeuristic):
    """Common machinery for the two degree-based variants."""

    #: +1 sorts neighbours by ascending degree, -1 by descending degree.
    _neighbor_sign = 1

    def __init__(self):
        # the degrees of the graph one plan() call walks: neighbor_order is
        # called once per pivot and recomputing degrees there would be
        # quadratic overall.  Kept for that call only, with the graph itself
        # (an id could name a later graph at a freed one's address)
        self._planning: Optional[Tuple[PIGraph, np.ndarray]] = None

    def plan(self, pi_graph: PIGraph) -> List[ResidencyStep]:
        self._planning = (pi_graph, pi_graph.degree_array())
        try:
            return super().plan(pi_graph)
        finally:
            self._planning = None

    def _degrees(self, pi_graph: PIGraph) -> np.ndarray:
        if self._planning is not None and self._planning[0] is pi_graph:
            return self._planning[1]
        return pi_graph.degree_array()

    def pivot_order(self, pi_graph: PIGraph) -> List[int]:
        degrees = self._degrees(pi_graph)
        active = pi_graph.active_partitions()
        # highest degree first; ties broken by ascending id for determinism
        return sorted(active, key=lambda p: (-degrees[p], p))

    def neighbor_order(self, pi_graph: PIGraph, pivot: int,
                       neighbors: Iterable[int]) -> List[int]:
        degrees = self._degrees(pi_graph)
        return sorted(neighbors, key=lambda p: (self._neighbor_sign * degrees[p], p))


class DegreeHighLowHeuristic(_DegreeBasedHeuristic):
    """Degree-based heuristic, destination degrees visited from highest to lowest."""

    name = "degree-high-low"
    _neighbor_sign = -1


class DegreeLowHighHeuristic(_DegreeBasedHeuristic):
    """Degree-based heuristic, destination degrees visited from lowest to highest."""

    name = "degree-low-high"
    _neighbor_sign = 1


class GreedyResidentHeuristic(TraversalHeuristic):
    """Extension heuristic: chain pivots through already-resident partitions.

    After finishing a pivot, the next pivot is chosen among the partitions
    that are still resident (the last visited partner) if any of them has
    remaining edges; otherwise the highest-remaining-degree partition is
    picked.  This saves one partition load per pivot switch whenever the
    chain can be continued and is one of the "better heuristics" the paper
    leaves as future work.
    """

    name = "greedy-resident"

    def pivot_order(self, pi_graph: PIGraph) -> List[int]:
        # Pivot order is computed jointly with neighbour order in plan();
        # this method returns the fallback order used for seeding.
        degrees = pi_graph.degree_array()
        return sorted(pi_graph.active_partitions(), key=lambda p: (-degrees[p], p))

    def neighbor_order(self, pi_graph: PIGraph, pivot: int,
                       neighbors: Iterable[int]) -> List[int]:
        adjacency = pi_graph.adjacency()
        return sorted(neighbors, key=lambda p: (-adjacency[pivot].get(p, 0), p))

    def plan(self, pi_graph: PIGraph) -> List[ResidencyStep]:
        remaining, weights, incident = _index_edges(pi_graph)
        degrees = pi_graph.degree_array()
        adjacency = pi_graph.adjacency()
        steps: List[ResidencyStep] = []
        # remaining unprocessed edge count per partition, for O(1) pivot checks
        remaining_degree: Dict[int, int] = {p: 0 for p in range(pi_graph.num_partitions)}
        for src, dst in remaining:
            remaining_degree[src] += 1
            if dst != src:
                remaining_degree[dst] += 1
        unprocessed: Set[int] = set(pi_graph.active_partitions())
        candidate_order = sorted(unprocessed, key=lambda p: (-degrees[p], p))
        candidate_index = 0
        last_partner: Optional[int] = None

        while remaining:
            if (last_partner is not None and last_partner in unprocessed
                    and remaining_degree[last_partner] > 0):
                pivot = last_partner
            else:
                while (candidate_index < len(candidate_order)
                       and (candidate_order[candidate_index] not in unprocessed
                            or remaining_degree[candidate_order[candidate_index]] == 0)):
                    candidate_index += 1
                if candidate_index >= len(candidate_order):
                    break
                pivot = candidate_order[candidate_index]
            partners = _remaining_partners(pivot, incident, remaining)
            ordered = _emit_pivot_steps(
                pivot, partners, weights, remaining, steps,
                lambda keys: sorted(keys, key=lambda p: (-adjacency[pivot].get(p, 0), p)),
                remaining_degree=remaining_degree,
            )
            unprocessed.discard(pivot)
            last_partner = ordered[-1] if ordered else None
        if remaining:
            raise RuntimeError(f"traversal left {len(remaining)} PI edges unprocessed (bug)")
        return steps


def _index_edges(pi_graph: PIGraph):
    """Shared plan() bookkeeping: remaining-edge set, weights, and incidence lists."""
    edges = pi_graph.edges()
    remaining: Set[Tuple[int, int]] = {(e.src, e.dst) for e in edges}
    weights = {(e.src, e.dst): e.weight for e in edges}
    incident: Dict[int, List[Tuple[int, int]]] = {}
    for key in remaining:
        src, dst = key
        incident.setdefault(src, []).append(key)
        if dst != src:
            incident.setdefault(dst, []).append(key)
    return remaining, weights, incident


def _remaining_partners(pivot: int, incident: Dict[int, List[Tuple[int, int]]],
                        remaining: Set[Tuple[int, int]]) -> Dict[int, List[Tuple[int, int]]]:
    """The pivot's not-yet-processed edges, grouped by the partner partition."""
    partners: Dict[int, List[Tuple[int, int]]] = {}
    for key in incident.get(pivot, ()):
        if key not in remaining:
            continue
        src, dst = key
        partner = dst if src == pivot else src
        partners.setdefault(partner, []).append(key)
    return partners


def _emit_pivot_steps(pivot: int, partners: Dict[int, List[Tuple[int, int]]],
                      weights: Dict[Tuple[int, int], int],
                      remaining: Set[Tuple[int, int]],
                      steps: List[ResidencyStep],
                      order_fn,
                      remaining_degree: Optional[Dict[int, int]] = None) -> List[int]:
    """Append the residency steps for one pivot; returns the partner visit order."""

    def consume(keys: List[Tuple[int, int]], partner: int) -> Tuple[PIEdge, ...]:
        edges = tuple(PIEdge(src, dst, weights[(src, dst)]) for src, dst in sorted(keys))
        for key in keys:
            remaining.discard(key)
            if remaining_degree is not None:
                src, dst = key
                remaining_degree[src] -= 1
                if dst != src:
                    remaining_degree[dst] -= 1
        steps.append((pivot, partner, edges))
        return edges

    if pivot in partners:
        consume(partners.pop(pivot), pivot)
    ordered = list(order_fn(partners.keys()))
    for partner in ordered:
        consume(partners[partner], partner)
    return ordered


#: Registry of heuristics by name (the first three are the paper's).
HEURISTICS: Dict[str, type] = {
    SequentialHeuristic.name: SequentialHeuristic,
    DegreeHighLowHeuristic.name: DegreeHighLowHeuristic,
    DegreeLowHighHeuristic.name: DegreeLowHighHeuristic,
    GreedyResidentHeuristic.name: GreedyResidentHeuristic,
}

#: The three heuristics evaluated in the paper's Table 1, in column order.
PAPER_HEURISTICS = ("sequential", "degree-high-low", "degree-low-high")


def get_heuristic(name: str) -> TraversalHeuristic:
    """Instantiate a traversal heuristic by name."""
    try:
        cls = HEURISTICS[name]
    except KeyError:
        known = ", ".join(sorted(HEURISTICS))
        raise KeyError(f"unknown traversal heuristic {name!r}; known: {known}") from None
    return cls()
