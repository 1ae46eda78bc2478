"""The partition-interaction (PI) graph.

Nodes are the phase-1 partitions; a directed edge ``(R_i, R_j)`` stands for
the set of candidate tuples ``(s, d) ∈ H`` with ``s ∈ R_i`` and ``d ∈ R_j``
and is weighted by the number of such tuples.  Parsing every PI edge —
with at most two partitions resident at a time — computes every similarity
in ``H``; the traversal heuristics in :mod:`repro.pigraph.traversal` decide
the parsing order so as to minimise partition load/unload operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.tuples.hash_table import TupleHashTable
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class PIEdge:
    """One directed PI-graph edge: tuples whose source partition is ``src``."""

    src: int
    dst: int
    weight: int = 1

    def endpoints(self) -> Tuple[int, int]:
        return (self.src, self.dst)


class PIGraph:
    """Directed, weighted graph over partition ids ``0..m-1``."""

    def __init__(self, num_partitions: int):
        check_positive_int(num_partitions, "num_partitions")
        self._m = num_partitions
        self._weights: Dict[Tuple[int, int], int] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tuple_table(cls, table: TupleHashTable, num_partitions: int) -> "PIGraph":
        """PI graph implied by the bucketed hash table ``H`` (phase 3 proper)."""
        graph = cls(num_partitions)
        for (src, dst), count in table.bucket_sizes().items():
            graph.add_edge(src, dst, weight=count)
        return graph

    @classmethod
    def from_digraph(cls, graph: CSRDiGraph) -> "PIGraph":
        """Treat an arbitrary directed graph as a PI graph.

        This is how the paper's Table 1 is produced: "if the PI graph
        structure were to resemble these networks" — each SNAP dataset is
        used directly as the PI graph on which the traversal heuristics are
        compared.
        """
        pi = cls(graph.num_vertices)
        edges = graph.edges_array()
        for src, dst in edges:
            pi.add_edge(int(src), int(dst), weight=1)
        return pi

    def add_edge(self, src: int, dst: int, weight: int = 1) -> None:
        """Add (or accumulate weight onto) the PI edge ``src -> dst``."""
        if not (0 <= src < self._m and 0 <= dst < self._m):
            raise IndexError(f"partition pair ({src}, {dst}) out of range for m={self._m}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        key = (src, dst)
        self._weights[key] = self._weights.get(key, 0) + weight

    # -- queries -------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return self._m

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    @property
    def total_weight(self) -> int:
        return sum(self._weights.values())

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._weights

    def weight(self, src: int, dst: int) -> int:
        return self._weights.get((src, dst), 0)

    def edges(self) -> List[PIEdge]:
        """All PI edges sorted by (src, dst)."""
        return [PIEdge(src, dst, weight) for (src, dst), weight in sorted(self._weights.items())]

    def neighbors(self, partition: int) -> Set[int]:
        """Partitions adjacent to ``partition`` in either direction (excluding itself)."""
        result: Set[int] = set()
        for src, dst in self._weights:
            if src == partition and dst != partition:
                result.add(dst)
            elif dst == partition and src != partition:
                result.add(src)
        return result

    def degree(self, partition: int) -> int:
        """Number of PI edges incident to ``partition`` (self-edges count once)."""
        return sum(1 for (src, dst) in self._weights if src == partition or dst == partition)

    def degree_array(self) -> np.ndarray:
        degrees = np.zeros(self._m, dtype=np.int64)
        for src, dst in self._weights:
            degrees[src] += 1
            if dst != src:
                degrees[dst] += 1
        return degrees

    def active_partitions(self) -> List[int]:
        """Partitions that appear on at least one PI edge."""
        seen: Set[int] = set()
        for src, dst in self._weights:
            seen.add(src)
            seen.add(dst)
        return sorted(seen)

    def adjacency(self) -> Dict[int, Dict[int, int]]:
        """Undirected adjacency view: ``{partition: {neighbor: total weight}}``.

        Both edge directions between a pair are merged because the residency
        requirement (load both partitions) is symmetric.
        """
        adj: Dict[int, Dict[int, int]] = {p: {} for p in range(self._m)}
        for (src, dst), weight in self._weights.items():
            adj[src][dst] = adj[src].get(dst, 0) + weight
            if src != dst:
                adj[dst][src] = adj[dst].get(src, 0) + weight
        return adj

    def __repr__(self) -> str:
        return (f"PIGraph(num_partitions={self._m}, num_edges={self.num_edges}, "
                f"total_weight={self.total_weight})")
