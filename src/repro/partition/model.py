"""The partition data model (phase 1 output).

A partition ``R_i`` holds, exactly as the paper defines it:

* a subset ``V_i`` of roughly ``n/m`` users,
* all in-edges ``(s, v)`` and out-edges ``(v, d)`` with ``v ∈ V_i``,
  each list **sorted by the bridge vertex v** so that phase 2 can generate
  neighbours-of-neighbours tuples with a sequential merge scan — the order
  is the CSR's own (:func:`build_partitions` slices rows, it never sorts),
* (on disk) the profiles of the users in ``V_i``.

The objective the partitioners optimise is the per-partition count of
*unique external* vertices: ``N_in`` (distinct sources of in-edges) plus
``N_out`` (distinct destinations of out-edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.utils.arrays import counting_argsort, ragged_ranges


@dataclass
class Partition:
    """One partition ``R_i`` of the KNN graph."""

    pid: int
    vertices: np.ndarray                 # sorted user ids in V_i
    in_edges: np.ndarray                 # (E_in, 2) rows (s, v), sorted by v then s
    out_edges: np.ndarray                # (E_out, 2) rows (v, d), sorted by v then d
    num_unique_in_sources: int = 0       # N_in_i
    num_unique_out_destinations: int = 0  # N_out_i

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.int64)
        self.in_edges = np.asarray(self.in_edges, dtype=np.int64).reshape(-1, 2)
        self.out_edges = np.asarray(self.out_edges, dtype=np.int64).reshape(-1, 2)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_in_edges(self) -> int:
        return len(self.in_edges)

    @property
    def num_out_edges(self) -> int:
        return len(self.out_edges)

    @property
    def locality_cost(self) -> int:
        """``N_in_i + N_out_i`` — the quantity the paper's objective sums."""
        return self.num_unique_in_sources + self.num_unique_out_destinations

    def estimated_bytes(self, profile_bytes_per_user: int = 0) -> int:
        """Approximate in-memory footprint: what the memory manager charges
        for the partition while resident (``PartitionStore`` has the closed
        form over vertex and edge counts)."""
        edges_bytes = (self.in_edges.size + self.out_edges.size) * 8
        vertex_bytes = self.vertices.size * 8
        return edges_bytes + vertex_bytes + self.num_vertices * profile_bytes_per_user

    def __repr__(self) -> str:
        return (f"Partition(pid={self.pid}, vertices={self.num_vertices}, "
                f"in_edges={self.num_in_edges}, out_edges={self.num_out_edges}, "
                f"N_in={self.num_unique_in_sources}, N_out={self.num_unique_out_destinations})")


@dataclass(frozen=True)
class PartitionLayout:
    """One iteration's vertex→partition assignment, grouped by partition.

    ``vertices(pid)`` is partition ``pid``'s ascending vertex list (a view,
    equal to ``Partition.vertices``), and ``local_row[v]`` is the rank of
    ``v`` in its own partition's list: ``vertices(assignment[v])[local_row[v]]
    == v``.  A profile slice loaded for a partition holds its rows in that
    same ascending order, so ``local_row`` addresses a vertex inside its
    partition's slice without any id lookup — the only address phase 4 uses.
    """

    assignment: np.ndarray     # (num_vertices,) partition of each vertex
    by_partition: np.ndarray   # every vertex, grouped by partition, ascending within
    bounds: np.ndarray         # (num_partitions + 1,) group boundaries
    local_row: np.ndarray      # (num_vertices,) int32 rank within the own partition

    def vertices(self, pid: int) -> np.ndarray:
        return self.by_partition[self.bounds[pid]:self.bounds[pid + 1]]

    def size(self, pid: int) -> int:
        return int(self.bounds[pid + 1] - self.bounds[pid])


def partition_layout(assignment: np.ndarray, num_partitions: int) -> PartitionLayout:
    """Group the vertices by partition (``assignment[v]`` = partition of ``v``)
    in one stable counting pass."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if len(assignment) and (assignment.min() < 0 or assignment.max() >= num_partitions):
        raise ValueError("assignment contains partition ids out of range")
    by_partition = counting_argsort(assignment, max(num_partitions - 1, 0))
    sizes = np.bincount(assignment, minlength=num_partitions)
    bounds = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    # int32: whatever phase 4 keeps per candidate tuple is two of these
    local_row = np.empty(len(assignment), dtype=np.int32)
    local_row[by_partition] = (np.arange(len(assignment), dtype=np.int64)
                               - np.repeat(bounds[:-1], sizes))
    return PartitionLayout(assignment, by_partition, bounds, local_row)


def build_partitions(graph: CSRDiGraph, assignment: np.ndarray,
                     num_partitions: int,
                     layout: Optional[PartitionLayout] = None) -> List[Partition]:
    """Materialise :class:`Partition` objects from a vertex→partition assignment.

    ``assignment[v]`` is the partition id of vertex ``v``.  Edge lists are
    sorted by the bridge vertex as required by the paper's phase 1 — which
    costs no sort here: a vertex's CSR row *is* its ``(v, d)`` run with
    ``d`` ascending and its reverse-CSR row its ``(s, v)`` run with ``s``
    ascending, so a partition's lists are the rows of its (ascending)
    vertices sliced out back to back.  ``layout`` is the assignment's
    :func:`partition_layout` when the caller already has it.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if len(assignment) != graph.num_vertices:
        raise ValueError("assignment length must equal the graph's vertex count")
    if layout is None:
        layout = partition_layout(assignment, num_partitions)
    out_degrees = graph.out_degree_array()
    in_degrees = graph.in_degree_array()
    seen = np.zeros(graph.num_vertices, dtype=bool)   # scratch for N_in / N_out

    def count_distinct(ids: np.ndarray) -> int:
        seen[ids] = True
        distinct = int(np.count_nonzero(seen))
        seen[ids] = False
        return distinct

    partitions: List[Partition] = []
    for pid in range(num_partitions):
        vertices = layout.vertices(pid)
        destinations = graph.indices[
            ragged_ranges(graph.indptr[vertices], out_degrees[vertices])]
        sources = graph.rindices[
            ragged_ranges(graph.rindptr[vertices], in_degrees[vertices])]
        partitions.append(Partition(
            pid=pid,
            vertices=vertices,
            in_edges=np.column_stack(
                [sources, np.repeat(vertices, in_degrees[vertices])]),
            out_edges=np.column_stack(
                [np.repeat(vertices, out_degrees[vertices]), destinations]),
            num_unique_in_sources=count_distinct(sources),
            num_unique_out_destinations=count_distinct(destinations),
        ))
    return partitions

