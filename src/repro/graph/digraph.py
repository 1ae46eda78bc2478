"""In-memory directed-graph structures.

Two complementary representations are provided:

* :class:`DiGraph` — a mutable adjacency-set digraph used while a graph is
  being built or edited (the KNN graph changes every iteration).
* :class:`CSRDiGraph` — an immutable Compressed-Sparse-Row snapshot backed by
  NumPy arrays, used for fast vectorised scans (degree statistics, candidate
  generation, slicing out and sizing the partitions).

Vertices are dense integer ids ``0 .. num_vertices-1``; the out-of-core layer
relies on this to address partitions and profile rows by simple arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.utils.arrays import counting_argsort, sorted_unique
from repro.utils.validation import check_non_negative

Edge = Tuple[int, int]


class DiGraph:
    """A mutable directed graph over vertices ``0..n-1`` with set adjacency.

    Parallel edges are not representable (adjacency is a set) and self loops
    are allowed unless the caller filters them; the KNN semantics never
    produce self loops because a user is not its own neighbour.
    """

    def __init__(self, num_vertices: int = 0):
        check_non_negative(num_vertices, "num_vertices")
        self._succ: List[Set[int]] = [set() for _ in range(num_vertices)]
        self._pred: List[Set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "DiGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        graph = cls(num_vertices)
        for src, dst in edges:
            graph.add_edge(src, dst)
        return graph

    def copy(self) -> "DiGraph":
        clone = DiGraph(self.num_vertices)
        for src in range(self.num_vertices):
            for dst in self._succ[src]:
                clone.add_edge(src, dst)
        return clone

    def add_edge(self, src: int, dst: int) -> bool:
        """Add the edge ``src -> dst``; return ``True`` if it was new."""
        self._check_vertex(src)
        self._check_vertex(dst)
        if dst in self._succ[src]:
            return False
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        self._num_edges += 1
        return True

    # -- queries ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_edge(self, src: int, dst: int) -> bool:
        self._check_vertex(src)
        self._check_vertex(dst)
        return dst in self._succ[src]

    def out_neighbors(self, vertex: int) -> Set[int]:
        """The set of successors of ``vertex`` (a copy is not made)."""
        self._check_vertex(vertex)
        return self._succ[vertex]

    def in_neighbors(self, vertex: int) -> Set[int]:
        """The set of predecessors of ``vertex`` (a copy is not made)."""
        self._check_vertex(vertex)
        return self._pred[vertex]

    def out_degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        return len(self._succ[vertex])

    def in_degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        return len(self._pred[vertex])

    def degree(self, vertex: int) -> int:
        """Total degree (in + out) of ``vertex``."""
        return self.in_degree(vertex) + self.out_degree(vertex)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in vertex order (src ascending, dst ascending)."""
        for src in range(self.num_vertices):
            for dst in sorted(self._succ[src]):
                yield (src, dst)

    def vertices(self) -> range:
        return range(self.num_vertices)

    def out_degree_array(self) -> np.ndarray:
        return np.fromiter((len(s) for s in self._succ), dtype=np.int64,
                           count=self.num_vertices)

    def in_degree_array(self) -> np.ndarray:
        return np.fromiter((len(p) for p in self._pred), dtype=np.int64,
                           count=self.num_vertices)

    def to_csr(self) -> "CSRDiGraph":
        """Snapshot the current graph into an immutable CSR representation."""
        return CSRDiGraph.from_digraph(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and self._succ == other._succ

    def __repr__(self) -> str:
        return f"DiGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(
                f"vertex {vertex} out of range for graph with {self.num_vertices} vertices"
            )


class CSRDiGraph:
    """An immutable CSR snapshot of a directed graph.

    Both the out-adjacency (``indptr``/``indices``) and the in-adjacency
    (``rindptr``/``rindices``) are stored so the partitioner and the tuple
    generator can scan in-edges and out-edges sequentially, as the paper's
    phase 1 requires.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 rindptr: np.ndarray, rindices: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.rindptr = np.asarray(rindptr, dtype=np.int64)
        self.rindices = np.asarray(rindices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.rindptr.ndim != 1:
            raise ValueError("indptr arrays must be one-dimensional")
        if len(self.indptr) != len(self.rindptr):
            raise ValueError("forward and reverse indptr must describe the same vertex count")
        if self.indptr[-1] != len(self.indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if self.rindptr[-1] != len(self.rindices):
            raise ValueError("rindptr[-1] must equal len(rindices)")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "CSRDiGraph":
        n = graph.num_vertices
        out_deg = graph.out_degree_array()
        in_deg = graph.in_degree_array()
        indptr = np.zeros(n + 1, dtype=np.int64)
        rindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_deg, out=indptr[1:])
        np.cumsum(in_deg, out=rindptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        rindices = np.empty(int(rindptr[-1]), dtype=np.int64)
        for v in range(n):
            succ = sorted(graph.out_neighbors(v))
            indices[indptr[v]:indptr[v + 1]] = succ
            pred = sorted(graph.in_neighbors(v))
            rindices[rindptr[v]:rindptr[v + 1]] = pred
        return cls(indptr, indices, rindptr, rindices)

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Sequence[Edge]) -> "CSRDiGraph":
        """Build a CSR graph directly from an edge array, deduplicating edges."""
        check_non_negative(num_vertices, "num_vertices")
        if len(edges) == 0:
            return cls.from_sorted_keys(num_vertices, np.empty(0, dtype=np.int64))
        arr = np.asarray(edges, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be a sequence of (src, dst) pairs")
        if arr.min() < 0 or arr.max() >= num_vertices:
            raise ValueError("edge endpoints out of range")
        return cls.from_sorted_keys(num_vertices,
                                    sorted_unique(arr[:, 0] * num_vertices + arr[:, 1]))

    @classmethod
    def from_sorted_keys(cls, num_vertices: int, keys: np.ndarray) -> "CSRDiGraph":
        """Build from sorted unique int64 edge keys ``src * num_vertices + dst``.

        The keys are already the out-adjacency; the in-adjacency is one
        stable counting pass on the destination, which keeps the sources of
        every destination ascending.
        """
        src, dst = np.divmod(keys, max(num_vertices, 1))
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        rindptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=num_vertices), out=rindptr[1:])
        rindices = src[counting_argsort(dst, max(num_vertices - 1, 0))]
        return cls(indptr, dst, rindptr, rindices)

    # -- queries ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def out_neighbors(self, vertex: int) -> np.ndarray:
        """Successors of ``vertex`` sorted ascending (a NumPy view)."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """Predecessors of ``vertex`` sorted ascending (a NumPy view)."""
        return self.rindices[self.rindptr[vertex]:self.rindptr[vertex + 1]]

    def out_degree(self, vertex: int) -> int:
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def in_degree(self, vertex: int) -> int:
        return int(self.rindptr[vertex + 1] - self.rindptr[vertex])

    def out_degree_array(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degree_array(self) -> np.ndarray:
        return np.diff(self.rindptr)

    def degree_array(self) -> np.ndarray:
        return self.out_degree_array() + self.in_degree_array()

    def edges_array(self) -> np.ndarray:
        """All edges as an ``(num_edges, 2)`` array sorted by (src, dst)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        self.out_degree_array())
        return np.column_stack([src, self.indices])

    def edges(self) -> Iterator[Edge]:
        arr = self.edges_array()
        for src, dst in arr:
            yield (int(src), int(dst))

    def has_edge(self, src: int, dst: int) -> bool:
        row = self.out_neighbors(src)
        pos = np.searchsorted(row, dst)
        return pos < len(row) and row[pos] == dst

    def to_digraph(self) -> DiGraph:
        return DiGraph.from_edges(self.num_vertices, self.edges())

    def __repr__(self) -> str:
        return f"CSRDiGraph(num_vertices={self.num_vertices}, num_edges={self.num_edges})"
