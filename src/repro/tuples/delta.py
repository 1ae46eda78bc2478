"""Delta-driven phase 2: advance ``H`` by the edge delta ``G(t) → G(t+1)``.

A converged iteration replaces about one edge in a hundred, yet rebuilding
``H`` re-derives every candidate from every bridge.  With each tuple's
multiplicity kept (its two-hop paths ``s → v → d``, plus one for a direct
edge) the table is advanced by what changed instead.  With ``R`` / ``A`` the
removed / added edges and ``X⋈Y = {(s, d) : (s, v) ∈ X, (v, d) ∈ Y}`` counted
per path, bilinearity gives the signed change of the path counts::

    − R⋈E_old − E_old⋈R + R⋈R  + A⋈E_new + E_new⋈A − A⋈A

plus ``− R + A`` for the direct edges: gathers over CSR rows that already
exist, a few ten thousand raw pairs instead of a million.  Summed per key
they are what :meth:`TupleHashTable.patched` applies.  The from-scratch
:func:`~repro.tuples.generator.generate_candidate_tuples` stays the
reference: it is what runs cold, and what the walls compare this against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.tuples.hash_table import KeyPatch, TupleHashTable
from repro.utils.arrays import find_sorted, ragged_ranges, sorted_runs

_Pairs = Tuple[np.ndarray, np.ndarray]


def edge_delta(old_keys: np.ndarray, new_keys: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """``(removed, added)`` between two sorted unique edge-key arrays."""
    return (old_keys[~find_sorted(new_keys, old_keys)[1]],
            new_keys[~find_sorted(old_keys, new_keys)[1]])


def _rows(indptr: np.ndarray, indices: np.ndarray, of: np.ndarray,
          beside: np.ndarray) -> _Pairs:
    """Every entry of the CSR rows ``of``, each beside its row's ``beside``."""
    lengths = indptr[of + 1] - indptr[of]
    return (np.repeat(beside, lengths),
            indices[ragged_ranges(indptr[of], lengths)])


def _self_join(sources: np.ndarray, destinations: np.ndarray) -> _Pairs:
    """``X⋈X`` of a few edges sorted by source."""
    starts = np.searchsorted(sources, destinations, side="left")
    lengths = np.searchsorted(sources, destinations, side="right") - starts
    return (np.repeat(sources, lengths),
            destinations[ragged_ranges(starts, lengths)])


def _path_terms(csr: CSRDiGraph, sources: np.ndarray, destinations: np.ndarray
                ) -> Tuple[_Pairs, _Pairs, _Pairs]:
    """``X⋈E``, ``E⋈X`` and ``X⋈X`` for the edges ``X`` beside the graph ``E``."""
    left = _rows(csr.indptr, csr.indices, destinations, sources)
    beside, incoming = _rows(csr.rindptr, csr.rindices, sources, destinations)
    return left, (incoming, beside), _self_join(sources, destinations)


def multiplicity_delta(old: CSRDiGraph, new: CSRDiGraph, removed: np.ndarray,
                       added: np.ndarray, include_direct_edges: bool = True
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """The signed multiplicity change of every candidate tuple whose
    derivations differ between two graphs, as ``(sorted unique keys, int32
    changes)`` with the zero changes dropped."""
    num_vertices = max(new.num_vertices, 1)
    gone = np.divmod(removed, num_vertices)
    come = np.divmod(added, num_vertices)
    gone_left, gone_right, gone_both = _path_terms(old, *gone)
    come_left, come_right, come_both = _path_terms(new, *come)
    minus = [gone_left, gone_right, come_both]
    plus = [come_left, come_right, gone_both]
    if include_direct_edges:
        minus.append(gone)
        plus.append(come)
    sources = np.concatenate([pairs[0] for pairs in minus + plus])
    destinations = np.concatenate([pairs[1] for pairs in minus + plus])
    signs = np.ones(len(sources), dtype=np.int32)
    signs[:sum(len(pairs[0]) for pairs in minus)] = -1
    proper = sources != destinations
    keys = (sources * num_vertices + destinations)[proper]
    if not len(keys):
        return keys, signs[:0]
    order = np.argsort(keys, kind="stable")
    unique, starts, _ = sorted_runs(keys[order])
    changes = np.add.reduceat(signs[proper][order], starts)
    moved = changes != 0
    return unique[moved], changes[moved]


@dataclass(frozen=True)
class CarriedCandidates:
    """What a completed iteration leaves of its phase 2: ``G(t)`` as CSR and
    as sorted edge keys, and the ``H`` built (or advanced) from it."""

    csr: CSRDiGraph
    edge_keys: np.ndarray
    table: TupleHashTable

    def _graph_arrays(self) -> Tuple[np.ndarray, ...]:
        csr = self.csr
        return self.edge_keys, csr.indptr, csr.indices, csr.rindptr, csr.rindices

    def __post_init__(self):
        self.table.freeze()
        for array in self._graph_arrays():
            array.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return (sum(array.nbytes for array in self._graph_arrays())
                + self.table.memory_estimate_bytes())

    def advance(self, csr: CSRDiGraph, edge_keys: np.ndarray,
                assignment: np.ndarray, include_direct_edges: bool,
                max_moved: float) -> Optional[Tuple[TupleHashTable, KeyPatch]]:
        """``H`` of the graph ``csr`` (sorted edge keys ``edge_keys``),
        bucketed by ``assignment``, advanced from the carried table, and how
        its keys differ from that table's — or ``None`` when the caller
        should rebuild: another vertex count, or more than ``max_moved``
        edges removed plus added.  Nothing carried is modified."""
        if csr.num_vertices != self.csr.num_vertices:
            return None
        removed, added = edge_delta(self.edge_keys, edge_keys)
        if len(removed) + len(added) > max_moved:
            return None
        keys, changes = multiplicity_delta(self.csr, csr, removed, added,
                                           include_direct_edges)
        return self.table.patched(keys, changes, assignment)
