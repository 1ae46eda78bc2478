"""The dedup hash table ``H`` of candidate pairs (phase 2).

``H`` holds every unique tuple ``(s, d)`` whose similarity must be computed
in phase 4: neighbours-of-neighbours pairs generated by bridging through a
partition's vertices, plus the direct edges of ``G(t)``.  Deduplication is
the whole point of the structure — cycles and multiple bridge vertices
produce the same ``(s, d)`` repeatedly, and the similarity must only be
computed once.

The table has one representation: the sorted, unique int64 array of
``s * num_vertices + d`` keys (:attr:`TupleHashTable.keys`).  A bulk insert
sorts its batch once and merges it in with a ``searchsorted`` sweep; scalar
:meth:`~TupleHashTable.add` calls land in a small pending set that is
folded into the array lazily.  Phase 4 keeps that array as the spine of the
iteration — its score slab, the next score cache and the ``G(t+1)`` merge
are all aligned with it — so nothing downstream re-derives the order.

Tuples are additionally *bucketed by the partition pair*
``(partition(s), partition(d))``; those buckets are exactly the edges of the
partition-interaction graph built in phase 3.  Buckets are not copies: a
lazily built index (one stable counting pass over the partition-pair codes)
lists, per bucket, the positions of its tuples in the key array.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.utils.arrays import counting_argsort, sorted_runs
from repro.utils.validation import check_positive_int

PartitionPair = Tuple[int, int]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort-based unique (avoids np.unique's slower hash path on int64 keys).

    Sorts ``keys`` in place — both callers pass a temporary.
    """
    if len(keys) <= 1:
        return keys
    keys.sort()
    mask = np.empty(len(keys), dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return keys[mask]


class TupleHashTable:
    """Deduplicating store of candidate pairs, bucketed by partition pair."""

    def __init__(self, num_vertices: int, assignment: np.ndarray):
        check_positive_int(num_vertices, "num_vertices")
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != num_vertices:
            raise ValueError("assignment must have one entry per vertex")
        self._num_vertices = num_vertices
        self._assignment = assignment
        self._num_parts = int(assignment.max()) + 1 if len(assignment) else 1
        self._keys = np.empty(0, dtype=np.int64)   # sorted, unique
        self._pending: Set[int] = set()            # scalar adds not yet folded in
        # (order, spans): positions into _keys grouped by partition pair, and
        # each pair's [start, stop) run in that order; None = stale
        self._index: Optional[Tuple[np.ndarray, Dict[PartitionPair, Tuple[int, int]]]] = None

    # -- insertion -------------------------------------------------------------

    def _contains_key(self, key: int) -> bool:
        if key in self._pending:
            return True
        keys = self._keys
        position = np.searchsorted(keys, key)
        return position < len(keys) and keys[position] == key

    def _consolidate(self) -> None:
        """Fold the pending scalar inserts into the sorted key array."""
        if not self._pending:
            return
        pending = np.fromiter(self._pending, dtype=np.int64, count=len(self._pending))
        self._keys = _sorted_unique(np.concatenate([self._keys, pending]))
        self._pending.clear()
        self._index = None

    def add(self, source: int, destination: int) -> bool:
        """Insert the tuple ``(source, destination)``; returns ``True`` when new.

        Self pairs are rejected (a user is never its own KNN candidate).
        """
        if source == destination:
            return False
        if not (0 <= source < self._num_vertices and 0 <= destination < self._num_vertices):
            raise IndexError(
                f"tuple ({source}, {destination}) out of range for {self._num_vertices} vertices"
            )
        key = source * self._num_vertices + destination
        if self._contains_key(key):
            return False
        self._pending.add(key)
        return True

    def add_many(self, pairs: Iterable[Tuple[int, int]]) -> int:
        """Insert many tuples; returns how many were new."""
        added = 0
        for source, destination in pairs:
            if self.add(int(source), int(destination)):
                added += 1
        return added

    def add_array(self, pairs: np.ndarray) -> int:
        """Vectorised bulk insert of an ``(n, 2)`` array of tuples.

        Deduplication against existing contents and self-pair filtering are
        preserved; this is the fast path used by the tuple generator.  The
        batch's keys are sorted once, here; nothing downstream sorts them
        again.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return 0
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array")
        if pairs.min() < 0 or pairs.max() >= self._num_vertices:
            raise IndexError("tuple endpoints out of range")
        keys = pairs[:, 0] * self._num_vertices + pairs[:, 1]
        fresh = _sorted_unique(keys[pairs[:, 0] != pairs[:, 1]])
        self._consolidate()
        if len(self._keys) and len(fresh):
            positions = np.searchsorted(self._keys, fresh)
            known = self._keys[np.minimum(positions, len(self._keys) - 1)] == fresh
            fresh, positions = fresh[~known], positions[~known]
        if len(fresh) == 0:
            return 0
        # both arrays are sorted, unique and disjoint; np.insert at the
        # searchsorted positions performs a linear merge
        self._keys = (np.insert(self._keys, positions, fresh)
                      if len(self._keys) else fresh)
        self._index = None
        return len(fresh)

    def index_buckets(self) -> None:
        """Build the bucket index now instead of on the first bucket query.

        The tuple generator calls this once the table is complete, so the
        indexing pass is part of phase 2 rather than of whichever phase
        happens to ask first.
        """
        self.bucket_index()

    def bucket_index(self) -> Tuple[np.ndarray, Dict[PartitionPair, Tuple[int, int]]]:
        """``(order, spans)``: the positions of :attr:`keys` grouped by
        partition pair (ascending within a pair), and each pair's non-empty
        ``[start, stop)`` run in ``order``; ``spans`` lists the pairs in run
        order, so the runs tile ``order``.  Not copies — do not mutate."""
        self._consolidate()
        if self._index is None:
            spans: Dict[PartitionPair, Tuple[int, int]] = {}
            order = np.empty(0, dtype=np.int64)
            if len(self._keys):
                sources, destinations = self.endpoints(slice(None))
                parts = self._num_parts
                codes = (self._assignment[sources] * parts
                         + self._assignment[destinations])
                # stable: every bucket lists its positions ascending
                order = counting_argsort(codes, parts * parts)
                present, starts, counts = sorted_runs(codes[order])
                for code, start, count in zip(present.tolist(), starts.tolist(),
                                              counts.tolist()):
                    spans[(code // parts, code % parts)] = (start, start + count)
            self._index = (order, spans)
        return self._index

    # -- queries ----------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_tuples(self) -> int:
        return len(self._keys) + len(self._pending)

    def __len__(self) -> int:
        return self.num_tuples

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        source, destination = pair
        return self._contains_key(source * self._num_vertices + destination)

    @property
    def keys(self) -> np.ndarray:
        """Every tuple as its ``source * num_vertices + destination`` key:
        one sorted, duplicate-free int64 array (not a copy)."""
        self._consolidate()
        return self._keys

    def endpoints(self, positions: Union[np.ndarray, slice]
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, destinations)`` of the tuples at ``positions`` of
        :attr:`keys` — the table's one key decoder."""
        keys = self.keys[positions]
        sources = keys // self._num_vertices
        destinations = sources * self._num_vertices
        np.subtract(keys, destinations, out=destinations)
        return sources, destinations

    def partition_pairs(self) -> List[PartitionPair]:
        """All partition pairs that carry at least one tuple (PI-graph edges)."""
        return sorted(self.bucket_index()[1])

    def bucket_sizes(self) -> Dict[PartitionPair, int]:
        """Tuple count per partition pair (PI-graph edge weights)."""
        return {pair: stop - start
                for pair, (start, stop) in self.bucket_index()[1].items()}

    def positions_for(self, source_partition: int,
                      destination_partition: int) -> np.ndarray:
        """Positions in :attr:`keys` of the tuples on the PI edge
        ``(source_partition, destination_partition)``, ascending.  Over all
        partition pairs the results partition ``range(len(self))``."""
        order, spans = self.bucket_index()
        start, stop = spans.get((source_partition, destination_partition), (0, 0))
        return order[start:stop]

    def tuples_for(self, source_partition: int, destination_partition: int) -> np.ndarray:
        """All tuples on the PI edge ``(source_partition, destination_partition)``
        as an ``(n, 2)`` array of user ids, rows in ascending key order
        (by source, then destination)."""
        return np.column_stack(self.endpoints(
            self.positions_for(source_partition, destination_partition)))

    def all_tuples(self) -> np.ndarray:
        """Every stored tuple as an ``(n, 2)`` array, in ascending key order."""
        return np.column_stack(self.endpoints(slice(None)))

    def iter_tuples(self) -> Iterator[Tuple[int, int]]:
        sources, destinations = self.endpoints(slice(None))
        yield from zip(sources.tolist(), destinations.tolist())

    def memory_estimate_bytes(self) -> int:
        """Bytes the table holds right now: the key array, the bucket index
        when it has been built, and 8 per pending scalar insert."""
        index_bytes = self._index[0].nbytes if self._index is not None else 0
        return self._keys.nbytes + index_bytes + 8 * len(self._pending)
