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

Aligned with the keys is each tuple's **multiplicity**: how many times it
was inserted — for the table phase 2 builds, the number of bridges ``v``
with ``s → v → d`` plus one for a direct edge.  The dedup sort exposes it as
a run length; keeping it is what lets :meth:`TupleHashTable.patched` advance
a table by a signed multiplicity delta (:mod:`repro.tuples.delta`) instead
of rebuilding it: a key leaves when its last derivation does.

Tuples are additionally *bucketed by the partition pair*
``(partition(s), partition(d))``; those buckets are exactly the edges of the
partition-interaction graph built in phase 3.  Buckets are not copies: a
lazily built index (one stable counting pass over the partition-pair codes)
lists, per bucket, the positions of its tuples in the key array.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.utils.arrays import counting_argsort, find_sorted, sorted_runs
from repro.utils.validation import check_positive_int

PartitionPair = Tuple[int, int]
BucketIndex = Tuple[np.ndarray, Dict[PartitionPair, Tuple[int, int]]]


class KeyPatch(NamedTuple):
    """How a patched table's key array differs from its predecessor's: the
    positions ``deleted`` from the old array, and where in what is left the
    new keys were inserted.  Anything aligned with the old keys follows them
    through :meth:`apply`."""

    deleted: np.ndarray
    inserted_at: np.ndarray

    def apply(self, values: np.ndarray, fill) -> np.ndarray:
        """``values`` moved to the new positions, ``fill`` at the new keys."""
        return np.insert(np.delete(values, self.deleted), self.inserted_at, fill)


class TupleHashTable:
    """Deduplicating store of candidate pairs, bucketed by partition pair."""

    def __init__(self, num_vertices: int, assignment: np.ndarray):
        check_positive_int(num_vertices, "num_vertices")
        # the table's own copy: the caller's array may change under a table
        # that is carried from one iteration to the next
        assignment = np.array(assignment, dtype=np.int64)
        if len(assignment) != num_vertices:
            raise ValueError("assignment must have one entry per vertex")
        self._num_vertices = num_vertices
        self._assignment = assignment
        self._num_parts = int(assignment.max()) + 1 if len(assignment) else 1
        self._keys = np.empty(0, dtype=np.int64)    # sorted, unique
        self._multiplicity = np.empty(0, dtype=np.int32)  # inserts per key
        self._pending: Dict[int, int] = {}          # scalar adds not yet folded in
        # (order, spans): positions into _keys grouped by partition pair, and
        # each pair's [start, stop) run in that order; None = stale
        self._index: Optional[BucketIndex] = None
        # tuples per partition-pair code; None = stale
        self._sizes: Optional[np.ndarray] = None

    # -- insertion -------------------------------------------------------------

    def _merge(self, keys: np.ndarray, counts: np.ndarray) -> int:
        """Fold sorted unique ``keys`` with their insert ``counts`` into the
        table; returns how many keys were new."""
        if len(self._keys):
            positions, known = find_sorted(self._keys, keys)
            self._multiplicity[positions[known]] += counts[known]
            keys, counts, positions = keys[~known], counts[~known], positions[~known]
            if len(keys):
                # both arrays are sorted, unique and disjoint; np.insert at
                # the searchsorted positions performs a linear merge
                self._keys = np.insert(self._keys, positions, keys)
                self._multiplicity = np.insert(self._multiplicity, positions, counts)
        else:
            self._keys, self._multiplicity = keys, counts
        if len(keys):
            self._index = self._sizes = None
        return len(keys)

    def _consolidate(self) -> None:
        """Fold the pending scalar inserts into the sorted key array."""
        if not self._pending:
            return
        pending = np.fromiter(self._pending, dtype=np.int64, count=len(self._pending))
        counts = np.fromiter(self._pending.values(), dtype=np.int32,
                             count=len(self._pending))
        self._pending.clear()
        order = np.argsort(pending)
        self._merge(pending[order], counts[order])

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
        if key in self._pending:
            self._pending[key] += 1
            return False
        position, known = find_sorted(self._keys, key)
        if known:
            self._multiplicity[position] += 1
            return False
        self._pending[key] = 1
        return True

    def add_array(self, pairs: np.ndarray) -> int:
        """Vectorised bulk insert of an ``(n, 2)`` array of tuples.

        Deduplication against existing contents and self-pair filtering are
        preserved; this is the fast path used by the tuple generator.  The
        batch's keys are sorted once, here; nothing downstream sorts them
        again, and the run lengths the sort exposes are the multiplicities.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return 0
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array")
        if pairs.min() < 0 or pairs.max() >= self._num_vertices:
            raise IndexError("tuple endpoints out of range")
        keys = pairs[:, 0] * self._num_vertices + pairs[:, 1]
        keys = keys[pairs[:, 0] != pairs[:, 1]]
        if not len(keys):
            return 0
        keys.sort()
        # run starts and lengths without int64 temporaries the size of the
        # table: this is the iteration's largest buffer already
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.empty(len(starts), dtype=np.int32)
        np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
        counts[-1] = len(keys) - starts[-1]
        del starts
        self._consolidate()
        return self._merge(keys[first], counts)

    def patched(self, delta_keys: np.ndarray, delta: np.ndarray,
                assignment: np.ndarray) -> Tuple["TupleHashTable", KeyPatch]:
        """A new table over ``assignment``: this one with the signed
        multiplicity changes ``delta`` applied at the sorted unique
        ``delta_keys``, and how its key array differs from this one's.

        A key whose multiplicity reaches zero leaves, a key this table does
        not hold arrives; this table is not touched.  The bucket sizes are
        patched by the departed and arrived keys when the assignment is
        this table's own.  A multiplicity below zero, or an arriving key
        without a positive one, means the delta does not describe this
        table: ``RuntimeError``, never a clamp.
        """
        self._consolidate()
        positions, known = find_sorted(self._keys, delta_keys)
        held = positions[known]          # ascending: the delta keys are sorted
        multiplicity = self._multiplicity.copy()
        multiplicity[held] += delta[known]
        changed = multiplicity[held]
        arrived, arrived_with = delta_keys[~known], delta[~known]
        if (changed < 0).any() or (arrived_with <= 0).any():
            raise RuntimeError(
                "multiplicity delta does not describe this table: "
                f"{np.count_nonzero(changed < 0)} keys fall below zero, "
                f"{np.count_nonzero(arrived_with <= 0)} arrive without a "
                "positive multiplicity")
        deleted = held[changed == 0]
        # where an arrival goes among all keys, less the deletions before it
        at = positions[~known]
        patch = KeyPatch(deleted, at - np.searchsorted(deleted, at))
        table = TupleHashTable(self._num_vertices, assignment)
        table._keys = patch.apply(self._keys, arrived)
        table._multiplicity = patch.apply(multiplicity, arrived_with)
        if np.array_equal(table._assignment, self._assignment):
            slots = self._num_parts * self._num_parts
            table._sizes = (
                self._sizes_by_code()
                - np.bincount(self._codes(self._keys[deleted]), minlength=slots)
                + np.bincount(self._codes(arrived), minlength=slots))
        return table, patch

    def freeze(self) -> None:
        """Make the table what an iteration keeps of one it has finished
        with: no bucket index, every array read-only."""
        self._consolidate()
        self._sizes_by_code()
        self._index = None
        for array in (self._keys, self._multiplicity, self._sizes, self._assignment):
            array.flags.writeable = False

    # -- buckets -----------------------------------------------------------------

    def _codes(self, keys: np.ndarray) -> np.ndarray:
        """Partition-pair code ``partition(s) * parts + partition(d)`` of keys."""
        scratch = keys // self._num_vertices                  # the sources
        codes = self._assignment[scratch]
        codes *= self._num_parts
        scratch *= self._num_vertices
        np.subtract(keys, scratch, out=scratch)               # the destinations
        codes += self._assignment[scratch]
        return codes

    def _sizes_by_code(self) -> np.ndarray:
        if self._sizes is None:
            self._sizes = np.bincount(
                self._codes(self.keys), minlength=self._num_parts * self._num_parts)
        return self._sizes

    def bucket_index(self, only: Optional[np.ndarray] = None) -> BucketIndex:
        """``(order, spans)``: the positions of :attr:`keys` grouped by
        partition pair (ascending within a pair), and each pair's non-empty
        ``[start, stop)`` run in ``order``; ``spans`` lists the pairs in run
        order, so the runs tile ``order``.  Not copies — do not mutate.

        With ``only``, ascending positions of keys, the same for those
        tuples alone — phase 4 groups just what the score cache left
        unresolved: filtered out of the index over every tuple where that
        was built (it is kept), grouped on their own where it was not.
        """
        if only is not None and self._index is None:
            order, spans = self._grouped(self.keys[only])
            return only[order], spans
        if self._index is None:
            order, spans = self._index = self._grouped(self.keys)
            self._sizes = np.zeros(self._num_parts * self._num_parts, dtype=np.int64)
            for (source, destination), (start, stop) in spans.items():
                self._sizes[source * self._num_parts + destination] = stop - start
        order, spans = self._index
        if only is None or not spans:
            return order, spans
        kept = np.zeros(len(order), dtype=bool)
        kept[only] = True
        kept = kept[order]
        # the spans tile ``order``, so one segmented sum counts each pair's
        starts = np.fromiter((start for start, _ in spans.values()),
                             dtype=np.int64, count=len(spans))
        counts = np.add.reduceat(kept.view(np.uint8), starts, dtype=np.int64)
        stops = np.cumsum(counts)
        return order[kept], {
            pair: (stop - count, stop)
            for pair, count, stop in zip(spans, counts.tolist(), stops.tolist())
            if count}

    def _grouped(self, keys: np.ndarray) -> BucketIndex:
        """:meth:`bucket_index` of ``keys`` as if they were the table's."""
        spans: Dict[PartitionPair, Tuple[int, int]] = {}
        if not len(keys):
            return np.empty(0, dtype=np.int64), spans
        parts = self._num_parts
        codes = self._codes(keys)
        # stable: every bucket lists its positions ascending
        order = counting_argsort(codes, parts * parts)
        present, starts, counts = sorted_runs(codes[order])
        for code, start, count in zip(present.tolist(), starts.tolist(),
                                      counts.tolist()):
            spans[(code // parts, code % parts)] = (start, start + count)
        return order, spans

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
        key = source * self._num_vertices + destination
        return key in self._pending or bool(find_sorted(self._keys, key)[1])

    @property
    def keys(self) -> np.ndarray:
        """Every tuple as its ``source * num_vertices + destination`` key:
        one sorted, duplicate-free int64 array (not a copy)."""
        self._consolidate()
        return self._keys

    @property
    def multiplicities(self) -> np.ndarray:
        """How many times each tuple of :attr:`keys` was inserted (int32,
        aligned with the keys, not a copy)."""
        self._consolidate()
        return self._multiplicity

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
        return sorted(self.bucket_sizes())

    def bucket_sizes(self) -> Dict[PartitionPair, int]:
        """Tuple count per partition pair (PI-graph edge weights)."""
        counts = self._sizes_by_code()
        codes = np.flatnonzero(counts)
        return {(code // self._num_parts, code % self._num_parts): size
                for code, size in zip(codes.tolist(), counts[codes].tolist())}

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
        """Bytes the table holds right now: the key and multiplicity arrays,
        the bucket index and sizes when they have been built, and 12 per
        pending scalar insert."""
        held = (self._keys, self._multiplicity, self._sizes,
                self._index and self._index[0])
        return (sum(array.nbytes for array in held if array is not None)
                + 12 * len(self._pending))
