"""Candidate-tuple generation (the bridge scan of phases 1–2).

For every partition ``R_i`` the in-edge list ``{(s, v)}`` and the out-edge
list ``{(v, d)}`` are both sorted by the bridge vertex ``v`` (phase 1 does
the sorting).  A single merge scan over the two sorted lists then produces
every neighbours-of-neighbours pair ``(s, d)``: whenever both lists contain
a run for the same bridge ``v``, the cross product of the run's sources and
destinations gives the pairs bridged by ``v``.

The resulting pairs plus the direct edges of ``G(t)`` are inserted into the
dedup hash table ``H`` (:class:`~repro.tuples.hash_table.TupleHashTable`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.partition.model import Partition
from repro.tuples.hash_table import TupleHashTable
from repro.utils.arrays import ragged_ranges, sorted_runs

#: Row budget for batching bridge tuples into bulk hash-table inserts: large
#: enough that a whole iteration usually needs one dedup sweep, small enough
#: that the raw (duplicate-laden) pair buffer stays bounded (~16 MiB).
_BRIDGE_FLUSH_ROWS = 1 << 20


def partition_bridge_tuples(partition: Partition,
                            max_pairs_per_bridge: Optional[int] = None) -> np.ndarray:
    """Neighbours-of-neighbours pairs bridged by the vertices of one partition.

    Returns an ``(n, 2)`` array of ``(s, d)`` pairs (self pairs included —
    the hash table filters them).  ``max_pairs_per_bridge`` optionally caps
    the cross product per bridge vertex, a standard guard against super-hub
    vertices blowing up the candidate set (documented deviation knob; the
    default of ``None`` reproduces the paper exactly).

    Both edge lists are sorted by bridge vertex, so the merge scan reduces
    to run bookkeeping: the matching bridge runs of the two lists are found
    with one ``np.intersect1d`` over the per-list unique bridges, and every
    run pair's cross product is emitted by a single batched repeat/gather
    pass — no per-bridge Python loop or per-bridge ``tile``/``column_stack``
    allocations.  Rows come out exactly as the per-bridge scan produced
    them: bridges ascending, then the run's sources in order, each paired
    with the run's destinations in order.
    """
    in_edges = partition.in_edges     # rows (s, v), sorted by v
    out_edges = partition.out_edges   # rows (v, d), sorted by v
    if len(in_edges) == 0 or len(out_edges) == 0:
        return np.empty((0, 2), dtype=np.int64)

    # both lists are already sorted by bridge, so the run boundaries fall
    # out of one neighbour comparison — no np.unique (which would re-sort)
    unique_in, in_start, in_count = sorted_runs(in_edges[:, 1])
    unique_out, out_start, out_count = sorted_runs(out_edges[:, 0])
    _, in_at, out_at = np.intersect1d(unique_in, unique_out,
                                      assume_unique=True, return_indices=True)
    if not len(in_at):
        return np.empty((0, 2), dtype=np.int64)
    src_start, src_len = in_start[in_at], in_count[in_at]
    dst_start, dst_len = out_start[out_at], out_count[out_at]
    if max_pairs_per_bridge is not None:
        # same per-bridge truncation as the scalar scan: bridges over budget
        # keep the first ~sqrt(budget) sources x budget/sqrt(budget) dests
        budget = max_pairs_per_bridge
        keep_s = max(1, int(np.sqrt(budget)))
        keep_d = max(1, budget // keep_s)
        over = src_len * dst_len > budget
        src_len = np.where(over, np.minimum(src_len, keep_s), src_len)
        dst_len = np.where(over, np.minimum(dst_len, keep_d), dst_len)
    # one row block per kept source: its in-edge row index, repeated over
    # its bridge's kept destination run
    source_rows = ragged_ranges(src_start, src_len)
    dests_per_row = np.repeat(dst_len, src_len)
    grid_s = np.repeat(in_edges[source_rows, 0], dests_per_row)
    dest_rows = ragged_ranges(np.repeat(dst_start, src_len), dests_per_row)
    return np.column_stack([grid_s, out_edges[dest_rows, 1]])


def generate_candidate_tuples(graph: CSRDiGraph,
                              partitions: Sequence[Partition],
                              assignment: np.ndarray,
                              include_direct_edges: bool = True,
                              max_pairs_per_bridge: Optional[int] = None) -> TupleHashTable:
    """Build and populate the hash table ``H`` for one KNN iteration.

    Parameters
    ----------
    graph:
        The current KNN graph ``G(t)`` (used for the direct edges).
    partitions:
        Phase-1 partitions with their sorted in-/out-edge lists.
    assignment:
        ``assignment[v]`` = partition id of vertex ``v`` (buckets the tuples
        by partition pair for the PI graph).
    include_direct_edges:
        The paper populates ``H`` with both neighbours-of-neighbours tuples
        and the direct edges of ``G(t)``; set ``False`` to study the
        contribution of the bridge tuples alone.
    max_pairs_per_bridge:
        Optional cap on the per-bridge cross product (see
        :func:`partition_bridge_tuples`).
    """
    table = TupleHashTable(graph.num_vertices, assignment)
    # batch the partitions' bridge pairs (plus the direct edges) into as few
    # bulk inserts as a bounded row buffer allows: normally one dedup sweep
    # per iteration, without the raw duplicate-laden pairs of every partition
    # resident at once
    chunks: list = []
    pending = 0

    def flush() -> None:
        nonlocal pending
        if chunks:
            batch = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            # before the insert, whose sort buffers are the peak of phase 2
            chunks.clear()
            pending = 0
            table.add_array(batch)

    for partition in partitions:
        pairs = partition_bridge_tuples(partition, max_pairs_per_bridge=max_pairs_per_bridge)
        if len(pairs):
            chunks.append(pairs)
            pending += len(pairs)
            if pending >= _BRIDGE_FLUSH_ROWS:
                flush()
    flush()
    if include_direct_edges and graph.num_edges:
        # inserted separately so the flush buffer never holds the direct
        # edges on top of pending bridge pairs
        table.add_array(graph.edges_array())
    # bucket the finished table here, so phase 3 only reads the index
    table.bucket_index()
    return table


def brute_force_two_hop_pairs(graph: CSRDiGraph) -> np.ndarray:
    """Reference (slow) two-hop pair enumeration used to validate the merge scan.

    For every vertex ``v``, every in-neighbour ``s`` and out-neighbour ``d``
    of ``v`` produce the pair ``(s, d)``.  Returns unique non-self pairs.
    """
    pairs = set()
    for bridge in range(graph.num_vertices):
        sources = graph.in_neighbors(bridge)
        destinations = graph.out_neighbors(bridge)
        for s in sources:
            for d in destinations:
                if s != d:
                    pairs.add((int(s), int(d)))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(sorted(pairs), dtype=np.int64)
