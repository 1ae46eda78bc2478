"""The KNN graph ``G(t)``: a directed graph with bounded out-degree K.

Each (user) vertex keeps at most K out-edges, each annotated with the
similarity score that placed that neighbour in the user's top-K.  The KNN
iteration replaces a vertex's neighbour list wholesale when better
candidates are found, which is exactly the operation GraphChi-style
frameworks do not support and the motivation for the paper's system.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.digraph import CSRDiGraph, DiGraph
from repro.utils.arrays import (counting_argsort as _counting_argsort,
                                ragged_run_offsets, sorted_runs)
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_non_negative, check_positive_int

ScoredEdge = Tuple[int, int, float]


def _descending_score_keys(scores: np.ndarray) -> np.ndarray:
    """``uint64`` keys that ascend as the scores *descend*: the float64 bits
    mapped monotonically (negatives flip every bit, non-negatives the sign
    bit), then complemented.  ``-0.0`` is folded into ``+0.0`` first, so
    exactly equal scores (the two zeros included) share a key.  Scores must
    be NaN-free: a comparison sort would sink NaNs to the end, this would not.
    """
    keys = (scores + 0.0).view(np.uint64)
    # that map, complemented: a non-negative flips all but its sign bit
    keys ^= ((keys >> np.uint64(63)) - np.uint64(1)) >> np.uint64(1)
    return keys


def _descending_score_argsort(scores: np.ndarray) -> np.ndarray:
    """Stable argsort by *descending* score, bit-identical to
    ``np.argsort(-scores, kind="stable")``: the score keys through four
    stable 16-bit counting passes.  The batch merge ranks every entry with
    it, the sorted merge only what its per-source selection keeps.
    """
    keys = _descending_score_keys(scores)
    order = np.argsort((keys & np.uint64(0xFFFF)).astype(np.uint16), kind="stable")
    for shift in (16, 32, 48):
        digits = ((keys[order] >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
    return order


class KNNGraph:
    """Directed K-out-degree graph with per-edge similarity scores.

    ``G(t)`` is three arrays: neighbours ``(n, k) int64``, scores
    ``(n, k) float64`` and a per-row count ``(n,) int64``.  The first
    ``count[v]`` slots of row ``v`` hold its neighbour list ranked by
    ``(-score, neighbour)``; unused slots hold ``-1`` / ``-inf``, so a row's
    last score is its weakest when the row is full and ``-inf`` when it is
    not.  The bulk paths (merge, CSR, save, load, copy) are array-to-array;
    the scalar methods are row operations on the same arrays.
    """

    def __init__(self, num_vertices: int, k: int):
        check_non_negative(num_vertices, "num_vertices")
        check_positive_int(k, "k")
        self._k = k
        self._neighbors = np.full((num_vertices, k), -1, dtype=np.int64)
        self._scores = np.full((num_vertices, k), -np.inf, dtype=np.float64)
        self._counts = np.zeros(num_vertices, dtype=np.int64)

    # -- construction -----------------------------------------------------

    @classmethod
    def random(cls, num_vertices: int, k: int, seed: SeedLike = None) -> "KNNGraph":
        """Random initial KNN graph: each vertex points to K distinct random others.

        This mirrors the standard NN-Descent initialisation and the "initial"
        stage of the paper's input graph ``G(0)``.  Each row is a uniform
        k-subset of the other vertices, drawn by Floyd's algorithm run on
        every row at once: pass ``slot`` draws one value per row from
        ``[0, top]`` with ``top = n - 1 - k + slot`` and takes ``top`` itself
        where the row already holds the draw.  Values ``>= v`` then shift up
        by one to skip the self loop.  Every score is 0.0, so a row sorted
        by id is ranked.
        """
        check_positive_int(k, "k")
        if num_vertices <= k:
            raise ValueError(
                f"num_vertices ({num_vertices}) must exceed k ({k}) for a random KNN graph"
            )
        rng = make_rng(seed)
        neighbors = np.empty((num_vertices, k), dtype=np.int64)
        for slot in range(k):
            top = num_vertices - 1 - k + slot
            draws = rng.integers(0, top + 1, size=num_vertices, dtype=np.int64)
            held = (neighbors[:, :slot] == draws[:, None]).any(axis=1)
            neighbors[:, slot] = np.where(held, top, draws)
        neighbors.sort(axis=1)
        neighbors += neighbors >= np.arange(num_vertices, dtype=np.int64)[:, None]
        return cls.from_ranked_arrays(np.full(num_vertices, k, dtype=np.int64), neighbors,
                                      np.zeros((num_vertices, k), dtype=np.float64))

    @classmethod
    def from_neighbor_lists(cls, neighbor_lists: Sequence[Sequence[Tuple[int, float]]],
                            k: int) -> "KNNGraph":
        """Build from per-vertex ``[(neighbor, score), ...]`` lists."""
        graph = cls(len(neighbor_lists), k)
        for v, entries in enumerate(neighbor_lists):
            for neighbor, score in entries:
                graph.add_candidate(v, neighbor, score)
        return graph

    @classmethod
    def from_ranked_arrays(cls, counts: np.ndarray, neighbors: np.ndarray,
                           scores: np.ndarray) -> "KNNGraph":
        """Adopt ``(counts, neighbors, scores)`` as a graph's own arrays
        (no copy, no merge) once they pass every invariant the class
        docstring states; the inverse of :meth:`ranked_arrays`.

        Raises ``IndexError`` for a held neighbour outside ``[0, n)`` and
        ``ValueError`` for anything else: a count outside ``[0, k]``, an
        unused slot other than ``-1`` / ``-inf``, a self loop, a neighbour
        repeated within a row, a NaN score, or a row not strictly ranked by
        ``(-score, neighbour)`` (``-0.0`` ranks as ``+0.0``).
        """
        n, k = neighbors.shape
        if counts.shape != (n,) or scores.shape != (n, k):
            raise ValueError("counts, neighbors and scores disagree on the shape")
        if ((counts < 0) | (counts > k)).any():
            raise ValueError(f"a row count lies outside [0, {k}]")
        held = np.arange(k) < counts[:, None]
        if (neighbors[~held] != -1).any() or (scores[~held] != -np.inf).any():
            raise ValueError("an unused slot is not -1 / -inf")
        if ((neighbors < 0) & held).any() or (neighbors >= n).any():
            raise IndexError(f"a neighbour lies outside [0, {n})")
        if (neighbors == np.arange(n)[:, None]).any():
            raise ValueError("a row holds its own vertex")
        if np.isnan(scores).any():
            raise ValueError("a score is NaN")
        # strictly ranked: each held slot after the first is strictly weaker
        # than the one before it, or as strong with a larger id
        before, after = scores[:, :-1], scores[:, 1:]
        ranked = (before > after) | ((before == after)
                                     & (neighbors[:, :-1] < neighbors[:, 1:]))
        if not (ranked | ~held[:, 1:]).all():
            raise ValueError("a row is not strictly ranked by (-score, neighbour)")
        ordered = np.sort(neighbors, axis=1)
        if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any():
            raise ValueError("a row holds a neighbour twice")
        graph = cls(0, k)
        graph._counts, graph._neighbors, graph._scores = counts, neighbors, scores
        return graph

    def ranked_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, neighbors, scores)``: the graph's own arrays, not
        copies — what the graph file holds.  Read them; never write."""
        return self._counts, self._neighbors, self._scores

    def copy(self) -> "KNNGraph":
        clone = KNNGraph(0, self._k)
        clone._neighbors = self._neighbors.copy()
        clone._scores = self._scores.copy()
        clone._counts = self._counts.copy()
        return clone

    def cleared(self, rows: np.ndarray) -> "KNNGraph":
        """A writable copy with the neighbour lists of ``rows`` emptied —
        what a merge that re-ranks only those rows starts from."""
        clone = self.copy()
        clone._neighbors[rows] = -1
        clone._scores[rows] = -np.inf
        clone._counts[rows] = 0
        return clone

    def movable_rows(self, sources: np.ndarray, destinations: np.ndarray,
                     scores: np.ndarray, deleted: Tuple[np.ndarray, np.ndarray]
                     ) -> np.ndarray:
        """The rows whose ranked top-K can differ from this graph's, sorted.

        This graph holds the top-K of a candidate multiset, ranked by
        ``(-score, destination)``.  In the next multiset the candidates
        ``(sources[i], destinations[i])`` carry ``scores[i]`` (rescored or
        arriving), the ``(sources, destinations)`` pairs ``deleted`` are
        gone, and every other candidate keeps its score bits.  A row can
        then move only when

        * a deleted candidate is one of its entries;
        * an entry is offered a score with other bits — ``+0.0`` to
          ``-0.0`` included: the two rank alike, but the row stores bits;
        * an offered non-entry does not rank strictly below its K-th entry
          (NaN ranks, so the merge that follows refuses it); or
        * it holds fewer than K entries and is offered anything.

        Every other row's entries keep their scores and still outrank all
        its other candidates, so the row is this graph's byte for byte.
        """
        scores = np.asarray(scores, dtype=np.float64)
        moved = np.zeros(self.num_vertices, dtype=bool)
        # one K-wide gather a candidate finds its entry, if any (a row holds
        # a destination once): flat match index // K is the candidate
        gone_src, gone_dst = deleted
        lost = np.flatnonzero(self._neighbors[gone_src] == gone_dst[:, None])
        moved[gone_src[lost // self._k]] = True
        entry, slot = np.divmod(np.flatnonzero(
            self._neighbors[sources] == destinations[:, None]), self._k)
        weakest, last = self._scores[sources, -1], self._neighbors[sources, -1]
        moves = ~((scores < weakest) | ((scores == weakest) & (destinations > last)))
        moves[entry] = (self._scores[sources[entry], slot].view(np.uint64)
                        != scores[entry].view(np.uint64))
        moves |= self._counts[sources] < self._k
        moved[sources[moves]] = True
        return np.flatnonzero(moved)

    def freeze(self) -> "KNNGraph":
        """Make the three arrays read-only — a served ``G(t)``; any later
        write through this graph raises ``ValueError``.  Returns ``self``."""
        for array in (self._neighbors, self._scores, self._counts):
            array.flags.writeable = False
        return self

    # -- mutation ---------------------------------------------------------

    def add_candidate(self, vertex: int, neighbor: int, score: float) -> bool:
        """Offer ``neighbor`` with ``score`` as a KNN candidate of ``vertex``.

        Returns ``True`` if the neighbour list changed (the candidate was
        inserted or its score improved), ``False`` otherwise.  A candidate
        that only ties a full row's weakest score does not enter, and the
        neighbour a full row evicts is its weakest, the smallest id among
        equally weak ones.
        """
        self._check_vertex(vertex)
        self._check_vertex(neighbor)
        if vertex == neighbor:
            return False
        full = self._counts[vertex] == self._k
        if full and score <= self._scores[vertex, -1]:
            return False  # not above the weakest: can neither enter nor improve
        entries = self.ranked(vertex)
        at = next((i for i, (other, _) in enumerate(entries) if other == neighbor), None)
        if at is not None:
            if score <= entries[at][1]:
                return False
            del entries[at]
        elif full:
            # ranked by (-score, id): the first slot holding the weakest
            # score is the equally weak neighbour with the smallest id
            weakest = entries[-1][1]
            del entries[[s for _, s in entries].index(weakest)]
        entries.append((neighbor, score))
        self._write_row(vertex, entries)
        return True

    def add_candidates_batch(self, sources: np.ndarray, destinations: np.ndarray,
                             scores: np.ndarray, assume_unique: bool = False) -> int:
        """Array-native bulk form of :meth:`add_candidate`.

        Offers ``destinations[i]`` with ``scores[i]`` as a candidate of
        ``sources[i]`` for all ``i`` in one pass: candidates are grouped by
        source, deduplicated (keeping the best score per edge) and merged
        with the touched rows' incumbents, and the top-K survivors of every
        row are written back with one scatter.

        With distinct scores the result is identical to calling
        :meth:`add_candidate` once per row in order.  On *tied* scores the
        two paths may legitimately differ: the scalar path evicts the
        tied-worst neighbour with the smallest id, which is path-dependent
        and not expressible as a top-K under any static order.  The batch
        path ranks by ``(-score, destination)`` instead, a strict total
        order per source (destinations are unique after dedup), so the
        merged neighbour lists are a pure function of the offered candidate
        *multiset*: re-splitting, re-sharding or reordering the same
        candidates — as dirty-first scheduling does to residency steps —
        cannot move the result.  Both are valid KNN graphs; only the
        arbitrary choice among equal-score neighbours can differ.  Returns
        the number of offered edges that *survive* in the updated neighbour
        lists (inserted, or improving an incumbent's score) — unlike summing
        :meth:`add_candidate`'s booleans, transient insertions evicted by a
        better candidate later in the same batch are not counted.

        ``assume_unique=True`` promises that no ``(source, destination)``
        pair is repeated within the batch (true for tuples drawn from the
        dedup hash table), which skips the per-edge dedup pass when the
        touched vertices have no incumbent neighbours.

        Scores must be NaN-free (every similarity measure in this package
        is): the priority ordering is realised through an integer score-key
        radix pass whose float→key map is only order-isomorphic on non-NaN
        values, so NaN batches are rejected rather than silently mis-ranked.
        """
        src, dst, sc = self._checked_candidates(sources, destinations, scores)
        return self._merge_batch(src, dst, sc, assume_unique)

    def _checked_candidates(self, sources, destinations, scores
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three candidate columns as flat arrays, or an error: unequal
        lengths, a NaN score or an endpoint outside the graph."""
        src = np.asarray(sources, dtype=np.int64).ravel()
        dst = np.asarray(destinations, dtype=np.int64).ravel()
        sc = np.asarray(scores, dtype=np.float64).ravel()
        if not (len(src) == len(dst) == len(sc)):
            raise ValueError("sources, destinations and scores must have equal length")
        if np.isnan(sc).any():
            raise ValueError("candidate scores must be NaN-free")
        if len(src):
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise IndexError(
                    f"vertex {lo if lo < 0 else hi} out of range for graph with "
                    f"{self.num_vertices} vertices"
                )
        return src, dst, sc

    def _merge_batch(self, src: np.ndarray, dst: np.ndarray, sc: np.ndarray,
                     assume_unique: bool) -> int:
        """:meth:`add_candidates_batch` on checked columns."""
        # besides self loops, drop every candidate strictly below its row's
        # weakest score before any sort: K incumbents outrank it, so it can
        # never enter (an under-full row's last slot is -inf: nothing drops)
        keep = (src != dst) & ~(sc < self._scores[src, -1])
        if not keep.all():
            src, dst, sc = src[keep], dst[keep], sc[keep]
        if len(src) == 0:
            return 0

        num_new = len(src)
        c_src, c_dst, c_sc, c_tie = src, dst, sc, None
        touched = np.zeros(self.num_vertices, dtype=bool)
        touched[src] = True
        affected = np.flatnonzero(touched & (self._counts > 0))
        if len(affected):
            incumbents = self._neighbors[affected]
            held = incumbents >= 0
            c_src = np.concatenate([np.repeat(affected, self._counts[affected]), src])
            c_dst = np.concatenate([incumbents[held], dst])
            c_sc = np.concatenate([self._scores[affected][held], sc])
            # survivor marker: incumbents (0) vs new candidate rows (1..n),
            # consumed only by the `changed` count below — the ranking
            # itself never looks at arrival order
            c_tie = np.concatenate([np.zeros(len(c_src) - num_new, dtype=np.int64),
                                    np.arange(1, num_new + 1, dtype=np.int64)])

        # order every entry by (-score, destination): a stable counting pass
        # on the destination composed with the stable score pass realises
        # the two-key ordering, making the ranking independent of arrival
        # order.  Equal (score, destination) entries can only be duplicates
        # of one edge; incumbents precede new rows there, so the dedup keeps
        # the incumbent and the `changed` count stays honest.
        by_dst = _counting_argsort(c_dst, self.num_vertices - 1)
        order = by_dst[_descending_score_argsort(c_sc[by_dst])]
        if not (c_tie is None and assume_unique):
            # keep only each edge's best entry: its first occurrence in the
            # score ordering.  A stable counting sort groups equal edge keys
            # with the best entry first; selecting the run heads through a
            # boolean mask preserves the score ordering without re-sorting
            # the kept positions (with no incumbents and unique pairs the
            # whole pass is skippable).
            if c_tie is None:
                c_tie = np.arange(1, num_new + 1, dtype=np.int64)
            edge_keys = (c_src * self.num_vertices + c_dst)[order]
            by_key = _counting_argsort(edge_keys,
                                       self.num_vertices * self.num_vertices)
            sorted_keys = edge_keys[by_key]
            run_head = np.empty(len(sorted_keys), dtype=bool)
            run_head[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_head[1:])
            keep_best = np.zeros(len(sorted_keys), dtype=bool)
            keep_best[by_key[run_head]] = True
            order = order[keep_best]

        order = self._write_top_k(order, c_src, c_dst, c_sc)
        return len(order) if c_tie is None else int(np.count_nonzero(c_tie[order]))

    def _write_top_k(self, order: np.ndarray, c_src: np.ndarray,
                     c_dst: np.ndarray, c_sc: np.ndarray) -> np.ndarray:
        """Write every source's K best entries; returns their positions.

        ``order`` lists the entries best first — by ``(-score, destination)``,
        at most one entry per edge.
        """
        # per-source counting-sort bucketisation: grouping the score-ordered
        # rows by source is a bounded-key sort, so a counting pass (two for
        # graphs past 64Ki vertices) replaces the global comparison sort;
        # composing the permutations first means one gather per payload array
        order = order[_counting_argsort(c_src[order], self.num_vertices - 1)]
        s_src = c_src[order]

        # rank < K within each contiguous source group selects the new rows;
        # a merged row never shrinks (its incumbents took part in the
        # ranking), so one scatter per array and no slot needs clearing
        group_starts = np.flatnonzero(
            np.concatenate([[True], s_src[1:] != s_src[:-1]]))
        group_sizes = np.diff(np.concatenate([group_starts, [len(s_src)]]))
        rank = ragged_run_offsets(group_sizes)
        keep = rank < self._k
        order, s_src, rank = order[keep], s_src[keep], rank[keep]
        self._neighbors[s_src, rank] = c_dst[order]
        self._scores[s_src, rank] = c_sc[order]
        self._counts[s_src[rank == 0]] = np.minimum(group_sizes, self._k)
        return order

    def add_candidates_sharded(self, sources: np.ndarray, destinations: np.ndarray,
                               scores: np.ndarray, assume_unique: bool = False) -> int:
        """:meth:`add_candidates_batch`, by the shortest route to its rows.

        Candidates that arrive strictly increasing in ``(source,
        destination)`` for sources whose rows are all empty — phase 4 hands
        over the dedup table's own order, into a new graph or into the rows
        a :meth:`cleared` copy emptied — take :meth:`_merge_sorted`; any
        other input takes the batch merge.  Both give the same rows, ties
        included.
        """
        src, dst, sc = self._checked_candidates(sources, destinations, scores)
        if len(src) == 0:
            return 0
        keys = src * self.num_vertices + dst
        if (keys[1:] > keys[:-1]).all() and not self._counts[src].any():
            return self._merge_sorted(src, dst, sc)
        return self._merge_batch(src, dst, sc, assume_unique)

    def _merge_sorted(self, src: np.ndarray, dst: np.ndarray, sc: np.ndarray) -> int:
        """Merge candidates strictly increasing in ``(source, destination)``
        into rows that hold nothing yet.

        No edge repeats and no incumbent competes, and equal scores already
        stand in destination order, so the ``(-score, destination)`` ranking
        of :meth:`add_candidates_batch` is one stable score pass and the
        source pass — no destination pass, no incumbent gather, no dedup.

        Only candidates that can still make their row's top K reach that
        pass.  One sort of ``source << (64 - b) | score_key >> b`` (``b`` the
        bit length of ``n - 1``) puts each row's candidates best first; the
        K-th of a row's run is its K-th best truncated key, and candidates
        packed above it are dropped.  Truncation is monotone, so every
        candidate that ranks survives; ties made by the truncation survive
        too, and the exact pass ranks them.
        """
        keep = src != dst
        if not keep.all():
            src, dst, sc = src[keep], dst[keep], sc[keep]
        if len(src) == 0:
            return 0
        _, starts, lengths = sorted_runs(src)
        shift = (self.num_vertices - 1).bit_length()
        packed = _descending_score_keys(sc) >> np.uint64(shift)
        packed |= src.astype(np.uint64) << np.uint64(64 - shift)
        # a row of at most K candidates keeps its last: all of them
        kth = np.sort(packed)[starts + np.minimum(lengths, self._k) - 1]
        kept = np.flatnonzero(packed <= np.repeat(kth, lengths))
        src, dst, sc = src[kept], dst[kept], sc[kept]
        return len(self._write_top_k(_descending_score_argsort(sc), src, dst, sc))

    def set_neighbors(self, vertex: int, entries: Iterable[Tuple[int, float]]) -> None:
        """Replace the neighbour list of ``vertex`` with the top-K of ``entries``."""
        self._check_vertex(vertex)
        best: Dict[int, float] = {}
        for neighbor, score in entries:
            self._check_vertex(neighbor)
            if neighbor == vertex:
                continue
            if neighbor not in best or score > best[neighbor]:
                best[neighbor] = score
        # stable: among equal scores at the K boundary the first offered wins
        self._write_row(vertex, sorted(best.items(), key=lambda e: -e[1])[:self._k])

    def _write_row(self, vertex: int, entries: List[Tuple[int, float]]) -> None:
        """Store at most K ``(neighbor, score)`` pairs as the ranked row of ``vertex``."""
        entries = sorted(entries, key=lambda e: (-e[1], e[0]))
        pad = self._k - len(entries)
        self._neighbors[vertex] = [neighbor for neighbor, _ in entries] + [-1] * pad
        self._scores[vertex] = [score for _, score in entries] + [-np.inf] * pad
        self._counts[vertex] = len(entries)

    # -- queries ----------------------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    @property
    def num_vertices(self) -> int:
        return len(self._counts)

    @property
    def num_edges(self) -> int:
        return int(self._counts.sum())

    @property
    def nbytes(self) -> int:
        """Bytes of the graph's own storage: ``n·k·16 + n·8``."""
        return self._neighbors.nbytes + self._scores.nbytes + self._counts.nbytes

    def ranked(self, vertex: int) -> List[Tuple[int, float]]:
        """Current KNN of ``vertex`` as ``(neighbor, score)``, best first, ties by id."""
        self._check_vertex(vertex)
        count = self._counts[vertex]
        return list(zip(self._neighbors[vertex, :count].tolist(),
                        self._scores[vertex, :count].tolist()))

    def neighbors(self, vertex: int) -> List[int]:
        """Current KNN of ``vertex`` sorted by descending similarity."""
        self._check_vertex(vertex)
        return self._neighbors[vertex, :self._counts[vertex]].tolist()

    def neighbor_scores(self, vertex: int) -> Dict[int, float]:
        """Mapping ``neighbor -> score`` for ``vertex`` (a copy)."""
        return dict(self.ranked(vertex))

    def score(self, vertex: int, neighbor: int) -> Optional[float]:
        return self.neighbor_scores(vertex).get(neighbor)

    def worst_score(self, vertex: int) -> float:
        """Score of the weakest current neighbour (``-inf`` when under-full)."""
        self._check_vertex(vertex)
        return float(self._scores[vertex, -1])

    def edge_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as ``(sources, destinations, scores)`` sorted by ``(src, dst)``."""
        held = self._neighbors >= 0
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._counts)
        destinations = self._neighbors[held]
        order = np.argsort(sources * self.num_vertices + destinations)
        return sources, destinations[order], self._scores[held][order]

    def edges(self) -> Iterator[ScoredEdge]:
        return zip(*(column.tolist() for column in self.edge_columns()))

    def edge_keys(self) -> np.ndarray:
        """All edges encoded as sorted unique int64 keys ``src * n + dst`` (a
        fresh array): what :meth:`to_csr` is built from and graphs are
        compared by."""
        keys = (np.arange(self.num_vertices, dtype=np.int64)[:, None]
                * self.num_vertices + self._neighbors)[self._neighbors >= 0]
        keys.sort()
        return keys

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(E, 2)`` int64 array (scores dropped)."""
        sources, destinations, _ = self.edge_columns()
        return np.column_stack([sources, destinations])

    def edge_fingerprint(self) -> str:
        """SHA-256 over the sorted ``(src, dst, round(score, 9))`` edge set.

        The regression currency of the parity walls: two graphs with the
        same fingerprint hold the same neighbour lists with the same scores
        (to 1e-9).
        """
        edges = [(s, d, round(score, 9)) for s, d, score in self.edges()]
        # keep the JSON layout: the walls' goldens (test_graph_knn_arrays,
        # test_sorted_spine) pin the digest of these exact bytes
        return hashlib.sha256(json.dumps(edges).encode()).hexdigest()

    def to_digraph(self) -> DiGraph:
        return DiGraph.from_edges(self.num_vertices, self.edge_array().tolist())

    def to_csr(self, edge_keys: Optional[np.ndarray] = None) -> CSRDiGraph:
        """CSR snapshot, from :meth:`edge_keys` when the caller has them."""
        if edge_keys is None:
            edge_keys = self.edge_keys()
        return CSRDiGraph.from_sorted_keys(self.num_vertices, edge_keys)

    def average_score(self) -> float:
        """Mean similarity over all current KNN edges (0.0 for an empty graph)."""
        return float(self._scores[self._neighbors >= 0].mean()) if self.num_edges else 0.0

    def edge_difference(self, other: "KNNGraph") -> int:
        """Number of directed edges present in exactly one of the two graphs.

        Used as the convergence signal: when successive iterations change few
        edges, the KNN graph has stabilised.
        """
        if other.num_vertices != self.num_vertices:
            raise ValueError("graphs must have the same vertex count")
        mine = self.edge_keys()
        theirs = other.edge_keys()
        shared = len(np.intersect1d(mine, theirs, assume_unique=True))
        return len(mine) + len(theirs) - 2 * shared

    def recall_against(self, exact: "KNNGraph") -> float:
        """Fraction of the exact KNN edges that this graph also contains.

        The standard quality metric for approximate KNN-graph construction
        (recall@K against a brute-force ground truth).
        """
        if exact.num_vertices != self.num_vertices:
            raise ValueError("graphs must have the same vertex count")
        truth = exact.edge_keys()
        if len(truth) == 0:
            return 1.0
        mine = self.edge_keys()
        hits = len(np.intersect1d(mine, truth, assume_unique=True))
        return hits / len(truth)

    def __repr__(self) -> str:
        return (f"KNNGraph(num_vertices={self.num_vertices}, k={self._k}, "
                f"num_edges={self.num_edges})")

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(
                f"vertex {vertex} out of range for graph with {self.num_vertices} vertices"
            )
