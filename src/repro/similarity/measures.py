"""Similarity measures between user profiles.

Two profile encodings are supported throughout the library:

* *sparse* profiles — a set of item ids per user (e.g. pages voted on,
  papers co-authored), compared with set measures (Jaccard, overlap,
  common-item count);
* *dense* profiles — a fixed-dimension real vector per user (e.g. rating or
  embedding vectors), compared with vector measures (cosine, adjusted
  cosine, Pearson, Euclidean-derived similarity).

All measures return a similarity in which *larger means more similar*, so
the KNN top-K selection never needs to know which measure is in use.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.utils.arrays import find_sorted as _find_sorted
from repro.utils.arrays import ragged_ranges as _ragged_ranges

SimilarityFn = Callable

#: A slice builds its membership bitmap only while the bitmap — the bit
#: table plus the int32 code → column map — is at most this many times the
#: bytes of the slice's own codes (8 B a stored item), and holds under
#: 2**31 bits (it is addressed by int32 bit positions); otherwise the slice
#: keeps the sorted search.  Item sets from ``generate_sparse_profiles``
#: (Zipf 1.1, 60,000-item catalogue), bitmap / codes, ns a needle (search
#: → bitmap with fixed-width rows) and build ns a stored item, on a 2-core
#: Xeon: 4,000 users × 20 items, 8 partitions (500-row slices, 3,772
#: distinct of 16,999 coded items) → 3.8×, 38 → 4.4 ns, build 18 ns;
#: 40,000 × 20, 8 partitions (5,000 rows, 19,751 of 51,118) → 15.7×,
#: 50 → 7.0 ns, 24.5 ns; over the bound, 40,000 × 5 in 10,000-row slices
#: → 36× (14 MB), 68 → 12 ns, 125 ns, and 40,000 × 20 in 20,000-row
#: slices → 32× (102 MB), 52 → 8 ns, 75 ns.  The bitmap wins on time at
#: every size, so the bound is a memory rule: the bitmap grows with the
#: slice's distinct items, and 32 is twice the larger fitted size.  With
#: a memory budget the budget's headroom caps it as well
#: (:meth:`SetProfileCSR.cap_derived_bytes`).
_BITMAP_MAX_CODE_MULTIPLE = 32

#: The right side of a batch is read as fixed-width rows only while the
#: padded matrix holds at most this many cells per stored item (``rows ×
#: widest row ≤ 2 × nnz``); a more ragged slice keeps the ragged gather.
#: Padded reads cost per cell, ragged ones per needle.  Rows of lognormal
#: length (median 20, cut at 160) from the same generator, cells / nnz →
#: ns a needle padded / ragged, 4,000 users in 500-row slices: 1.0 →
#: 3.6 / 10.0, 2.0 → 6.8 / 12.3, 4.2 → 14.3 / 12.3, 5.9 → 20.1 / 12.4;
#: 40,000 users in 5,000-row slices: 1.0 → 7.1 / 13.1, 2.4 → 16.0 / 16.1,
#: 5.4 → 29.8 / 15.9.  The crossing sits at about 3.4 and 2.4 cells a
#: needle; 2 stays below both.
_PAD_MAX_NNZ_MULTIPLE = 2

#: Break-even: a batch builds its left slice's bitmap only when it holds at
#: least this many needles (right-row items) per item the slice stores;
#: once built, the bitmap serves every later batch against the slice.
#: Building costs per stored item, not per cell: at the two sizes above
#: it took 18 ns and 24.5 ns an item while a needle saved 31 ns and 43 ns,
#: a break-even of 0.57 needles an item at both, where it moved from 330
#: to 1,735 cells a needle.  1 leaves each build paid about twice over,
#: so the small batches of converged iterations keep the search: building
#: for every batch instead cost ``cold_sparse`` ``update_visible_p50_s``
#: 0.0668 → 0.0756 s (6 of 6 pairs).
_BITMAP_NEEDLES_PER_ITEM = 1


# -- set (sparse-profile) measures ----------------------------------------

def jaccard_similarity(a: Iterable[int], b: Iterable[int]) -> float:
    """|a ∩ b| / |a ∪ b|; 0.0 when both sets are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 0.0
    union = len(sa | sb)
    return len(sa & sb) / union if union else 0.0


def overlap_coefficient(a: Iterable[int], b: Iterable[int]) -> float:
    """|a ∩ b| / min(|a|, |b|); 0.0 when either set is empty."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / min(len(sa), len(sb))


def common_items(a: Iterable[int], b: Iterable[int]) -> float:
    """Raw common-item count, the simplest recommender-style similarity."""
    return float(len(set(a) & set(b)))


def cosine_set_similarity(a: Iterable[int], b: Iterable[int]) -> float:
    """Set cosine: |a ∩ b| / sqrt(|a| * |b|)."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / float(np.sqrt(len(sa) * len(sb)))


# -- vector (dense-profile) measures ---------------------------------------

def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Standard cosine similarity; 0.0 if either vector is all-zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def adjusted_cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity after subtracting each vector's own mean."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return cosine_similarity(a - a.mean(), b - b.mean())


def pearson_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation coefficient mapped to 0.0 for degenerate vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da, db = a - a.mean(), b - b.mean()
    denom = np.linalg.norm(da) * np.linalg.norm(db)
    if denom == 0.0:
        return 0.0
    return float(np.dot(da, db) / denom)


def euclidean_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Similarity derived from Euclidean distance: ``1 / (1 + d)``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(1.0 / (1.0 + np.linalg.norm(a - b)))


# -- vectorised batch kernels ----------------------------------------------

def cosine_similarity_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity between two equally-shaped matrices.

    ``left[i]`` is compared with ``right[i]``; rows with zero norm yield 0.0.
    This is the kernel the engine uses to score all tuples on a PI edge in
    one NumPy call.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape:
        raise ValueError(f"shape mismatch: {left.shape} vs {right.shape}")
    dots = np.einsum("ij,ij->i", left, right)
    norms = np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=1)
    out = np.zeros(len(left), dtype=np.float64)
    nonzero = norms > 0
    out[nonzero] = dots[nonzero] / norms[nonzero]
    return out


def euclidean_similarity_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise ``1 / (1 + ||left_i - right_i||)``."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape:
        raise ValueError(f"shape mismatch: {left.shape} vs {right.shape}")
    return 1.0 / (1.0 + np.linalg.norm(left - right, axis=1))


def cosine_from_norms(left: np.ndarray, right: np.ndarray,
                      left_norms: np.ndarray, right_norms: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity with precomputed row norms.

    Callers that score many batches against the same profile matrix (e.g. a
    resident :class:`~repro.storage.profile_store.ProfileSlice`) compute each
    row's norm once and skip the per-batch norm reduction.
    """
    dots = np.einsum("ij,ij->i", left, right)
    norms = left_norms * right_norms
    out = np.zeros(len(left), dtype=np.float64)
    nonzero = norms > 0
    out[nonzero] = dots[nonzero] / norms[nonzero]
    return out


def adjusted_cosine_similarity_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise adjusted cosine: each row is centred on its own mean first."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape:
        raise ValueError(f"shape mismatch: {left.shape} vs {right.shape}")
    return cosine_similarity_batch(left - left.mean(axis=1, keepdims=True),
                                   right - right.mean(axis=1, keepdims=True))


def pearson_similarity_batch(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation (0.0 for degenerate rows)."""
    return adjusted_cosine_similarity_batch(left, right)


#: Batch kernel per dense (vector) measure; every name in VECTOR_MEASURES has one.
VECTOR_MEASURE_BATCH: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cosine": cosine_similarity_batch,
    "euclidean": euclidean_similarity_batch,
    "adjusted_cosine": adjusted_cosine_similarity_batch,
    "pearson": pearson_similarity_batch,
}


def vector_measure_batch(measure: str, left: np.ndarray,
                         right: np.ndarray) -> np.ndarray:
    """Row-wise scores under a named vector measure.

    Built-in measures dispatch to their vectorised kernel; a custom measure
    registered in :data:`MEASURES` falls back to a per-pair loop so it still
    works (slowly) everywhere the engine scores batches.
    """
    kernel = VECTOR_MEASURE_BATCH.get(measure)
    if kernel is not None:
        return kernel(left, right)
    fn = get_measure(measure)
    return np.asarray([fn(l, r) for l, r in zip(left, right)], dtype=np.float64)


# -- vectorised set-measure kernels over a CSR incidence matrix -------------

def _jaccard_from_counts(common: np.ndarray, size_a: np.ndarray,
                         size_b: np.ndarray) -> np.ndarray:
    union = size_a + size_b - common
    return np.divide(common, union, out=np.zeros_like(common), where=union > 0)


def _overlap_from_counts(common: np.ndarray, size_a: np.ndarray,
                         size_b: np.ndarray) -> np.ndarray:
    smaller = np.minimum(size_a, size_b)
    return np.divide(common, smaller, out=np.zeros_like(common), where=smaller > 0)


def _common_from_counts(common: np.ndarray, size_a: np.ndarray,
                        size_b: np.ndarray) -> np.ndarray:
    return common


def _cosine_set_from_counts(common: np.ndarray, size_a: np.ndarray,
                            size_b: np.ndarray) -> np.ndarray:
    denom = np.sqrt(size_a * size_b)
    return np.divide(common, denom, out=np.zeros_like(common), where=denom > 0)


#: Batch kernel per set measure, applied to (common, |a|, |b|) count arrays.
SET_MEASURE_KERNELS: Dict[str, Callable[[np.ndarray, np.ndarray, np.ndarray],
                                        np.ndarray]] = {
    "jaccard": _jaccard_from_counts,
    "overlap": _overlap_from_counts,
    "common": _common_from_counts,
    "cosine_set": _cosine_set_from_counts,
}


class _Bitmap(NamedTuple):
    """Which items each row of a slice holds, as bits.

    ``columns`` maps an item code (or the padding sentinel ``num_items``)
    to a slice-local column; codes the slice never holds share the last
    column, which is clear in every row.  Row ``r``, column ``c`` is bit
    ``r * row_bits + c`` of ``table``, least significant bit first.
    """

    columns: np.ndarray      # int32, num_items + 1
    table: np.ndarray        # uint8, rows * row_bits / 8
    row_bits: int            # columns rounded up to whole bytes

    @property
    def nbytes(self) -> int:
        return self.columns.nbytes + self.table.nbytes


def _bits_set(table: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Whether each of the flat bit positions ``bits`` is set, as uint8 0 / 1
    (``np.take`` gathers at about twice the speed of fancy indexing)."""
    return (np.take(table, bits >> 3) >> (bits & 7).astype(np.uint8)) & np.uint8(1)


class SetProfileCSR:
    """CSR user×item incidence matrix over a collection of item-set profiles.

    Item ids are recoded to dense ``0..num_items-1`` codes at build time so
    that per-pair intersection counting can tag each item with its pair index
    in a single int64 key without overflow.  All four set measures reduce to
    the triple ``(|a ∩ b|, |a|, |b|)``, which :meth:`pair_counts` computes for
    a whole batch of pairs with no per-pair Python.
    """

    def __init__(self, indptr: np.ndarray, codes: np.ndarray, num_items: int,
                 item_ids: "np.ndarray | None" = None, rows_sorted: bool = False):
        # np.asarray never copies matching dtypes, so read-only mmap-backed
        # arrays are served through the kernels as-is
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._codes = np.asarray(codes, dtype=np.int64)
        self._num_items = int(num_items)
        self._item_ids = (np.asarray(item_ids, dtype=np.int64)
                          if item_ids is not None else None)
        # promise that each row's codes are strictly ascending, which lets
        # the over-bound fallback of pair_counts intersect with a binary
        # search instead of np.isin's internal sort (a stale promise would
        # silently corrupt counts, so it is only made by builders that sort,
        # never inferred)
        self._rows_sorted = bool(rows_sorted)
        # derived state with the CSR's lifetime, each built on first need
        self._tagged_keys: "np.ndarray | None" = None
        self._bitmap: "_Bitmap | bool | None" = None      # False: over the bound
        self._padded: "np.ndarray | bool | None" = None   # False: too ragged
        self._distinct: "int | None" = None               # items held, once counted
        self._derived_cap: "float | None" = None          # see cap_derived_bytes

    @classmethod
    def from_sets(cls, rows: "Sequence[Iterable[int]] | np.ndarray",
                  indptr: "np.ndarray | None" = None) -> "SetProfileCSR":
        """Build from one item collection per row (sets, lists or int
        arrays), an ``(n, k)`` int array, or — with ``indptr`` — the flat
        item array whose row ``r`` is ``rows[indptr[r]:indptr[r + 1]]``.

        The canonical form: row order kept, item ids coded by rank (every
        coded item held by some row), each row's codes ascending and an
        item repeated within a row stored once."""
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            rows, indptr = rows.ravel(), np.arange(len(rows) + 1) * rows.shape[1]
        if indptr is not None:
            flat = np.asarray(rows, dtype=np.int64)
            indptr = np.asarray(indptr, dtype=np.int64)
        else:
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
                      out=indptr[1:])
            if len(rows) and all(isinstance(row, np.ndarray) for row in rows):
                flat = np.concatenate(rows).astype(np.int64, copy=False)
            else:
                flat = np.fromiter(itertools.chain.from_iterable(rows),
                                   dtype=np.int64, count=int(indptr[-1]))
        item_ids, codes = np.unique(flat, return_inverse=True)
        # codes are item ranks: one sort of the row-major (row, code) keys
        # leaves each row's code run ascending and a repeat beside its twin
        offsets = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64) * len(item_ids),
                            np.diff(indptr))
        keys = offsets + codes
        del codes
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            # each row keeps its block of keys, so the offsets stay aligned
            kept = np.concatenate([[0], np.cumsum(first)])
            indptr, keys, offsets = kept[indptr], keys[first], offsets[first]
        keys -= offsets
        return cls(indptr, keys, len(item_ids), item_ids=item_ids, rows_sorted=True)

    @property
    def num_rows(self) -> int:
        return len(self._indptr) - 1

    @property
    def num_items(self) -> int:
        return self._num_items

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    @property
    def item_ids(self) -> "np.ndarray | None":
        """Code→item-id decode table (``None`` when rows hold raw codes)."""
        return self._item_ids

    @property
    def rows_sorted(self) -> bool:
        """Whether every row's codes are promised to be strictly ascending."""
        return self._rows_sorted

    def row_codes(self, row: int) -> np.ndarray:
        """Item codes of one row (a view into the codes array)."""
        return self._codes[self._indptr[row]:self._indptr[row + 1]]

    def row_items(self, row: int) -> np.ndarray:
        """Original item ids of one row (decoded when a table is attached)."""
        codes = self.row_codes(row)
        return self._item_ids[codes] if self._item_ids is not None else codes

    def row_sizes(self, rows: np.ndarray) -> np.ndarray:
        return self._indptr[rows + 1] - self._indptr[rows]

    def _gather(self, rows: np.ndarray,
                sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated item codes of ``rows`` plus the pair index of each item."""
        source = _ragged_ranges(self._indptr[rows], sizes)
        if not len(source):
            return source, source
        pair_idx = np.repeat(np.arange(len(rows), dtype=np.int64), sizes)
        return self._codes[source], pair_idx

    def _row_tagged_keys(self) -> np.ndarray:
        """Every stored item as a sorted ``row * num_items + code`` key: the
        haystack of the over-bound fallback, for a slice with no bitmap.

        Built once per CSR (lazily) and shared by all pair batches scored
        against it.  With sorted rows the keys ascend globally, so per-pair
        intersection reduces to binary searches against this array — which
        is the size of the *slice* (one entry per stored item), not of the
        expanded pair batch, and therefore cache-resident.
        """
        if self._tagged_keys is None:
            sizes = np.diff(self._indptr)
            rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), sizes)
            self._tagged_keys = rows * self._num_items + self._codes
        return self._tagged_keys

    def cap_derived_bytes(self, cap: "float | None") -> None:
        """Hold at most ``cap`` bytes of membership bitmap plus fixed-width
        rows from now on (``None``: only the module's bounds apply).

        Phase 4 sets the cap from the memory budget's headroom before every
        step.  What no longer fits is dropped, and built again once a later
        cap has room for it; every path counts the same intersections, so a
        cap only picks the path.  The search fallback's sorted keys (8 B a
        stored item, the size of the codes) are not capped.
        """
        self._derived_cap = cap
        if cap is not None and self.derived_nbytes > cap:
            if self._bitmap is not False:
                self._bitmap = None
            if self._padded is not False:
                self._padded = None

    @property
    def derived_nbytes(self) -> int:
        """Bytes this CSR's bitmap and fixed-width rows hold now."""
        held = self._bitmap.nbytes if isinstance(self._bitmap, _Bitmap) else 0
        if isinstance(self._padded, np.ndarray):
            held += self._padded.nbytes
        return held

    def _fits(self, nbytes: int) -> bool:
        """Whether ``nbytes`` more derived state stay within the cap."""
        return (self._derived_cap is None
                or self.derived_nbytes + nbytes <= self._derived_cap)

    def _membership(self, needles: int) -> Optional[_Bitmap]:
        """The slice's bitmap: built by the first batch whose ``needles``
        pay for it (:data:`_BITMAP_NEEDLES_PER_ITEM`) while the cap holds
        it; ``None`` before that and, once found over the bound
        (:data:`_BITMAP_MAX_CODE_MULTIPLE`), for good."""
        if (self._bitmap is None
                and needles >= _BITMAP_NEEDLES_PER_ITEM * len(self._codes)):
            if self._distinct is None:
                present = np.zeros(self._num_items, dtype=bool)
                present[self._codes] = True
                self._distinct = int(np.count_nonzero(present))
            # a bit a distinct item plus the "absent" column, whole bytes a row
            row_bits = 8 * (self._distinct // 8 + 1)
            table_bytes = self.num_rows * row_bits // 8
            nbytes = table_bytes + 4 * (self._num_items + 1)
            if (nbytes > _BITMAP_MAX_CODE_MULTIPLE * 8 * len(self._codes)
                    or 8 * table_bytes > 2 ** 31):
                self._bitmap = False
            elif self._fits(nbytes):
                self._bitmap = self._build_bitmap(row_bits)
        return self._bitmap if self._bitmap is not False else None

    def _build_bitmap(self, row_bits: int) -> _Bitmap:
        """This slice's bitmap, ``row_bits`` bits a row."""
        present = np.zeros(self._num_items, dtype=bool)
        present[self._codes] = True
        distinct = np.flatnonzero(present)
        columns = np.full(self._num_items + 1, len(distinct), dtype=np.int32)
        columns[distinct] = np.arange(len(distinct), dtype=np.int32)
        bits = (np.repeat(np.arange(self.num_rows, dtype=np.int64) * row_bits,
                          np.diff(self._indptr))
                + columns[self._codes])
        table = np.zeros(self.num_rows * row_bits // 8, dtype=np.uint8)
        np.bitwise_or.at(table, bits >> 3, np.left_shift(
            np.uint8(1), (bits & 7).astype(np.uint8)))
        return _Bitmap(columns, table, row_bits)

    def _padded_rows(self) -> Optional[np.ndarray]:
        """Every row as a fixed-width int32 row of codes, padded with the
        sentinel ``num_items``; ``None`` for a slice too ragged for it
        (:data:`_PAD_MAX_NNZ_MULTIPLE`) or while the cap has no room."""
        if self._padded is None:
            sizes = np.diff(self._indptr)
            width = int(sizes.max()) if len(sizes) else 0
            if self.num_rows * width > _PAD_MAX_NNZ_MULTIPLE * len(self._codes):
                self._padded = False
            elif self._fits(4 * self.num_rows * width):
                padded = np.full((self.num_rows, width), self._num_items,
                                 dtype=np.int32)
                padded[np.arange(width) < sizes[:, None]] = self._codes
                self._padded = padded
        return self._padded if isinstance(self._padded, np.ndarray) else None

    def _bitmap_counts(self, bitmap: _Bitmap, left_rows: np.ndarray,
                       right: "SetProfileCSR", right_rows: np.ndarray,
                       size_b: np.ndarray) -> np.ndarray:
        """``|a ∩ b|`` per pair, each right-row item looked up in the left
        slice's ``bitmap``: two gathers a needle and no search.

        Two forks each earn their branch on ``cold_sparse`` ``build_s``
        (10 alternating pairs a fork, 2 cores, medians and the IQR of the
        runs with the fork): always mapping the batch's rows costs +5.6 %
        (0.494 → 0.522 s, IQR 0.003), always summing in int64 +2.6 %
        (0.496 → 0.509 s, IQR 0.007).
        """
        row_starts = (left_rows * bitmap.row_bits).astype(np.int32)
        padded = right._padded_rows()
        if padded is None:
            items_b, pairs_b = right._gather(right_rows, size_b)
            hits = _bits_set(bitmap.table, np.repeat(row_starts, size_b)
                             + np.take(bitmap.columns, items_b))
            return np.bincount(pairs_b, weights=hits, minlength=len(left_rows))
        # map whichever is smaller through the column map: the right
        # slice's rows, or the rows this batch reads of it
        if len(right_rows) < right.num_rows:
            columns = np.take(bitmap.columns, np.take(padded, right_rows, axis=0))
        else:
            columns = np.take(np.take(bitmap.columns, padded), right_rows, axis=0)
        hits = _bits_set(bitmap.table, row_starts[:, None] + columns)
        # einsum sums short rows ~3x faster than .sum(axis=1); a uint8
        # accumulator is exact while no row can hold 256 items
        return np.einsum("ij->i", hits,
                         dtype=np.uint8 if padded.shape[1] < 256 else np.int64)

    def _search_counts(self, left_rows: np.ndarray, right: "SetProfileCSR",
                       right_rows: np.ndarray, size_b: np.ndarray) -> np.ndarray:
        """``|a ∩ b|`` per pair by binary search, for sorted rows.

        Each right-row item is tagged with the pair's LEFT row and searched
        in the left CSR's ``(row, code)`` keys: only one side is ever
        expanded to pair granularity, and the haystack is the slice itself
        instead of the expanded batch.
        """
        items_b, pairs_b = right._gather(right_rows, size_b)
        _, matched = _find_sorted(
            self._row_tagged_keys(),
            np.repeat(left_rows, size_b) * self._num_items + items_b)
        return np.bincount(pairs_b[matched], minlength=len(left_rows))

    def _isin_counts(self, left_rows: np.ndarray, size_a: np.ndarray,
                     right: "SetProfileCSR", right_rows: np.ndarray,
                     size_b: np.ndarray) -> np.ndarray:
        """``|a ∩ b|`` per pair by ``np.isin``, for rows with no sort promise:
        every item is tagged with its pair index on both sides, and equal
        keys are exactly the per-pair intersections."""
        items_a, pairs_a = self._gather(left_rows, size_a)
        items_b, pairs_b = right._gather(right_rows, size_b)
        matched = np.isin(pairs_a * self._num_items + items_a,
                          pairs_b * self._num_items + items_b, assume_unique=True)
        return np.bincount(pairs_a[matched], minlength=len(left_rows))

    def pair_counts(self, left_rows: np.ndarray, right_rows: np.ndarray,
                    right: "SetProfileCSR | None" = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(|a ∩ b|, |a|, |b|)`` float64 arrays for a batch of row pairs.

        ``left_rows`` address this CSR; ``right_rows`` address ``right`` —
        another CSR under the same item coding, e.g. the other resident
        partition's — or this one when ``right`` is ``None``.  No combined
        CSR is built: each side is gathered where it lies.

        Each right-row item (a *needle*) is tested against the left row it
        is paired with: by two gathers into this slice's membership bitmap
        when it has one (:meth:`_membership`), else — the over-bound
        fallback — by a binary search in the slice's sorted ``(row, code)``
        keys, or by ``np.isin`` for rows with no sort promise.  Counts are
        integers, so every path returns the same floats.
        """
        right = self if right is None else right
        if right._num_items != self._num_items:
            raise ValueError("cannot score CSRs with different item codings")
        left_rows = np.asarray(left_rows, dtype=np.int64)
        right_rows = np.asarray(right_rows, dtype=np.int64)
        size_a = self.row_sizes(left_rows)
        size_b = right.row_sizes(right_rows)
        needles = int(size_b.sum())
        bitmap = self._membership(needles) if needles else None
        if bitmap is not None:
            common = self._bitmap_counts(bitmap, left_rows, right, right_rows, size_b)
        elif not needles:
            common = np.zeros(len(left_rows))
        elif self._rows_sorted:
            common = self._search_counts(left_rows, right, right_rows, size_b)
        else:
            common = self._isin_counts(left_rows, size_a, right, right_rows, size_b)
        return (common.astype(np.float64), size_a.astype(np.float64),
                size_b.astype(np.float64))

    def measure_pairs(self, measure: str, left_rows: np.ndarray,
                      right_rows: np.ndarray,
                      right: "SetProfileCSR | None" = None) -> np.ndarray:
        """Batch set-measure scores for row pairs (no per-pair Python);
        ``right`` as in :meth:`pair_counts`."""
        try:
            kernel = SET_MEASURE_KERNELS[measure]
        except KeyError:
            get_measure(measure)  # raise the standard unknown-measure error
            raise ValueError(f"measure {measure!r} is not a set measure")
        return kernel(*self.pair_counts(left_rows, right_rows, right))


#: Registry of named pairwise measures usable from the engine configuration.
MEASURES: Dict[str, SimilarityFn] = {
    "jaccard": jaccard_similarity,
    "overlap": overlap_coefficient,
    "common": common_items,
    "cosine_set": cosine_set_similarity,
    "cosine": cosine_similarity,
    "adjusted_cosine": adjusted_cosine_similarity,
    "pearson": pearson_similarity,
    "euclidean": euclidean_similarity,
}

#: Measures that operate on sparse (set) profiles.
SET_MEASURES = frozenset({"jaccard", "overlap", "common", "cosine_set"})

#: Measures that operate on dense (vector) profiles.
VECTOR_MEASURES = frozenset({"cosine", "adjusted_cosine", "pearson", "euclidean"})


def get_measure(name: str) -> SimilarityFn:
    """Look up a similarity measure by name (raises ``KeyError`` with hints)."""
    try:
        return MEASURES[name]
    except KeyError:
        known = ", ".join(sorted(MEASURES))
        raise KeyError(f"unknown similarity measure {name!r}; known measures: {known}") from None


def is_set_measure(name: str) -> bool:
    """True when ``name`` is a sparse-profile (set) measure."""
    if name not in MEASURES:
        get_measure(name)  # raise the standard error
    return name in SET_MEASURES
