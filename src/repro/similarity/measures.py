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

from typing import Callable, Dict, FrozenSet, Iterable, Sequence, Set, Tuple, Union

import numpy as np

from repro.utils.arrays import ragged_ranges as _ragged_ranges

SparseProfile = Union[Set[int], FrozenSet[int]]
SimilarityFn = Callable


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
        # pair_counts intersect with a binary search instead of np.isin's
        # internal sort (a stale promise would silently corrupt counts, so
        # it is only made by builders that sort, never inferred)
        self._rows_sorted = bool(rows_sorted)
        self._tagged_keys: "np.ndarray | None" = None

    @classmethod
    def from_sets(cls, profiles: Sequence[Iterable[int]]) -> "SetProfileCSR":
        """Build from one item set per row (row order is preserved)."""
        sizes = np.fromiter((len(p) for p in profiles), dtype=np.int64,
                            count=len(profiles))
        indptr = np.zeros(len(profiles) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        total = int(indptr[-1])
        # each row's items are emitted in ascending id order; codes are item
        # ranks, so the per-row code runs come out sorted as well
        flat = np.fromiter(
            (item for profile in profiles for item in sorted(profile)),
            dtype=np.int64, count=total)
        if total:
            uniques, codes = np.unique(flat, return_inverse=True)
            num_items = len(uniques)
        else:
            uniques = np.empty(0, dtype=np.int64)
            codes = np.empty(0, dtype=np.int64)
            num_items = 0
        return cls(indptr, codes, num_items, item_ids=uniques, rows_sorted=True)

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
        """Every stored item as a sorted ``row * num_items + code`` key.

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

    def pair_counts(self, left_rows: np.ndarray, right_rows: np.ndarray,
                    right: "SetProfileCSR | None" = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(|a ∩ b|, |a|, |b|)`` float64 arrays for a batch of row pairs.

        ``left_rows`` address this CSR; ``right_rows`` address ``right`` —
        another CSR under the same item coding, e.g. the other resident
        partition's — or this one when ``right`` is ``None``.  No combined
        CSR is built: each side is gathered where it lies.
        """
        right = self if right is None else right
        if right._num_items != self._num_items:
            raise ValueError("cannot score CSRs with different item codings")
        left_rows = np.asarray(left_rows, dtype=np.int64)
        right_rows = np.asarray(right_rows, dtype=np.int64)
        size_a = self.row_sizes(left_rows)
        size_b = right.row_sizes(right_rows)
        common = np.zeros(len(left_rows), dtype=np.float64)
        if self._num_items and self._rows_sorted:
            # tag each right-row item with the pair's LEFT row and test it
            # against the left CSR's (row, code) key array: only one side is
            # ever expanded to pair granularity, and the binary-search
            # haystack is the slice itself (small, hot in cache) instead of
            # the expanded batch
            items_b, pairs_b = right._gather(right_rows, size_b)
            if len(items_b):
                haystack = self._row_tagged_keys()
                needles = (np.repeat(left_rows, size_b) * self._num_items
                           + items_b)
                positions = np.searchsorted(haystack, needles)
                positions[positions == len(haystack)] = len(haystack) - 1
                matched = haystack[positions] == needles
                counts = np.bincount(pairs_b[matched], minlength=len(left_rows))
                common = counts.astype(np.float64)
        elif self._num_items:
            items_a, pairs_a = self._gather(left_rows, size_a)
            items_b, pairs_b = right._gather(right_rows, size_b)
            if len(items_a) and len(items_b):
                # tag every item with its pair index; identical keys on both
                # sides are exactly the per-pair intersections
                keys_a = pairs_a * self._num_items + items_a
                keys_b = pairs_b * self._num_items + items_b
                matched = np.isin(keys_a, keys_b, assume_unique=True)
                counts = np.bincount(pairs_a[matched], minlength=len(left_rows))
                common = counts.astype(np.float64)
        return common, size_a.astype(np.float64), size_b.astype(np.float64)

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
