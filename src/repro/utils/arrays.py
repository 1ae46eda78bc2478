"""Shared array kernels used across the storage/similarity/tuple layers."""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Digit width of the LSD counting-sort passes.
_RADIX_BITS = 16
_RADIX_MASK = np.int64((1 << _RADIX_BITS) - 1)


def counting_argsort(keys: np.ndarray, max_key: int) -> np.ndarray:
    """Stable argsort of non-negative int64 keys via LSD counting-sort passes.

    Each pass bucket-sorts one 16-bit digit (NumPy's stable argsort on
    ``uint16`` is a counting/radix sort), so the whole permutation costs
    O(passes · n) rather than a comparison sort's O(n log n) — and keys
    bounded by the vertex count need a single pass.  Stability of every
    pass makes the composition stable, so this is a drop-in replacement
    for ``np.argsort(keys, kind="stable")``.
    """
    order = np.argsort((keys & _RADIX_MASK).astype(np.uint16), kind="stable")
    shift = _RADIX_BITS
    while (int(max_key) >> shift) > 0:
        digits = ((keys[order] >> np.int64(shift)) & _RADIX_MASK).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
        shift += _RADIX_BITS
    return order


def sorted_runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values of a non-empty *sorted* array plus each run's start
    and length.

    The O(n) equivalent of ``np.unique(values, return_index=True,
    return_counts=True)`` for input that is already sorted.
    """
    starts = np.concatenate(
        [[0], np.flatnonzero(values[1:] != values[:-1]) + 1])
    counts = np.diff(np.concatenate([starts, [len(values)]]))
    return values[starts], starts, counts


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort and a neighbour mask: NumPy 2.3+
    hashes when ``np.unique`` gets no return flag, 6-40x slower on int64
    ids (2 cores, NumPy 2.4: 2,000 ids 179 → 14 µs, 500k 202 → 5.2 ms)."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def find_sorted(haystack: np.ndarray, needles) -> Tuple[np.ndarray, np.ndarray]:
    """Where ``needles`` sit (or would be inserted) in the sorted ``haystack``,
    and which of them are in it — the binary-search half of a sorted join."""
    positions = np.searchsorted(haystack, needles)
    if not len(haystack):
        return positions, np.zeros(np.shape(needles), dtype=bool)
    return positions, haystack[np.minimum(positions, len(haystack) - 1)] == needles


def ragged_run_offsets(lengths: np.ndarray) -> np.ndarray:
    """Within-run offsets of a ragged concatenation: ``[0..l0), [0..l1), …``.

    The building block of every "gather variable-length runs with one copy"
    pass in this codebase: combined with ``np.repeat(starts, lengths)`` it
    turns a list of ``(start, length)`` runs into flat source indices
    without a Python loop or per-run allocation.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    prefix = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=prefix[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(prefix, lengths)


def ragged_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``range(starts[i], starts[i] + lengths[i])`` runs."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = ragged_run_offsets(lengths)
    if not len(offsets):
        return offsets
    return np.repeat(np.asarray(starts, dtype=np.int64), lengths) + offsets
