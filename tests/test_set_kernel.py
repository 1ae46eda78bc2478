"""The set kernel's wall: every path of ``SetProfileCSR.pair_counts`` counts
the same intersections.

``pair_counts`` tests each right-row item (a *needle*) against the left row
it is paired with along one of four paths:

* ``bitmap+padded`` — gathers into the left slice's membership bitmap, the
  right side read as fixed-width rows;
* ``bitmap+ragged`` — the same bitmap, the right side gathered row by row;
* ``search`` — the over-bound fallback: a binary search in the left
  slice's sorted ``(row, code)`` keys;
* ``isin`` — the fallback for rows with no sort promise.

No knob picks the path: module constants do (the bitmap bound, the pad
bound, the break-even), and under a memory budget the cap phase 4 sets
from the budget's headroom.  Each case forces its path by patching the
constants or setting the cap, asserts which path ran, and compares
``(|a ∩ b|, |a|, |b|)`` with Python sets and every set measure's scores
with its scalar function in :data:`~repro.similarity.measures.MEASURES`,
exactly.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.similarity import measures
from repro.similarity.measures import SetProfileCSR
from repro.similarity.workloads import generate_sparse_profiles

SET_MEASURES = sorted(measures.SET_MEASURES)

#: The constants that force each path.  ``isin`` also needs rows with no
#: sort promise (see :func:`csr_of`).
PATHS = {
    "bitmap+padded": dict(_BITMAP_MAX_CODE_MULTIPLE=math.inf,
                          _BITMAP_NEEDLES_PER_ITEM=0,
                          _PAD_MAX_NNZ_MULTIPLE=math.inf),
    "bitmap+ragged": dict(_BITMAP_MAX_CODE_MULTIPLE=math.inf,
                          _BITMAP_NEEDLES_PER_ITEM=0,
                          _PAD_MAX_NNZ_MULTIPLE=-1),
    "search": dict(_BITMAP_MAX_CODE_MULTIPLE=0),
    "isin": dict(_BITMAP_MAX_CODE_MULTIPLE=0),
}


def csr_of(rows, num_items, rows_sorted=True):
    """A raw-code CSR over ``rows`` (iterables of codes below ``num_items``);
    unsorted rows are stored descending, which breaks any order assumption."""
    rows = [sorted(row, reverse=not rows_sorted) for row in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    codes = np.asarray([code for row in rows for code in row], dtype=np.int64)
    return SetProfileCSR(indptr, codes, num_items, rows_sorted=rows_sorted)


@contextlib.contextmanager
def paths_taken(**constants):
    """Patch the module's path constants and record each path that runs,
    one entry per ``pair_counts`` call that had a needle to test."""
    taken = []
    bitmap_counts = SetProfileCSR._bitmap_counts
    search_counts = SetProfileCSR._search_counts
    isin_counts = SetProfileCSR._isin_counts

    def bitmap(self, bitmap, left_rows, right, *args):
        taken.append("bitmap+padded" if right._padded_rows() is not None
                     else "bitmap+ragged")
        return bitmap_counts(self, bitmap, left_rows, right, *args)

    def search(self, *args):
        taken.append("search")
        return search_counts(self, *args)

    def isin(self, *args):
        taken.append("isin")
        return isin_counts(self, *args)

    with contextlib.ExitStack() as stack:
        for name, value in constants.items():
            stack.enter_context(mock.patch.object(measures, name, value))
        stack.enter_context(mock.patch.multiple(
            SetProfileCSR, _bitmap_counts=bitmap, _search_counts=search,
            _isin_counts=isin))
        yield taken


def expected_counts(left_sets, right_sets, left_rows, right_rows):
    common = [len(set(left_sets[a]) & set(right_sets[b]))
              for a, b in zip(left_rows, right_rows)]
    return (np.asarray(common, dtype=np.float64),
            np.asarray([len(left_sets[a]) for a in left_rows], dtype=np.float64),
            np.asarray([len(right_sets[b]) for b in right_rows], dtype=np.float64))


def check_path(path, left_sets, right_sets, left_rows, right_rows, num_items,
               same=False):
    """Score the batch on ``path`` and compare it with Python sets and the
    scalar measures; returns the paths that ran (``[]``: no needle)."""
    left = csr_of(left_sets, num_items, rows_sorted=path != "isin")
    right = left if same else csr_of(right_sets, num_items,
                                     rows_sorted=path != "isin")
    left_rows = np.asarray(left_rows, dtype=np.int64)
    right_rows = np.asarray(right_rows, dtype=np.int64)
    with paths_taken(**PATHS[path]) as taken:
        got = left.pair_counts(left_rows, right_rows,
                               None if same else right)
        scores = {measure: left.measure_pairs(measure, left_rows, right_rows,
                                              right)
                  for measure in SET_MEASURES}
    for got_array, want in zip(got, expected_counts(
            left_sets, right_sets, left_rows, right_rows)):
        np.testing.assert_array_equal(got_array, want)
    for measure, got_scores in scores.items():
        fn = measures.get_measure(measure)
        np.testing.assert_array_equal(got_scores, np.asarray(
            [fn(left_sets[a], right_sets[b])
             for a, b in zip(left_rows.tolist(), right_rows.tolist())],
            dtype=np.float64))
    return taken


@st.composite
def batches(draw):
    """Two slices under one coding (often the same slice) and a row batch."""
    num_items = draw(st.integers(0, 24))
    rows = st.lists(st.sets(st.integers(0, max(num_items - 1, 0)),
                            max_size=min(num_items, 9)), max_size=9)
    left_sets = draw(rows)
    same = draw(st.booleans())
    right_sets = left_sets if same else draw(rows)
    count = draw(st.integers(0, 30)) if left_sets and right_sets else 0
    left_rows = draw(st.lists(st.integers(0, max(len(left_sets) - 1, 0)),
                              min_size=count, max_size=count))
    right_rows = draw(st.lists(st.integers(0, max(len(right_sets) - 1, 0)),
                               min_size=count, max_size=count))
    return left_sets, right_sets, left_rows, right_rows, num_items, same


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=batches())
def test_every_path_counts_like_python_sets(path, batch):
    left_sets, right_sets, left_rows, right_rows, num_items, same = batch
    needles = sum(len(right_sets[b]) for b in right_rows)
    taken = check_path(path, left_sets, right_sets, left_rows, right_rows,
                       num_items, same)
    # pair_counts, then measure_pairs once per measure
    assert taken == ([path] * (1 + len(SET_MEASURES)) if needles else [])


# -- degenerate slices ----------------------------------------------------------

@pytest.mark.parametrize("path", sorted(PATHS))
def test_empty_rows_beside_full_ones(path):
    left = [set(), {0, 3, 5}, set(), {1, 2, 3, 4}]
    right = [{3, 4}, set(), {0, 1, 2, 3, 4, 5}]
    taken = check_path(path, left, right, [0, 1, 1, 2, 3, 3, 0],
                       [0, 0, 1, 2, 2, 0, 1], num_items=6)
    assert set(taken) == {path}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_all_empty_left_slice(path):
    """Every needle misses: the bitmap of a slice with no items is one
    clear column, and the search's haystack is empty."""
    taken = check_path(path, [set(), set()], [{0, 1}, {2}], [0, 1, 1],
                       [0, 1, 0], num_items=3)
    assert set(taken) == {path}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_all_empty_right_slice_tests_no_needle(path):
    assert check_path(path, [{0, 1}, {2}], [set(), set()], [0, 1],
                      [1, 0], num_items=3) == []


@pytest.mark.parametrize("path", sorted(PATHS))
def test_no_items_in_the_coding(path):
    assert check_path(path, [set(), set()], [set()], [0, 1], [0, 0],
                      num_items=0) == []


@pytest.mark.parametrize("path", sorted(PATHS))
def test_rows_of_256_items_or_more(path):
    """Padded rows are summed in a uint8 accumulator only while no row can
    hold 256 items; wider rows must count past a byte."""
    wide = set(range(300))
    rows = [wide, set(range(0, 600, 2)), set(range(256))]
    taken = check_path(path, rows, rows, [0, 0, 1, 2, 2], [0, 1, 1, 0, 2],
                       num_items=600, same=True)
    assert set(taken) == {path}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_left_is_right(path):
    rows = [{0, 1, 2}, {2, 3}, set(), {0, 3, 4, 5, 6}]
    pairs = ([0, 1, 2, 3, 3, 0, 1], [0, 3, 1, 3, 0, 1, 2])
    taken = check_path(path, rows, rows, *pairs, num_items=7, same=True)
    assert set(taken) == {path}


# -- the bounds, at the constants' own values -----------------------------------

def _padded_state(right_sets):
    """Score every row of ``right_sets`` against one left row and report
    how the right side was read."""
    num_items = 8
    left = csr_of([set(range(num_items))], num_items)
    right = csr_of(right_sets, num_items)
    rows = np.arange(len(right_sets))
    with paths_taken(_BITMAP_MAX_CODE_MULTIPLE=math.inf,
                     _BITMAP_NEEDLES_PER_ITEM=0) as taken:
        common, _, size_b = left.pair_counts(np.zeros_like(rows), rows, right)
    np.testing.assert_array_equal(common, size_b)
    return taken


def test_padding_at_exactly_its_bound():
    # 3 rows × widest 2 = 6 = 2 × nnz 3
    assert measures._PAD_MAX_NNZ_MULTIPLE == 2
    assert _padded_state([{0, 1}, {2}, set()]) == ["bitmap+padded"]


def test_padding_one_cell_over_its_bound():
    # 3 rows × widest 3 = 9 = 2 × nnz 4 + 1
    assert _padded_state([{0, 1, 2}, {3}, set()]) == ["bitmap+ragged"]


def _bitmap_slice(rows):
    """A slice of ``rows`` rows holding one item (code 0) in row 0, under a
    coding of 9 items: 1 stored item, so the bound allows
    ``_BITMAP_MAX_CODE_MULTIPLE × 8`` bytes — the 40-byte column map plus
    one byte of table a row (2 columns: item 0 and "absent")."""
    return [{0}] + [set()] * (rows - 1), 9


def _bitmap_built(rows):
    sets, num_items = _bitmap_slice(rows)
    with paths_taken() as taken:
        common, _, _ = csr_of(sets, num_items).pair_counts(
            np.asarray([0]), np.asarray([0]), csr_of([{0}], num_items))
    assert common.tolist() == [1.0]
    return taken


def test_bitmap_at_exactly_its_bound():
    column_map_bytes = 4 * (9 + 1)
    rows = int(measures._BITMAP_MAX_CODE_MULTIPLE * 8) - column_map_bytes
    assert rows * 1 + column_map_bytes == measures._BITMAP_MAX_CODE_MULTIPLE * 8
    assert _bitmap_built(rows) == ["bitmap+padded"]


def test_bitmap_one_cell_over_its_bound():
    """One more row is one more byte of table: the slice keeps the search."""
    rows = int(measures._BITMAP_MAX_CODE_MULTIPLE * 8) - 4 * (9 + 1) + 1
    assert _bitmap_built(rows) == ["search"]


def test_over_the_bound_is_decided_once():
    """A slice found over the bound never builds and never measures itself
    again: a later count that would fit changes nothing."""
    rows = int(measures._BITMAP_MAX_CODE_MULTIPLE * 8) - 4 * (9 + 1) + 1
    sets, num_items = _bitmap_slice(rows)
    csr = csr_of(sets, num_items)
    with paths_taken() as taken, mock.patch.object(
            SetProfileCSR, "_build_bitmap") as build:
        csr.pair_counts(np.asarray([0]), np.asarray([0]))
        csr._distinct = 0
        for _ in range(2):
            csr.pair_counts(np.asarray([0]), np.asarray([0]))
    assert build.call_count == 0
    assert taken == ["search"] * 3


def test_a_bitmap_past_int32_bit_positions_keeps_the_search():
    """Bit positions are int32: 2**16 + 1 rows of 2**15 bits (32,767
    distinct items plus the absent column) is one row past 2**31 bits, so
    the slice searches whatever the byte bound says — decided without
    allocating the table."""
    distinct = 2 ** 15 - 1
    rows = 2 ** 16 + 1
    indptr = np.concatenate([np.arange(distinct + 1),
                             np.full(rows - distinct, distinct)]).astype(np.int64)
    csr = SetProfileCSR(indptr, np.arange(distinct), distinct, rows_sorted=True)
    probe = csr_of([{0, 5}], distinct)
    with paths_taken(_BITMAP_MAX_CODE_MULTIPLE=math.inf,
                     _BITMAP_NEEDLES_PER_ITEM=0) as taken, mock.patch.object(
            SetProfileCSR, "_build_bitmap") as build:
        common, _, _ = csr.pair_counts(np.asarray([0, 5, rows - 1]),
                                       np.asarray([0, 0, 0]), probe)
    assert common.tolist() == [1.0, 1.0, 0.0]
    assert build.call_count == 0
    assert taken == ["search"]
    assert csr._bitmap is False


# -- the cap (the memory budget's headroom) ------------------------------------

CAP_LEFT = [{0, 1, 2}, {3, 9}, {1, 4, 5}]
CAP_RIGHT = [{0, 9}, {1, 2, 3}, {4, 5}]
#: Under an 11-item coding: 3 rows × 1 byte (7 distinct items + the absent
#: column) + a 4 × 12-byte column map
CAP_BITMAP_BYTES = 3 + 48
#: Either slice's fixed-width rows: 3 rows × widest 3 × 4 B
CAP_PADDED_BYTES = 36


def _capped_batch(cap, right_sets=CAP_RIGHT, left=None, right=None):
    """Cap both slices, score one batch, check it against Python sets;
    returns the path taken.  ``right_sets=CAP_LEFT`` scores the left
    slice against itself."""
    left = left if left is not None else csr_of(CAP_LEFT, 11)
    right = left if right_sets is CAP_LEFT else (
        right if right is not None else csr_of(right_sets, 11))
    left_rows, right_rows = np.asarray([0, 1, 2, 0]), np.asarray([1, 0, 2, 2])
    left.cap_derived_bytes(cap)
    right.cap_derived_bytes(cap)
    with paths_taken(_BITMAP_MAX_CODE_MULTIPLE=math.inf,
                     _BITMAP_NEEDLES_PER_ITEM=0) as taken:
        got = left.pair_counts(left_rows, right_rows, right)
    for got_array, want in zip(got, expected_counts(
            CAP_LEFT, right_sets, left_rows, right_rows)):
        np.testing.assert_array_equal(got_array, want)
    return taken


def test_a_cap_at_exactly_the_bitmap_builds_it_and_one_byte_less_searches():
    left, right = csr_of(CAP_LEFT, 11), csr_of(CAP_RIGHT, 11)
    assert _capped_batch(CAP_BITMAP_BYTES - 1, left=left, right=right) == ["search"]
    assert left._bitmap is None, "a refusal under a cap is not for good"
    assert _capped_batch(CAP_BITMAP_BYTES, left=left,
                         right=right) == ["bitmap+padded"]
    assert left.derived_nbytes == CAP_BITMAP_BYTES
    assert right.derived_nbytes == CAP_PADDED_BYTES


def test_fixed_width_rows_need_room_of_their_own():
    """A slice scored against itself holds its bitmap and its rows under
    one cap: the bitmap's bytes alone leave the rows ragged."""
    assert _capped_batch(CAP_BITMAP_BYTES, CAP_LEFT) == ["bitmap+ragged"]
    assert _capped_batch(CAP_BITMAP_BYTES + CAP_PADDED_BYTES - 1,
                         CAP_LEFT) == ["bitmap+ragged"]
    assert _capped_batch(CAP_BITMAP_BYTES + CAP_PADDED_BYTES,
                         CAP_LEFT) == ["bitmap+padded"]


def test_a_smaller_cap_drops_what_no_longer_fits_and_a_larger_one_rebuilds():
    left, right = csr_of(CAP_LEFT, 11), csr_of(CAP_RIGHT, 11)
    assert _capped_batch(None, left=left, right=right) == ["bitmap+padded"]
    assert _capped_batch(CAP_PADDED_BYTES - 1, left=left, right=right) == ["search"]
    assert left.derived_nbytes == right.derived_nbytes == 0
    assert _capped_batch(None, left=left, right=right) == ["bitmap+padded"]
    assert left.derived_nbytes == CAP_BITMAP_BYTES
    assert right.derived_nbytes == CAP_PADDED_BYTES


# -- the engine's budget holds the kernel's derived state ------------------------

def test_the_budget_caps_every_slice_and_changes_no_score(monkeypatch):
    """Under a budget, no slice anywhere holds more derived state than its
    cap, and the graph is the unbudgeted run's.  The budget — the run's
    peak residency, 70,992 B, plus 8 KB — leaves a share of 4 KB a slice at
    the peak, under a 5.3 KB bitmap, and room for one on the lighter
    steps."""
    fits = []
    pair_counts, fit = SetProfileCSR.pair_counts, SetProfileCSR._fits

    def checked(self, left_rows, right_rows, right=None):
        counts = pair_counts(self, left_rows, right_rows, right)
        for csr in (self, right if right is not None else self):
            assert csr._derived_cap is None or csr.derived_nbytes <= csr._derived_cap
        return counts

    def recorded(self, nbytes):
        fits.append(fit(self, nbytes))
        return fits[-1]

    monkeypatch.setattr(SetProfileCSR, "pair_counts", checked)
    monkeypatch.setattr(SetProfileCSR, "_fits", recorded)
    profiles = generate_sparse_profiles(600, 400, items_per_user=12,
                                        num_communities=4, seed=8)
    fingerprints = {}
    for budget in (None, 79_000):
        config = EngineConfig(k=6, num_partitions=6, seed=3,
                              memory_budget_bytes=budget)
        with KNNEngine(profiles, config) as engine:
            run = engine.run(num_iterations=2)
        fingerprints[budget] = [r.graph.edge_fingerprint() for r in run.iterations]
    assert fingerprints[79_000] == fingerprints[None]
    assert True in fits and False in fits


# -- the break-even ------------------------------------------------------------

def test_a_batch_below_the_break_even_searches_and_builds_nothing():
    left = csr_of([{0, 1, 2, 3}, {4, 5, 6, 7}], 8)        # 8 stored items
    right = csr_of([{0, 4}, {1, 2, 3}], 8)
    with paths_taken() as taken:
        left.pair_counts(np.asarray([0, 1]), np.asarray([1, 1]), right)  # 6 needles
    assert taken == ["search"]
    assert left._bitmap is None


def test_a_batch_that_pays_builds_the_bitmap_for_every_later_batch():
    left = csr_of([{0, 1, 2, 3}, {4, 5, 6, 7}], 8)
    right = csr_of([{0, 4}, {1, 2, 3}], 8)
    with paths_taken() as taken:
        left.pair_counts(np.asarray([0, 1, 0]), np.asarray([1, 1, 1]), right)  # 9
        left.pair_counts(np.asarray([1]), np.asarray([0]), right)             # 2
    assert measures._BITMAP_NEEDLES_PER_ITEM == 1
    assert taken == ["bitmap+padded", "bitmap+padded"]


def test_the_residency_splits_the_headroom_between_its_slots(monkeypatch):
    """Each slice the residency holds — the step's pair and any partition
    still resident from an earlier step — is capped at what the budget
    leaves beside the resident partitions, over the cache's slots."""
    caps = []
    acquire = iteration_module._StepResidency.acquire

    def spied(residency, step, batches):
        slices = acquire(residency, step, batches)
        if not batches:     # nothing to score: no slice loaded or capped
            return slices
        headroom = residency._budget.capacity_bytes - sum(
            residency._cache._resident.values())
        caps.extend((piece._csr._derived_cap, headroom / 3)
                    for piece in residency._slices.values())
        return slices

    monkeypatch.setattr(iteration_module._StepResidency, "acquire", spied)
    profiles = generate_sparse_profiles(300, 200, items_per_user=8, seed=2)
    config = EngineConfig(k=5, num_partitions=6, max_resident_partitions=3,
                          memory_budget_bytes=200_000, seed=3)
    with KNNEngine(profiles, config) as engine:
        engine.run(num_iterations=2)
    assert caps and all(cap == want for cap, want in caps)
    assert len({cap for cap, _ in caps}) > 1
