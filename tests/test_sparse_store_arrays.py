"""The sparse store held as arrays.

``SparseProfileStore`` keeps its profiles as one CSR incidence matrix built
by ``SetProfileCSR.from_sets``, the one array builder.  These tests hold
the builder to the set-per-user build it replaced (``_legacy_from_sets``,
a copy of it) on every input form it takes, the store to a list-of-sets
model under every mutation, ``generate_sparse_profiles`` to the per-set
loop it replaced, and ``sorted_unique`` to ``np.unique``.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.similarity.measures import SetProfileCSR
from repro.similarity.profiles import SparseProfileStore
from repro.similarity.workloads import ProfileChange, generate_sparse_profiles
from repro.utils.arrays import sorted_unique
from repro.utils.rng import make_rng


def _legacy_from_sets(profiles):
    """``(indptr, codes, item_ids)`` as the set-per-user build made them."""
    sizes = np.fromiter((len(p) for p in profiles), dtype=np.int64,
                        count=len(profiles))
    indptr = np.zeros(len(profiles) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    flat = np.fromiter(itertools.chain.from_iterable(profiles), dtype=np.int64,
                       count=int(indptr[-1]))
    uniques, codes = np.unique(flat, return_inverse=True)
    offsets = np.repeat(np.arange(len(profiles), dtype=np.int64) * len(uniques), sizes)
    return indptr, np.sort(offsets + codes) - offsets, uniques


def _legacy_generate_sparse_profiles(num_users, num_items, items_per_user=20,
                                     zipf_exponent=1.1, num_communities=0, seed=None):
    """The per-user loop that built one Python set a user."""
    rng = make_rng(seed)
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    base_probabilities = weights / weights.sum()
    profiles = []
    for user in range(num_users):
        if num_communities > 0:
            community = user % num_communities
            lo = (community * num_items) // num_communities
            hi = ((community + 1) * num_items) // num_communities
            probabilities = base_probabilities.copy()
            probabilities[lo:hi] *= 8.0
            probabilities /= probabilities.sum()
        else:
            probabilities = base_probabilities
        items = rng.choice(num_items, size=items_per_user, replace=False, p=probabilities)
        profiles.append(set(int(i) for i in items))
    return profiles


def _assert_csr(csr, indptr, codes, item_ids):
    for got, want in ((csr.indptr, indptr), (csr.codes, codes),
                      (csr.item_ids, item_ids)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert csr.num_rows == len(indptr) - 1 and csr.num_items == len(item_ids)
    assert csr.rows_sorted


def _forms(rows):
    """Every input form of the same rows the builder takes."""
    yield "sets", [set(row) for row in rows]
    yield "lists", [list(row) for row in rows]
    yield "arrays", [np.asarray(row, dtype=np.int64) for row in rows]
    yield "mixed", [np.asarray(row, dtype=np.int64) if i % 2 else list(row)
                    for i, row in enumerate(rows)]
    if rows and len({len(row) for row in rows}) == 1:
        yield "2-d", np.asarray(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))


def _built(form, rows):
    if form == "flat":
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        flat = np.asarray([item for row in rows for item in row], dtype=np.int64)
        return SetProfileCSR.from_sets(flat, indptr=indptr)
    return SetProfileCSR.from_sets(rows)


_ITEMS = st.one_of(st.integers(0, 40), st.integers(-5, 5),
                   st.integers(10 ** 12 - 20, 10 ** 12 + 20))


class TestBuilder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_ITEMS, max_size=8, unique=True)
                    | st.lists(_ITEMS, max_size=10), max_size=12))
    def test_equals_the_set_build_of_each_rows_set(self, rows):
        """Rows of distinct items build what the set build made of them; a
        row that repeats an item builds what its set built."""
        want = _legacy_from_sets([set(row) for row in rows])
        for form, given_rows in list(_forms(rows)) + [("flat", rows)]:
            _assert_csr(_built(form, given_rows), *want)

    @pytest.mark.parametrize("rows", [
        [], [set(), set(), set()], np.empty((0, 4), dtype=np.int64),
        np.empty((3, 0), dtype=np.int64), [[], [5, 5, 5], []],
    ], ids=["empty store", "empty rows", "no rows 2-d", "empty rows 2-d",
            "one item repeated"])
    def test_degenerate_inputs(self, rows):
        csr = SetProfileCSR.from_sets(rows)
        _assert_csr(csr, *_legacy_from_sets([set(np.asarray(row).tolist())
                                             for row in rows]))


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2 ** 62), 2 ** 62) | st.integers(-3, 3)
                    | st.integers(10 ** 12, 10 ** 12 + 5), max_size=60),
           st.booleans())
    @example([], False)
    @example([7], False)
    @example([-(10 ** 12)], True)
    @example([3, 3, 3], True)
    def test_equals_np_unique(self, values, presorted):
        array = np.asarray(sorted(values) if presorted else values, dtype=np.int64)
        got = sorted_unique(array)
        want = np.unique(array)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


_USER = st.integers(0, 10 ** 6)


class SparseStoreMachine(RuleBasedStateMachine):
    """The store against a list of sets under every mutation and read."""

    @initialize(rows=st.lists(st.sets(_ITEMS, max_size=6), min_size=1, max_size=8),
                as_arrays=st.booleans())
    def build(self, rows, as_arrays):
        self.model = [set(row) for row in rows]
        self.store = SparseProfileStore(
            [np.asarray(sorted(row), dtype=np.int64) for row in rows]
            if as_arrays else rows)

    def _user(self, user):
        return user % len(self.model)

    @rule(user=_USER, profile=st.lists(_ITEMS, max_size=6))
    def set_row(self, user, profile):
        user = self._user(user)
        self.store.set(user, profile)
        self.model[user] = set(profile)

    @rule(user=_USER, item=_ITEMS)
    def add_item(self, user, item):
        user = self._user(user)
        self.store.add_item(user, item)
        self.model[user].add(item)

    @rule(changes=st.lists(st.tuples(_USER, st.sampled_from(["add", "remove"]),
                                     _ITEMS), max_size=6),
          bad=st.sampled_from([None, "user", "kind"]))
    def apply_changes(self, changes, bad):
        batch = [ProfileChange(self._user(user), kind, item=item)
                 for user, kind, item in changes]
        if bad == "user":
            batch.append(ProfileChange(len(self.model), "add", item=1))
        elif bad == "kind":
            batch.append(ProfileChange(0, "set", vector=np.zeros(2)))
        if bad is not None:
            with pytest.raises(IndexError if bad == "user" else ValueError):
                self.store.apply_profile_changes(batch)
            return          # the invariant checks nothing moved
        touched = self.store.apply_profile_changes(batch)
        assert touched == len({change.user for change in batch})
        for change in batch:
            if change.kind == "add":
                self.model[change.user].add(change.item)
            else:
                self.model[change.user].discard(change.item)

    @rule(user=_USER)
    def get(self, user):
        user = self._user(user)
        got = self.store.get(user)
        assert got == self.model[user]
        got.add(-1)        # a copy: the store does not see it
        assert self.store.get(user) == self.model[user]

    @rule(users=st.lists(_USER, max_size=5))
    def subset(self, users):
        users = sorted({self._user(user) for user in users})
        piece = self.store.subset(users)
        want = [self.model[user] if user in users else set()
                for user in range(len(self.model))]
        assert [piece.get(user) for user in range(len(want))] == want
        assert piece == SparseProfileStore(want)

    @rule(user=_USER, item=_ITEMS)
    def copy_then_mutate_the_copy(self, user, item):
        user = self._user(user)
        twin = self.store.copy()
        assert twin == self.store
        twin.add_item(user, item)
        twin.incidence()
        assert self.store.get(user) == self.model[user]

    @rule()
    def incidence(self):
        _assert_csr(self.store.incidence(), *_legacy_from_sets(self.model))
        assert self.store == SparseProfileStore(self.model)
        assert self.store.item_universe() == set().union(*self.model)
        assert self.store.average_profile_size() == pytest.approx(
            sum(map(len, self.model)) / len(self.model))

    @invariant()
    def rows_read_back(self):
        if hasattr(self, "store"):
            assert self.store.num_users == len(self.model)
            assert [self.store.get(user) for user in range(len(self.model))] == self.model


TestSparseStoreMachine = SparseStoreMachine.TestCase
TestSparseStoreMachine.settings = settings(max_examples=60, stateful_step_count=25,
                                           deadline=None)


@pytest.mark.parametrize("num_communities", [0, 3])
@pytest.mark.parametrize("seed", [1, 7, 11])
def test_generator_draws_what_the_per_set_loop_drew(seed, num_communities):
    store = generate_sparse_profiles(300, 400, items_per_user=9,
                                     num_communities=num_communities, seed=seed)
    assert store == SparseProfileStore(_legacy_generate_sparse_profiles(
        300, 400, items_per_user=9, num_communities=num_communities, seed=seed))


def test_building_from_an_array_allocates_a_few_times_the_csr():
    """20k users x 8 items: at most 8x the CSR's bytes at the peak.  A Python
    set a user, as the store once held, costs about 23x (~1.5 KB a user
    against 64 B of ids) before any array is built."""
    items = np.random.default_rng(5).integers(0, 5_000, size=(20_000, 8))
    tracemalloc.start()
    try:
        store = SparseProfileStore(items)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr = store.incidence()
    assert peak <= 8 * (csr.indptr.nbytes + csr.codes.nbytes + csr.item_ids.nbytes)
