"""Tests for repro.similarity.profiles."""

import numpy as np
import pytest

from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.similarity.workloads import ProfileChange


class TestSparseProfileStore:
    def test_construction_and_get(self):
        store = SparseProfileStore([[1, 2], [2, 3], []])
        assert store.num_users == 3
        assert store.get(0) == {1, 2}
        assert store.get(2) == set()

    def test_empty_factory(self):
        store = SparseProfileStore.empty(5)
        assert store.num_users == 5
        assert all(store.get(u) == set() for u in range(5))

    def test_set_add_remove(self):
        store = SparseProfileStore.empty(2)
        store.set(0, [1, 2, 3])
        store.add_item(0, 9)
        store.apply_profile_changes([
            ProfileChange(user=0, kind="remove", item=1),
            ProfileChange(user=0, kind="remove", item=777)])  # absent: no error
        assert store.get(0) == {2, 3, 9}

    def test_similarity(self):
        store = SparseProfileStore([[1, 2, 3], [2, 3, 4]])
        assert store.similarity(0, 1, "jaccard") == pytest.approx(0.5)

    def test_similarity_pairs(self):
        store = SparseProfileStore([[1, 2], [2, 3], [1, 2]])
        pairs = np.array([[0, 1], [0, 2]])
        scores = store.similarity_pairs(pairs, "jaccard")
        assert scores[1] == pytest.approx(1.0)

    def test_rejects_vector_measure(self):
        store = SparseProfileStore([[1], [2]])
        with pytest.raises(ValueError):
            store.similarity(0, 1, "cosine")

    def test_out_of_range_user(self):
        store = SparseProfileStore([[1]])
        with pytest.raises(IndexError):
            store.get(3)

    def test_subset_and_copy(self):
        store = SparseProfileStore([[1], [2], [3]])
        subset = store.subset([1])
        assert subset.get(1) == {2}
        assert subset.get(0) == set()
        clone = store.copy()
        clone.add_item(0, 99)
        assert 99 not in store.get(0)

    def test_item_universe_and_avg_size(self):
        store = SparseProfileStore([[1, 2], [2, 3, 4]])
        assert store.item_universe() == {1, 2, 3, 4}
        assert store.average_profile_size() == pytest.approx(2.5)

    def test_default_measure(self):
        assert SparseProfileStore([[1]]).default_measure() == "jaccard"

    def test_equality(self):
        assert SparseProfileStore([[1]]) == SparseProfileStore([[1]])
        assert SparseProfileStore([[1]]) != SparseProfileStore([[2]])


class TestDenseProfileStore:
    def test_construction(self):
        store = DenseProfileStore(np.arange(12).reshape(4, 3))
        assert store.num_users == 4
        assert store.dim == 3
        assert np.allclose(store.get(1), [3, 4, 5])

    def test_empty_factory(self):
        store = DenseProfileStore.empty(3, 4)
        assert store.matrix.shape == (3, 4)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DenseProfileStore(np.zeros(5))

    def test_set_profile(self):
        store = DenseProfileStore.empty(2, 3)
        store.set(0, [1.0, 2.0, 3.0])
        assert np.allclose(store.get(0), [1, 2, 3])
        with pytest.raises(ValueError):
            store.set(0, [1.0, 2.0])

    def test_similarity(self):
        store = DenseProfileStore(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]))
        assert store.similarity(0, 2, "cosine") == pytest.approx(1.0)
        assert store.similarity(0, 1, "cosine") == pytest.approx(0.0)

    def test_similarity_pairs_cosine_and_other(self):
        rng = np.random.default_rng(2)
        store = DenseProfileStore(rng.normal(size=(10, 4)))
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        cos = store.similarity_pairs(pairs, "cosine")
        pearson = store.similarity_pairs(pairs, "pearson")
        assert len(cos) == len(pearson) == 3
        for i, (a, b) in enumerate(pairs):
            assert cos[i] == pytest.approx(store.similarity(a, b, "cosine"))

    def test_rejects_set_measure(self):
        store = DenseProfileStore.empty(2, 2)
        with pytest.raises(ValueError):
            store.similarity(0, 1, "jaccard")

    def test_pairs_shape_validation(self):
        store = DenseProfileStore.empty(2, 2)
        with pytest.raises(ValueError):
            store.similarity_pairs(np.zeros((3, 3)), "cosine")

    def test_subset_copy_independent(self):
        store = DenseProfileStore(np.ones((3, 2)))
        clone = store.copy()
        clone.set(0, [5.0, 5.0])
        assert np.allclose(store.get(0), [1, 1])
        subset = store.subset([2])
        assert np.allclose(subset.get(2), [1, 1])
        assert np.allclose(subset.get(0), [0, 0])

    def test_default_measure(self):
        assert DenseProfileStore.empty(1, 1).default_measure() == "cosine"


class TestApplyProfileChangesBatches:
    def test_sparse_batch_is_all_or_nothing(self):
        from repro.similarity.workloads import ProfileChange
        store = SparseProfileStore([{1, 2}, {3}])
        store.incidence()  # warm the cached CSR
        with pytest.raises(ValueError):
            store.apply_profile_changes([
                ProfileChange(user=0, kind="add", item=99),
                ProfileChange(user=0, kind="set", vector=np.zeros(2)),
            ])
        # nothing applied, and the cached incidence matrix stayed consistent
        assert store.get(0) == {1, 2}
        assert set(store.incidence().row_items(0).tolist()) == {1, 2}

    def test_dense_batch_is_all_or_nothing(self):
        from repro.similarity.workloads import ProfileChange
        store = DenseProfileStore(np.ones((3, 2)))
        with pytest.raises(IndexError):
            store.apply_profile_changes([
                ProfileChange(user=0, kind="set", vector=np.zeros(2)),
                ProfileChange(user=99, kind="set", vector=np.zeros(2)),
            ])
        np.testing.assert_array_equal(store.get(0), np.ones(2))

    def test_sparse_batch_applies_in_order(self):
        from repro.similarity.workloads import ProfileChange
        store = SparseProfileStore([{1}])
        touched = store.apply_profile_changes([
            ProfileChange(user=0, kind="add", item=5),
            ProfileChange(user=0, kind="remove", item=1),
        ])
        assert touched == 1
        assert store.get(0) == {5}
