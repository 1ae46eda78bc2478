"""Parity suite: every vectorised batch kernel must match its scalar measure.

The vectorised phase-4 pipeline routes all eight similarity measures through
batch kernels (CSR set kernels for sparse profiles, matrix kernels for dense
profiles).  These tests assert that, on random dense and sparse profiles
including degenerate cases (empty sets, zero vectors, constant vectors), the
batch results agree with the scalar reference measures to within 1e-12.
"""

import numpy as np
import pytest

from repro.similarity import measures as m
from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.similarity.workloads import ProfileChange
from repro.storage.profile_store import ProfileSlice

SET_MEASURES = sorted(m.SET_MEASURES)
VECTOR_MEASURES = sorted(m.VECTOR_MEASURES)
TOL = 1e-12


def _random_sparse_profiles(rng, num_users=40, num_items=25):
    profiles = []
    for user in range(num_users):
        size = int(rng.integers(0, 12))
        profiles.append(set(rng.choice(num_items, size=size, replace=False).tolist()))
    # degenerate cases: empty profiles and a duplicated profile
    profiles[0] = set()
    profiles[1] = set()
    profiles[2] = set(profiles[3])
    return profiles


def _random_dense_matrix(rng, num_users=40, dim=12):
    matrix = rng.normal(size=(num_users, dim))
    matrix[0] = 0.0                      # zero vector
    matrix[1] = 3.5                      # constant vector (degenerate pearson)
    matrix[2] = matrix[3]                # exact duplicate
    return matrix


def _random_pairs(rng, num_users, count=300):
    pairs = rng.integers(0, num_users, size=(count, 2))
    pairs[0] = (0, 1)                    # both-degenerate pair
    pairs[1] = (2, 3)                    # identical-profile pair
    pairs[2] = (5, 5)                    # self pair
    return pairs


@pytest.mark.parametrize("measure", SET_MEASURES)
def test_sparse_store_batch_matches_scalar(measure):
    rng = np.random.default_rng(11)
    profiles = _random_sparse_profiles(rng)
    store = SparseProfileStore(profiles)
    pairs = _random_pairs(rng, store.num_users)
    fn = m.get_measure(measure)
    expected = np.asarray([fn(profiles[a], profiles[b]) for a, b in pairs])
    got = store.similarity_pairs(pairs, measure)
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


@pytest.mark.parametrize("measure", SET_MEASURES)
def test_sparse_slice_batch_matches_scalar(measure):
    rng = np.random.default_rng(13)
    profiles = _random_sparse_profiles(rng)
    # slice over a non-contiguous subset with gaps in the id space
    users = sorted(rng.choice(len(profiles), size=25, replace=False).tolist())
    piece = ProfileSlice("sparse", {u: profiles[u] for u in users})
    users_arr = np.asarray(users)
    pairs = users_arr[rng.integers(0, len(users), size=(200, 2))]
    fn = m.get_measure(measure)
    expected = np.asarray([fn(profiles[a], profiles[b]) for a, b in pairs])
    got = piece.similarity_pairs(pairs, measure)
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


@pytest.mark.parametrize("measure", VECTOR_MEASURES)
def test_dense_store_batch_matches_scalar(measure):
    rng = np.random.default_rng(17)
    matrix = _random_dense_matrix(rng)
    store = DenseProfileStore(matrix)
    pairs = _random_pairs(rng, store.num_users)
    fn = m.get_measure(measure)
    expected = np.asarray([fn(matrix[a], matrix[b]) for a, b in pairs])
    got = store.similarity_pairs(pairs, measure)
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


@pytest.mark.parametrize("measure", VECTOR_MEASURES)
def test_dense_slice_batch_matches_scalar(measure):
    rng = np.random.default_rng(19)
    matrix = _random_dense_matrix(rng)
    users = sorted(rng.choice(len(matrix), size=25, replace=False).tolist())
    piece = ProfileSlice("dense", {u: matrix[u] for u in users}, dim=matrix.shape[1])
    users_arr = np.asarray(users)
    pairs = users_arr[rng.integers(0, len(users), size=(200, 2))]
    fn = m.get_measure(measure)
    expected = np.asarray([fn(matrix[a], matrix[b]) for a, b in pairs])
    got = piece.similarity_pairs(pairs, measure)
    np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


def test_set_csr_kernels_match_scalar_directly():
    rng = np.random.default_rng(23)
    profiles = _random_sparse_profiles(rng, num_users=30, num_items=500)
    csr = m.SetProfileCSR.from_sets(profiles)
    left = rng.integers(0, 30, size=150)
    right = rng.integers(0, 30, size=150)
    for measure in SET_MEASURES:
        fn = m.get_measure(measure)
        expected = np.asarray([fn(profiles[a], profiles[b])
                               for a, b in zip(left, right)])
        got = csr.measure_pairs(measure, left, right)
        np.testing.assert_allclose(got, expected, atol=TOL, rtol=0)


def _per_row_csr(profiles):
    """The per-row build ``SetProfileCSR.from_sets`` replaced: each row's
    items emitted in ascending order, then one ``np.unique``."""
    sizes = np.asarray([len(p) for p in profiles], dtype=np.int64)
    indptr = np.zeros(len(profiles) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    flat = np.asarray([item for p in profiles for item in sorted(p)], dtype=np.int64)
    if not len(flat):
        return indptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    uniques, codes = np.unique(flat, return_inverse=True)
    return indptr, codes, uniques


@pytest.mark.parametrize("case", ["random", "sparse ids", "empty rows", "empty store"])
def test_set_csr_from_sets_matches_the_per_row_build(case):
    rng = np.random.default_rng(31)
    if case == "random":
        profiles = _random_sparse_profiles(rng, num_users=60, num_items=40)
        profiles[-1] = set()
    elif case == "sparse ids":
        ids = rng.choice(10 ** 12, size=30, replace=False)
        profiles = [frozenset(rng.choice(ids, size=int(rng.integers(0, 9)),
                                         replace=False).tolist())
                    for _ in range(25)]
    elif case == "empty rows":
        profiles = [set(), set(), set()]
    else:
        profiles = []
    csr = m.SetProfileCSR.from_sets(profiles)
    indptr, codes, uniques = _per_row_csr(profiles)
    for got, want in ((csr.indptr, indptr), (csr.codes, codes), (csr.item_ids, uniques)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert csr.num_rows == len(profiles) and csr.num_items == len(uniques)
    assert csr.rows_sorted


@pytest.mark.parametrize("measure", SET_MEASURES)
def test_an_item_repeated_within_a_row_counts_once(measure):
    """A row given as a list may repeat an item; the kernel scores its set,
    whether the row reaches the builder directly or through a slice's dict."""
    rows = [[1, 1, 2], [1, 3]]
    expected = m.get_measure(measure)(set(rows[0]), set(rows[1]))
    csr = m.SetProfileCSR.from_sets(rows)
    np.testing.assert_array_equal(csr.indptr, [0, 2, 4])
    got = csr.measure_pairs(measure, np.asarray([0]), np.asarray([1]))
    assert got[0] == pytest.approx(expected, abs=TOL)
    piece = ProfileSlice("sparse", {7: rows[0], 9: rows[1]})
    assert piece.similarity_pairs(np.asarray([[7, 9]]), measure)[0] == pytest.approx(
        expected, abs=TOL)


def test_cosine_from_norms_matches_plain_batch():
    rng = np.random.default_rng(29)
    left = rng.normal(size=(100, 8))
    right = rng.normal(size=(100, 8))
    left[0] = 0.0
    norms_l = np.linalg.norm(left, axis=1)
    norms_r = np.linalg.norm(right, axis=1)
    np.testing.assert_allclose(
        m.cosine_from_norms(left, right, norms_l, norms_r),
        m.cosine_similarity_batch(left, right), atol=TOL, rtol=0)


def test_unknown_measure_raises_keyerror():
    csr = m.SetProfileCSR.from_sets([{1, 2}, {2, 3}])
    with pytest.raises(KeyError):
        csr.measure_pairs("nope", np.asarray([0]), np.asarray([1]))


def test_custom_registered_vector_measure_still_scores_batches():
    """A measure added to MEASURES without a batch kernel must fall back to
    the per-pair loop, not crash (regression for the batch-routing rewrite)."""
    m.MEASURES["dot"] = lambda a, b: float(np.dot(a, b))
    try:
        matrix = np.arange(12.0).reshape(4, 3)
        store = DenseProfileStore(matrix)
        pairs = np.array([[0, 1], [2, 3]])
        expected = [float(np.dot(matrix[a], matrix[b])) for a, b in pairs]
        np.testing.assert_allclose(store.similarity_pairs(pairs, "dot"), expected)
        piece = ProfileSlice("dense", {u: matrix[u] for u in range(4)}, dim=3)
        np.testing.assert_allclose(piece.similarity_pairs(pairs, "dot"), expected)
    finally:
        del m.MEASURES["dot"]


def test_sparse_store_mutation_keeps_batch_and_scalar_consistent():
    """Mutating a profile via the store API must invalidate the cached CSR,
    and get() must not hand out a mutable reference that could bypass it."""
    store = SparseProfileStore([{1, 2}, {1, 2}])
    pairs = np.array([[0, 1]])
    assert store.similarity_pairs(pairs, "jaccard")[0] == pytest.approx(1.0)
    store.get(0).clear()          # mutating the returned copy is a no-op
    assert store.get(0) == {1, 2}
    store.set(0, set())           # real mutations go through the API
    assert store.similarity_pairs(pairs, "jaccard")[0] == pytest.approx(
        store.similarity(0, 1, "jaccard")) == 0.0
    store.add_item(0, 1)
    assert store.similarity_pairs(pairs, "jaccard")[0] == pytest.approx(
        store.similarity(0, 1, "jaccard")) == 0.5
    store.apply_profile_changes([ProfileChange(user=1, kind="remove", item=2)])
    assert store.similarity_pairs(pairs, "jaccard")[0] == pytest.approx(
        store.similarity(0, 1, "jaccard")) == 1.0
