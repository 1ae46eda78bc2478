"""The partition-local addressing wall (PR 14).

Phase 4 addresses every resident profile slice by **partition-local row** —
a vertex's rank among its partition's ascending vertices — instead of
translating user ids through a merged slice.  These tests pin

(a) the layout: ``partition.vertices[local_row[v]] == v`` for any
    assignment, empty partitions and ``m > n`` included;
(b) ``a.similarity_rows(rows_a, b, rows_b)`` bit-equal to the id-addressed
    ``a.merge(b).similarity_pairs(ids)`` (the pre-PR-14 path, kept as the
    oracle) for all 8 measures on dense, settled sparse (one-segment
    zero-copy and multi-segment), sparse with journaled rows and
    unsorted-row CSR slices, and its input checks;
(c) ``load_users(ndarray)`` ≡ ``load_users(list)``, slice for slice and
    charge for charge;
(d) the residual path: scores addressed by the ``np.unique`` inverse equal
    the id-addressed oracle, and the 4x rule picks the same steps;
(e) the algorithmic fix: a scattered slice of a 1,000,000-row store never
    allocates an id→row table;
(f) backend × ``shard_parallel`` parity on the ``hash`` partitioner, where
    no partition slice is a contiguous id run.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import fork_available
from repro.graph.digraph import CSRDiGraph
from repro.partition.model import build_partitions, partition_layout
from repro.similarity.measures import (SET_MEASURES, VECTOR_MEASURES,
                                       SetProfileCSR)
from repro.similarity.profiles import DenseProfileStore
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import (OnDiskProfileStore, ProfileSlice,
                                         _contiguous_ranges)

NUM_USERS = 90


# -- (a) the layout ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_vertices=st.integers(1, 40),
       num_partitions=st.integers(1, 60))
def test_local_row_is_the_rank_within_the_partition(data, num_vertices,
                                                    num_partitions):
    assignment = np.asarray(data.draw(st.lists(
        st.integers(0, num_partitions - 1), min_size=num_vertices,
        max_size=num_vertices)), dtype=np.int64)
    layout = partition_layout(assignment, num_partitions)
    for vertex in range(num_vertices):
        pid = int(assignment[vertex])
        assert layout.vertices(pid)[layout.local_row[vertex]] == vertex
    for pid in range(num_partitions):
        expected = np.flatnonzero(assignment == pid)
        np.testing.assert_array_equal(layout.vertices(pid), expected)
        assert layout.size(pid) == len(expected)
    graph = CSRDiGraph.from_edges(num_vertices, [
        (src, (src * 7 + hop) % num_vertices)
        for src in range(num_vertices) for hop in (1, 3)
        if (src * 7 + hop) % num_vertices != src])
    for partition in build_partitions(graph, assignment, num_partitions, layout):
        np.testing.assert_array_equal(partition.vertices,
                                      layout.vertices(partition.pid))
    for with_layout, without in zip(
            build_partitions(graph, assignment, num_partitions, layout),
            build_partitions(graph, assignment, num_partitions)):
        np.testing.assert_array_equal(with_layout.in_edges, without.in_edges)
        np.testing.assert_array_equal(with_layout.out_edges, without.out_edges)


def test_layout_rejects_out_of_range_partition_ids():
    with pytest.raises(ValueError, match="out of range"):
        partition_layout(np.array([0, 3, 1]), 3)
    with pytest.raises(ValueError, match="out of range"):
        partition_layout(np.array([0, -1]), 3)


# -- (b) row-addressed scoring against the merged, id-addressed oracle ----------

def _unsorted_csr_slices():
    """Two hand-built sparse slices whose CSR rows are *not* sorted."""
    rng = np.random.default_rng(4)
    num_items = 40
    slices = []
    for ids in (np.arange(0, NUM_USERS, 2), np.arange(1, NUM_USERS, 2)):
        rows = [rng.permutation(num_items)[:rng.integers(0, 12)]
                for _ in ids]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        csr = SetProfileCSR(indptr, np.concatenate(rows).astype(np.int64),
                            num_items, rows_sorted=False)
        slices.append(ProfileSlice("sparse", None, user_ids=ids, csr=csr))
    return slices


@pytest.fixture(scope="module")
def slice_pairs(tmp_path_factory):
    """``family -> (a, b)``: two disjoint slices of one store, interleaved
    ids (no slice is a contiguous run) unless the family says otherwise."""
    evens, odds = np.arange(0, NUM_USERS, 2), np.arange(1, NUM_USERS, 2)
    dense = OnDiskProfileStore.create(
        tmp_path_factory.mktemp("dense"),
        generate_dense_profiles(NUM_USERS, dim=6, num_communities=3, seed=3),
        disk_model="instant")
    sparse = generate_sparse_profiles(NUM_USERS, 120, items_per_user=9,
                                      num_communities=3, seed=3)
    bounds = [0, 30, 60, NUM_USERS]
    settled = OnDiskProfileStore.create(tmp_path_factory.mktemp("settled"),
                                        sparse, disk_model="instant",
                                        segment_bounds=bounds)
    journaled = OnDiskProfileStore.create(tmp_path_factory.mktemp("journaled"),
                                          sparse, disk_model="instant",
                                          segment_bounds=bounds,
                                          journal_limit=1000)
    journaled.apply_changes(
        [ProfileChange(user=user, kind="add", item=500 + user % 7)
         for user in range(5, NUM_USERS, 4)]
        + [ProfileChange(user=9, kind="remove", item=505)])
    half = NUM_USERS // 2
    return {
        "dense": (dense.load_users(evens), dense.load_users(odds)),
        "dense-contiguous": (dense.load_users(np.arange(half)),
                             dense.load_users(np.arange(half, NUM_USERS))),
        # settled store: scattered ids, one segment each (zero-copy views),
        # and contiguous runs that each span two segments (gathered)
        "sparse-settled": (settled.load_users(evens), settled.load_users(odds)),
        "sparse-one-segment": (settled.load_users(np.arange(0, 30)),
                               settled.load_users(np.arange(60, NUM_USERS))),
        "sparse-multi-segment": (settled.load_users(np.arange(half)),
                                 settled.load_users(np.arange(half, NUM_USERS))),
        "sparse-journaled": (journaled.load_users(evens),
                             journaled.load_users(odds)),
        "sparse-journaled-contiguous": (
            journaled.load_users(np.arange(30, 60)),
            journaled.load_users(np.arange(60, NUM_USERS))),
        "sparse-unsorted": tuple(_unsorted_csr_slices()),
    }


DENSE_FAMILIES = ["dense", "dense-contiguous"]
SPARSE_FAMILIES = ["sparse-settled", "sparse-one-segment", "sparse-multi-segment",
                   "sparse-journaled", "sparse-journaled-contiguous",
                   "sparse-unsorted"]
FAMILY_MEASURES = ([(family, measure) for family in DENSE_FAMILIES
                    for measure in sorted(VECTOR_MEASURES)]
                   + [(family, measure) for family in SPARSE_FAMILIES
                      for measure in sorted(SET_MEASURES)])


@pytest.mark.parametrize("family,measure", FAMILY_MEASURES)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_similarity_rows_equals_the_merged_id_addressed_oracle(
        slice_pairs, family, measure, data):
    a, b = slice_pairs[family]
    count = data.draw(st.integers(0, 40))
    for left, right in ((a, b), (b, a), (a, a)):
        left_rows = np.asarray(data.draw(st.lists(
            st.integers(0, len(left) - 1), min_size=count, max_size=count)),
            dtype=np.int64)
        right_rows = np.asarray(data.draw(st.lists(
            st.integers(0, len(right) - 1), min_size=count, max_size=count)),
            dtype=np.int64)
        got = left.similarity_rows(left_rows, right, right_rows, measure)
        merged = left if right is left else left.merge(right)
        expected = merged.similarity_pairs(
            np.column_stack([left.user_ids[left_rows],
                             right.user_ids[right_rows]]), measure)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)


def test_sparse_slices_under_different_item_codings_are_rejected():
    """Two dict-built slices carry one item coding each: scoring or merging
    them would compare codes of different tables, so both refuse."""
    a = ProfileSlice("sparse", {0: {1, 2, 3}, 4: {2, 9}})
    b = ProfileSlice("sparse", {1: {2, 3}, 7: {9, 11, 12}})
    rows = np.array([0, 1, 1, 0])
    with pytest.raises(ValueError, match="different item codings"):
        a.similarity_rows(rows, b, np.array([0, 1, 0, 1]), "jaccard")
    with pytest.raises(ValueError, match="different item codings"):
        a.merge(b)
    # each slice still scores against itself under its own coding
    np.testing.assert_array_equal(
        a.similarity_rows(np.array([0]), a, np.array([1]), "jaccard"), [1 / 4])


class TestSimilarityRowsRejects:
    @pytest.mark.parametrize("family,measure",
                             [("dense", "cosine"), ("sparse-journaled", "jaccard")])
    @pytest.mark.parametrize("bad", [-1, "len"])
    def test_out_of_range_rows(self, slice_pairs, family, measure, bad):
        a, b = slice_pairs[family]
        good = np.array([0, 1, 2])
        for left, right in ((a, b), (a, a)):
            bad_row = len(right) if bad == "len" else bad
            with pytest.raises(IndexError, match="out of range"):
                left.similarity_rows(good, right, np.array([0, bad_row, 1]),
                                     measure)
            bad_row = len(left) if bad == "len" else bad
            with pytest.raises(IndexError, match="out of range"):
                left.similarity_rows(np.array([bad_row, 0, 1]), right, good,
                                     measure)

    def test_unequal_lengths(self, slice_pairs):
        a, b = slice_pairs["dense"]
        with pytest.raises(ValueError, match="equal length"):
            a.similarity_rows(np.array([0, 1]), b, np.array([0]), "cosine")

    def test_mixed_kinds(self, slice_pairs):
        dense, _ = slice_pairs["dense"]
        sparse, _ = slice_pairs["sparse-settled"]
        with pytest.raises(ValueError, match="different profile kinds"):
            dense.similarity_rows(np.array([0]), sparse, np.array([0]), "cosine")

    def test_wrong_kind_and_unknown_measures(self, slice_pairs):
        dense, dense_b = slice_pairs["dense"]
        sparse, sparse_b = slice_pairs["sparse-settled"]
        rows = np.array([0, 1])
        with pytest.raises(ValueError, match="needs sparse profiles"):
            dense.similarity_rows(rows, dense_b, rows, "jaccard")
        with pytest.raises(ValueError, match="needs dense profiles"):
            sparse.similarity_rows(rows, sparse_b, rows, "cosine")
        with pytest.raises(KeyError):
            dense.similarity_rows(rows, dense_b, rows, "no-such-measure")

    def test_empty_batch(self, slice_pairs):
        a, b = slice_pairs["dense"]
        empty = np.empty(0, dtype=np.int64)
        assert a.similarity_rows(empty, b, empty, "cosine").shape == (0,)

    def test_id_addressed_misses_still_raise_key_error(self, slice_pairs):
        a, _ = slice_pairs["dense"]          # even users only
        assert 4 in a and 5 not in a and NUM_USERS + 3 not in a
        with pytest.raises(KeyError, match="user 5 is not loaded"):
            a.similarity_pairs(np.array([[0, 5]]), "cosine")


# -- (c) array-native slice loads ------------------------------------------------

def _reference_ranges(sorted_ids):
    """The per-id Python generator ``load_users`` used to run (the oracle)."""
    ranges = []
    start = prev = None
    for value in sorted_ids:
        if start is None:
            start = prev = value
        elif value == prev + 1:
            prev = value
        else:
            ranges.append((start, prev + 1))
            start = prev = value
    if start is not None:
        ranges.append((start, prev + 1))
    return ranges


ID_SHAPES = {
    "contiguous": list(range(20, 50)),
    "scattered": [3, 4, 5, 9, 20, 21, 40, 88],
    "duplicated": [7, 7, 8, 8, 8, 30, 31, 30],
    "unsorted": [60, 2, 59, 3, 58, 1],
    "single": [17],
    "empty": [],
}


@pytest.fixture(scope="module", params=["dense", "sparse-settled",
                                        "sparse-journaled"])
def charged_store(request, tmp_path_factory):
    base = tmp_path_factory.mktemp(request.param)
    if request.param == "dense":
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=5)
        return OnDiskProfileStore.create(base, profiles, disk_model="ssd")
    profiles = generate_sparse_profiles(NUM_USERS, 120, items_per_user=9, seed=5)
    store = OnDiskProfileStore.create(base, profiles, disk_model="ssd",
                                      segment_bounds=[0, 30, 60, NUM_USERS],
                                      journal_limit=1000)
    if request.param == "sparse-journaled":
        store.apply_changes([ProfileChange(user=21, kind="add", item=999),
                             ProfileChange(user=40, kind="add", item=998)])
    return store


def _charge(store, load):
    store.io_stats.reset()
    piece = load()
    stats = store.io_stats
    return piece, (stats.read_ops, stats.bytes_read, stats.simulated_io_seconds)


def _assert_same_slice(got: ProfileSlice, expected: ProfileSlice):
    np.testing.assert_array_equal(got.user_ids, expected.user_ids)
    if got.kind == "dense":
        np.testing.assert_array_equal(got.matrix, expected.matrix)
        np.testing.assert_array_equal(got._norms, expected._norms)
    else:
        np.testing.assert_array_equal(got._csr.indptr, expected._csr.indptr)
        np.testing.assert_array_equal(got._csr.codes, expected._csr.codes)
        assert got._csr.rows_sorted == expected._csr.rows_sorted


@pytest.mark.parametrize("shape", sorted(ID_SHAPES))
def test_array_and_list_loads_are_the_same_slice_and_the_same_charge(
        charged_store, shape):
    ids = ID_SHAPES[shape]
    from_list, list_charge = _charge(charged_store,
                                     lambda: charged_store.load_users(ids))
    from_array, array_charge = _charge(
        charged_store,
        lambda: charged_store.load_users(np.asarray(ids, dtype=np.int64)))
    _assert_same_slice(from_array, from_list)
    assert array_charge == list_charge
    _, charge_only = _charge(
        charged_store,
        lambda: charged_store.charge_slice_read(np.asarray(ids, dtype=np.int64)))
    assert charge_only == list_charge
    # one read per contiguous run, as the per-id generator counted them
    runs = _reference_ranges(sorted(set(ids)))
    assert _contiguous_ranges(sorted(set(ids))) == runs
    assert list_charge[0] == len(runs)
    # the loaded rows are the requested users', ascending
    np.testing.assert_array_equal(from_array.user_ids, sorted(set(ids)))
    everyone = charged_store.load_users(range(NUM_USERS))
    for user in sorted(set(ids))[:5]:
        got, expected = from_array.get(user), everyone.get(user)
        if charged_store.kind == "dense":
            np.testing.assert_array_equal(got, expected)
        else:
            assert got == expected


@pytest.mark.parametrize("ids,offender", [([5, NUM_USERS, 6], NUM_USERS),
                                          ([3, -2, NUM_USERS + 4], -2),
                                          ([NUM_USERS + 9, NUM_USERS + 1],
                                           NUM_USERS + 1)])
def test_out_of_range_ids_name_the_first_offender(charged_store, ids, offender):
    for form in (ids, np.asarray(ids, dtype=np.int64)):
        with pytest.raises(IndexError, match=f"user {offender} out of range"):
            charged_store.load_users(form)
        with pytest.raises(IndexError, match=f"user {offender} out of range"):
            charged_store.charge_slice_read(form)


def test_mapped_sparse_slice_is_a_plain_read_only_view(tmp_path):
    profiles = generate_sparse_profiles(NUM_USERS, 120, items_per_user=9, seed=5)
    store = OnDiskProfileStore.create(tmp_path, profiles, disk_model="instant")
    codes = store.load_users(np.arange(10, 40))._csr.codes
    assert type(codes) is np.ndarray and not codes.flags.writeable
    assert np.shares_memory(codes, store._sparse().seg_codes[0])


# -- (d) the residual path --------------------------------------------------------

def test_residual_scores_by_inverse_equal_the_id_addressed_oracle(monkeypatch):
    """Spy on every residual attempt of a cold build: the decision must be
    the 4x rule over the distinct endpoint *ids*, and an accepted residue's
    slab slots must hold the id-addressed scores."""
    num_users, num_partitions = 1000, 20
    profiles = generate_dense_profiles(num_users, dim=8, num_communities=5,
                                       seed=11)
    config = EngineConfig(k=8, num_partitions=num_partitions,
                          heuristic="degree-low-high", measure="cosine",
                          seed=11)
    everyone = DenseProfileStore(profiles.matrix.copy())
    decisions = []
    original = iteration_module.OutOfCoreIteration._score_residual

    def spy(self, run, step, batches, measure, **scoring):
        first, second, _ = step
        positions = np.concatenate([run.positions[lo:hi]
                                    for _, lo, hi in batches])
        keys = run.keys[positions]
        pairs = np.column_stack([keys // num_users, keys % num_users])
        sizes = np.bincount(run.layout.assignment, minlength=num_partitions)
        span = sizes[first] + (sizes[second] if second != first else 0)
        expected = len(np.unique(pairs)) * 4 <= span
        accepted = original(self, run, step, batches, measure, **scoring)
        assert accepted == expected
        if accepted:
            np.testing.assert_array_equal(
                run.scores[positions], everyone.similarity_pairs(pairs, measure))
        decisions.append(accepted)
        return accepted

    monkeypatch.setattr(iteration_module.OutOfCoreIteration,
                        "_score_residual", spy)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(5)
    assert decisions.count(True) > 5 and decisions.count(False) > 5
    assert sum(result.steps_skipped for result in run.iterations) >= decisions.count(True)


# -- (e) no id→row table -----------------------------------------------------------

def test_scattered_slice_of_a_million_rows_allocates_no_lookup_table(tmp_path):
    num_rows = 1_000_000
    rng = np.random.default_rng(2)
    store = OnDiskProfileStore.create(
        tmp_path, DenseProfileStore(rng.random((num_rows, 2)), copy=False),
        disk_model="instant")
    ids = np.sort(rng.choice(num_rows, size=100, replace=False)).astype(np.int64)
    ids[-1] = num_rows - 1          # a table would need max_id + 1 entries
    store.load_users(ids[:2])       # open the maps outside the measurement
    rows = rng.integers(0, len(ids), size=(1000, 2))
    tracemalloc.start()
    try:
        piece = store.load_users(ids)
        by_row = piece.similarity_rows(rows[:, 0], piece, rows[:, 1], "cosine")
        by_id = piece.similarity_pairs(ids[rows], "cosine")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(by_row, by_id)
    assert peak < 1_000_000, f"peak {peak} B: an id→row table is back"


# -- (f) backends × shard_parallel on the hash partitioner --------------------------

def _hash_run(backend: str, shard_parallel: bool):
    profiles = generate_dense_profiles(400, dim=8, num_communities=5, seed=23)
    overrides = {"backend": backend}
    if backend == "thread":
        overrides["num_workers"] = 3
    elif backend == "process":
        overrides["num_workers"] = 2
    config = EngineConfig(k=6, num_partitions=5, partitioner="hash",
                          heuristic="degree-low-high", seed=23,
                          shard_parallel=shard_parallel, **overrides)
    rng = np.random.default_rng(31)

    def feed(iteration):
        if iteration not in (1, 2):
            return []
        return [ProfileChange(user=int(user), kind="set", vector=rng.random(8))
                for user in rng.choice(400, size=12, replace=False)]

    with KNNEngine(profiles, config) as engine:
        run = engine.run(4, profile_change_feed=feed)
        dense = (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    return ([result.graph.edge_fingerprint() for result in run.iterations],
            [(result.similarity_evaluations, result.reused_scores,
              result.steps_skipped) for result in run.iterations],
            [result.load_unload_operations for result in run.iterations], dense)


@pytest.fixture(scope="module")
def hash_reference():
    return {sharded: _hash_run("serial", sharded) for sharded in (False, True)}


@pytest.mark.parametrize("shard_parallel", [False, True])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_backend_and_shard_parity_on_non_contiguous_partitions(
        backend, shard_parallel, hash_reference):
    if backend == "process" and not fork_available():
        pytest.skip("process backend needs fork")
    fingerprints, counts, load_unload, dense = _hash_run(backend, shard_parallel)
    # same wave model → same operation counts; any model → same graphs
    ref_fingerprints, ref_counts, ref_load_unload, ref_dense = (
        hash_reference[shard_parallel])
    assert fingerprints == ref_fingerprints == hash_reference[False][0]
    assert counts == ref_counts == hash_reference[False][1]
    assert load_unload == ref_load_unload
    assert dense == ref_dense == hash_reference[False][3]
