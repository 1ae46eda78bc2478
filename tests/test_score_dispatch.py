"""The kernel-dispatch wall: ``score_tuples``, the one call every phase-4
score goes through.

Phase 4 scores every residency step on the calling thread, one
``score_tuples`` call a step, on the step's resident slices with rows
local to them — a PI edge leaving the step's second partition is read with
its two sides swapped; a residual gather is scored by one call on its own
slice.  These tests pin that call bitwise to the id-addressed scores of one
slice of the whole store — for all 8 measures on dense and sparse stores,
and for the shapes a step takes: two partitions, one partition, scattered
ids, an empty batch, steps one after another on the same slices — plus its
symmetry bit for bit (zero vectors, empty sets and identical rows
included), its input checks, the engine reaching it by its module name for
every score it computes and once per executed step, and the sharded
``G(t+1)`` merge against the batch merge.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import score_tuples
from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120
QUARTER = NUM_USERS // 4
EVERY_MEASURE = ([("dense", measure) for measure in sorted(VECTOR_MEASURES)]
                 + [("sparse", measure) for measure in sorted(SET_MEASURES)])


@pytest.fixture(scope="module")
def dense_store(tmp_path_factory):
    profiles = generate_dense_profiles(NUM_USERS, dim=8, num_communities=4,
                                       noise=0.2, seed=7)
    return OnDiskProfileStore.create(tmp_path_factory.mktemp("dense"), profiles,
                                     disk_model="instant")


@pytest.fixture(scope="module")
def sparse_store(tmp_path_factory):
    profiles = generate_sparse_profiles(NUM_USERS, 300, items_per_user=15,
                                        num_communities=4, seed=7)
    return OnDiskProfileStore.create(tmp_path_factory.mktemp("sparse"), profiles,
                                     disk_model="instant")


@pytest.fixture(scope="module")
def stores(dense_store, sparse_store):
    return {"dense": dense_store, "sparse": sparse_store}


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(11)
    return rng.integers(0, NUM_USERS, size=(500, 2)).astype(np.int64)


@pytest.fixture(scope="module")
def dense_slice(dense_store):
    """The whole dense store in one slice, where row == id."""
    return dense_store.load_users(np.arange(NUM_USERS))


def _measure(kind):
    return "cosine" if kind == "dense" else "jaccard"


def _by_id(store, left_ids, left_rows, right_ids, right_rows, measure):
    """The oracle: the same tuples by user id on one slice of the whole
    store."""
    whole = store.load_users(np.arange(NUM_USERS))
    return whole.similarity_pairs(
        np.column_stack([left_ids[left_rows], right_ids[right_rows]]), measure)


def _quarter(pid):
    """The user ids of partition ``pid`` of four contiguous quarters."""
    return np.arange(pid * QUARTER, (pid + 1) * QUARTER)


def _assert_step(store, slices, step, measure, rng, rows=60):
    """Score step ``(first, second)`` as phase 4 does — its PI edges as
    partition-local row batches into ``slices`` (partition id → slice), one
    ``score_tuples`` call a batch — against the id-addressed oracle."""
    first, second = step
    edges = [(first, first)] if first == second else [
        (first, second), (second, first), (first, first)]
    for src, dst in edges:
        left_rows = rng.integers(0, QUARTER, size=rows)
        right_rows = rng.integers(0, QUARTER, size=rows)
        np.testing.assert_array_equal(
            score_tuples(slices[src], left_rows, slices[dst], right_rows,
                         measure),
            _by_id(store, _quarter(src), left_rows, _quarter(dst), right_rows,
                   measure))


class TestScoreTuples:
    def test_matches_the_id_addressed_scores(self, dense_slice, pairs):
        np.testing.assert_array_equal(
            score_tuples(dense_slice, pairs[:, 0], dense_slice, pairs[:, 1],
                         "cosine"),
            dense_slice.similarity_pairs(pairs, "cosine"))

    def test_result_alignment_preserved(self, dense_slice, pairs):
        scores = score_tuples(dense_slice, pairs[:, 0], dense_slice,
                              pairs[:, 1], "cosine")
        for i in (0, 123, 499):
            expected = dense_slice.similarity_pairs(pairs[i:i + 1], "cosine")[0]
            assert scores[i] == pytest.approx(expected)

    def test_empty_input(self, dense_slice):
        nothing = np.empty(0, dtype=np.int64)
        out = score_tuples(dense_slice, nothing, dense_slice, nothing, "cosine")
        assert out.shape == (0,)

    def test_bad_shape_rejected(self, dense_slice):
        rows = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError):
            score_tuples(dense_slice, rows, dense_slice, rows[:3], "cosine")
        with pytest.raises(ValueError):
            score_tuples(dense_slice, rows.reshape(2, 2), dense_slice,
                         rows.reshape(2, 2), "cosine")

    def test_out_of_range_rows_rejected(self, dense_slice):
        rows = np.zeros(4, dtype=np.int64)
        for bad in (-1, len(dense_slice)):
            with pytest.raises(IndexError):
                score_tuples(dense_slice, rows, dense_slice,
                             np.array([0, 1, bad, 2]), "cosine")


class TestScoreParityAllMeasures:
    """Two half-store slices with local rows, every measure, bit-equal to
    the id-addressed whole-store scores."""

    @staticmethod
    def _halves(store, pairs, measure):
        half = NUM_USERS // 2
        left, right = np.arange(half), np.arange(half, NUM_USERS)
        left_rows, right_rows = pairs[:, 0] % half, pairs[:, 1] % half
        np.testing.assert_array_equal(
            score_tuples(store.load_users(left), left_rows,
                         store.load_users(right), right_rows, measure),
            _by_id(store, left, left_rows, right, right_rows, measure))

    @pytest.mark.parametrize("measure", sorted(VECTOR_MEASURES))
    def test_dense_measures(self, dense_store, pairs, measure):
        self._halves(dense_store, pairs, measure)

    @pytest.mark.parametrize("measure", sorted(SET_MEASURES))
    def test_sparse_measures(self, sparse_store, pairs, measure):
        self._halves(sparse_store, pairs, measure)

    @pytest.mark.parametrize("kind, measure", EVERY_MEASURE,
                             ids=[measure for _, measure in EVERY_MEASURE])
    def test_scattered_slice_parity(self, stores, kind, measure):
        """Non-contiguous user ids exercise the gathered-copy load path."""
        store = stores[kind]
        users = np.arange(0, NUM_USERS, 3)
        rows = np.random.default_rng(5).integers(0, len(users), size=(200, 2))
        piece = store.load_users(users)
        np.testing.assert_array_equal(
            score_tuples(piece, rows[:, 0], piece, rows[:, 1], measure),
            _by_id(store, users, rows[:, 0], users, rows[:, 1], measure))

    @pytest.mark.parametrize("kind, measure", EVERY_MEASURE,
                             ids=[measure for _, measure in EVERY_MEASURE])
    def test_two_partition_parity(self, stores, kind, measure):
        """Left rows address one slice, right rows the other, of unequal
        sizes."""
        store = stores[kind]
        third = NUM_USERS // 3
        rng = np.random.default_rng(6)
        left_rows = rng.integers(0, third, size=300)
        right_rows = rng.integers(0, NUM_USERS - third, size=300)
        got = score_tuples(store.load_users(range(third)), left_rows,
                           store.load_users(range(third, NUM_USERS)),
                           right_rows, measure)
        whole = store.load_users(range(NUM_USERS))
        np.testing.assert_array_equal(whole.similarity_pairs(
            np.column_stack([left_rows, third + right_rows]), measure), got)


class TestStepShapes:
    """The steps of a walk over four contiguous partitions, dense and
    sparse, each PI edge one call."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_a_step_across_two_partitions(self, stores, kind):
        store = stores[kind]
        slices = {pid: store.load_users(_quarter(pid)) for pid in (0, 2)}
        _assert_step(store, slices, (0, 2), _measure(kind),
                     np.random.default_rng(3))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_a_step_inside_one_partition(self, stores, kind):
        store = stores[kind]
        slices = {1: store.load_users(_quarter(1))}
        _assert_step(store, slices, (1, 1), _measure(kind),
                     np.random.default_rng(5))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_steps_one_after_another_on_the_same_slices(self, stores, kind):
        """Phase 4's walk keeps a resident partition's slice from one step
        to the next, a partition shared with the step before it and one
        not, in either order: no step's scores depend on what its slices
        scored before (a sparse slice builds derived state on first use)."""
        store = stores[kind]
        slices = {pid: store.load_users(_quarter(pid)) for pid in range(4)}
        steps = [(0, 1), (1, 2), (3, 3)]
        for step in steps + steps[::-1]:
            _assert_step(store, slices, step, _measure(kind),
                         np.random.default_rng(sum(step)))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_an_empty_batch(self, stores, kind):
        """A PI edge without rows scores to nothing, and the slice still
        scores the next batch."""
        store = stores[kind]
        piece = store.load_users(range(10))
        nothing = np.empty(0, dtype=np.int64)
        rows = np.arange(10)
        assert score_tuples(piece, nothing, piece, nothing,
                            _measure(kind)).shape == (0,)
        np.testing.assert_array_equal(
            score_tuples(piece, rows, piece, rows[::-1], _measure(kind)),
            _by_id(store, rows, rows, rows, rows[::-1], _measure(kind)))


def test_every_score_an_engine_computes_goes_through_the_module_name(
        monkeypatch):
    """Phase 4 looks ``score_tuples`` up in its module at call time, for
    the steps and the residual gathers alike: whatever replaces the name —
    a tracer, a native kernel — sees every evaluation an iteration
    reports, on the calling thread."""
    import threading

    seen = []
    score = iteration_module.score_tuples

    def counted(left, left_rows, right, right_rows, measure):
        seen.append((len(left_rows), threading.current_thread()))
        return score(left, left_rows, right, right_rows, measure)

    monkeypatch.setattr(iteration_module, "score_tuples", counted)
    settled = []
    residual = iteration_module.OutOfCoreIteration._score_residual

    def spied(runner, *args):
        settled.append(residual(runner, *args))
        return settled[-1]

    monkeypatch.setattr(iteration_module.OutOfCoreIteration, "_score_residual",
                        spied)
    profiles = generate_dense_profiles(300, dim=6, num_communities=4, seed=2)
    rng = np.random.default_rng(4)
    with KNNEngine(profiles, EngineConfig(k=5, num_partitions=6,
                                          seed=2)) as engine:
        # a converged graph, then churn inside the first partition: clean
        # steps miss a few tuples, which residual gathers settle
        run = engine.run(num_iterations=8, profile_change_feed=lambda i: [
            ProfileChange(user=int(user), kind="set", vector=rng.random(6))
            for user in rng.choice(50, size=4, replace=False)] if i >= 4 else [])
    assert sum(rows for rows, _ in seen) == run.total_similarity_evaluations
    assert {thread for _, thread in seen} == {threading.current_thread()}
    assert True in settled


@pytest.fixture(scope="module")
def edge_case_stores(tmp_path_factory):
    """40 users in two halves: a zero vector / an empty set in each half,
    and a row repeated inside a half and across the halves."""
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(40, 6))
    sets = [rng.choice(50, size=int(rng.integers(1, 12)), replace=False).tolist()
            for _ in range(40)]
    for rows in (matrix, sets):
        rows[0] = rows[21] = (np.zeros(6) if rows is matrix else [])
        rows[4] = rows[3]
        rows[25] = rows[5]
    return {kind: OnDiskProfileStore.create(
        tmp_path_factory.mktemp(kind), profiles, disk_model="instant")
        for kind, profiles in (("dense", DenseProfileStore(matrix)),
                               ("sparse", SparseProfileStore(sets)))}


@pytest.mark.parametrize("kind, measure", EVERY_MEASURE,
                         ids=[measure for _, measure in EVERY_MEASURE])
def test_swapped_sides_score_the_same_bits(edge_case_stores, kind, measure):
    """``score_tuples(A, l, B, r)`` is ``score_tuples(B, r, A, l)`` bit for
    bit — what lets a step score both directions of its pair in one call —
    across two slices and inside one, on int32 and int64 rows."""
    store = edge_case_stores[kind]
    halves = [store.load_users(np.arange(20)), store.load_users(np.arange(20, 40))]
    rng = np.random.default_rng(17)
    # zero vs zero, zero vs a row, identical rows, a row with itself
    named = np.array([[0, 1], [0, 2], [5, 5], [3, 4], [4, 4], [6, 6]])
    rows = np.concatenate([named, rng.integers(0, 20, size=(300, 2))])
    for dtype in (np.int32, np.int64):
        left, right = rows[:, 0].astype(dtype), rows[:, 1].astype(dtype)
        for a, b in ((halves[0], halves[1]), (halves[0], halves[0])):
            forward = score_tuples(a, left, b, right, measure)
            backward = score_tuples(b, right, a, left, measure)
            np.testing.assert_array_equal(forward.view(np.uint64),
                                          backward.view(np.uint64))
    scores = score_tuples(halves[0], named[:, 0], halves[1], named[:, 1], measure)
    assert np.isfinite(scores).all()


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_an_executed_step_reaches_score_tuples_once(monkeypatch, kind):
    """One call a step, both directions of a pair included: a walk that
    went back to one call a PI edge fails here."""
    executed = []       # [batches, calls, rows] per acquired step
    acquire = iteration_module._StepResidency.acquire
    score = iteration_module.score_tuples

    def spied_acquire(residency, step, batches):
        executed.append([len(batches), 0, 0])
        return acquire(residency, step, batches)

    def counted(left, left_rows, right, right_rows, measure):
        executed[-1][1] += 1
        executed[-1][2] += len(left_rows)
        return score(left, left_rows, right, right_rows, measure)

    monkeypatch.setattr(iteration_module._StepResidency, "acquire", spied_acquire)
    monkeypatch.setattr(iteration_module, "score_tuples", counted)
    profiles = (generate_dense_profiles(300, dim=6, num_communities=4, seed=2)
                if kind == "dense" else
                generate_sparse_profiles(300, 200, items_per_user=10,
                                         num_communities=4, seed=2))
    with KNNEngine(profiles, EngineConfig(k=5, num_partitions=6,
                                          seed=2)) as engine:
        # a cold iteration executes every step: no cache, no residual gather
        result = engine.run_iteration()
    assert {calls for batches, calls, _ in executed if batches} == {1}
    assert any(batches == 2 for batches, _, _ in executed)
    assert sum(rows for _, _, rows in executed) == result.similarity_evaluations


@pytest.mark.parametrize("offset", [-1, 0], ids=["negative", "past-the-end"])
def test_a_decoded_row_outside_its_partition_stops_phase_4(monkeypatch, offset):
    """Phase 4 proves every decoded row inside its partition once, before
    the walk: a layout whose local row for one vertex is out of range —
    below 0, or the partition's size — raises before any kernel call."""
    layout_of = iteration_module.partition_layout
    calls = []

    def broken(assignment, num_partitions):
        layout = layout_of(assignment, num_partitions)
        pid = int(layout.assignment[7])
        layout.local_row[7] = -1 if offset < 0 else layout.size(pid) + offset
        return layout

    monkeypatch.setattr(iteration_module, "partition_layout", broken)
    monkeypatch.setattr(iteration_module, "score_tuples",
                        lambda *args: calls.append(args))
    profiles = generate_dense_profiles(120, dim=4, num_communities=2, seed=5)
    with KNNEngine(profiles, EngineConfig(k=5, num_partitions=4,
                                          seed=5)) as engine:
        with pytest.raises(RuntimeError, match="outside its partition"):
            engine.run_iteration()
    assert calls == []


def test_the_residue_counted_a_step_at_a_time_settles_the_same(monkeypatch):
    """Phase 4 counts the cached steps' residue at most a merge call's
    tuples at once; with that bound at one tuple it counts one step at a
    time, and settles, executes and builds exactly what one pass does."""
    decisions = []
    residual = iteration_module.OutOfCoreIteration._score_residual

    def spied(runner, run, step, batches, measure):
        settled = residual(runner, run, step, batches, measure)
        decisions.append((step[0], step[1], settled))
        return settled

    def churned_run():
        decisions.clear()
        profiles = generate_dense_profiles(300, dim=6, num_communities=4, seed=2)
        rng = np.random.default_rng(4)
        with KNNEngine(profiles, EngineConfig(k=5, num_partitions=6,
                                              seed=2)) as engine:
            run = engine.run(num_iterations=8, profile_change_feed=lambda i: [
                ProfileChange(user=int(user), kind="set", vector=rng.random(6))
                for user in rng.choice(50, size=4, replace=False)] if i >= 4 else [])
        return (list(decisions), [(r.graph.edge_fingerprint(), r.steps_skipped,
                                   r.similarity_evaluations)
                                  for r in run.iterations])

    monkeypatch.setattr(iteration_module.OutOfCoreIteration, "_score_residual",
                        spied)
    whole = churned_run()
    monkeypatch.setattr(iteration_module, "_SCORED_FLUSH_ROWS", 1)
    assert churned_run() == whole
    assert {settled for _, _, settled in whole[0]} == {True, False}


class TestShardedMergeDeterminism:
    """``add_candidates_sharded`` has two routes to its rows; each must
    give what one plain batch merge gives, ties included."""

    @staticmethod
    def _sorted_merges(monkeypatch):
        calls, merge = [], KNNGraph._merge_sorted

        def counted(graph, *args):
            calls.append(len(args[0]))
            return merge(graph, *args)

        monkeypatch.setattr(KNNGraph, "_merge_sorted", counted)
        return calls

    def test_sharded_equals_batch_with_ties(self, monkeypatch):
        """Strictly increasing candidates into empty rows: the sorted
        merge."""
        rng = np.random.default_rng(41)
        n = 60
        keys = np.unique(rng.integers(0, n * n, size=800)).astype(np.int64)
        src, dst = keys // n, keys % n
        # quantised scores force plenty of exact ties
        scores = np.round(rng.random(len(keys)), 1)
        plain = KNNGraph(n, 5)
        sharded = KNNGraph(n, 5)
        changed_plain = plain.add_candidates_batch(src, dst, scores)
        sorted_merges = self._sorted_merges(monkeypatch)
        changed_sharded = sharded.add_candidates_sharded(src, dst, scores,
                                                         assume_unique=True)
        assert sorted_merges == [len(keys)]
        assert changed_plain == changed_sharded
        assert plain.edge_fingerprint() == sharded.edge_fingerprint()

    def test_sharded_with_incumbents(self, monkeypatch):
        """Unsorted candidates, with repeats and ties, into full rows: the
        batch fallback."""
        rng = np.random.default_rng(43)
        n = 40
        plain = KNNGraph.random(n, 4, seed=9)
        sharded = plain.copy()
        src = rng.integers(0, n, size=300).astype(np.int64)
        dst = rng.integers(0, n, size=300).astype(np.int64)
        scores = np.round(rng.random(300), 2)
        changed_plain = plain.add_candidates_batch(src, dst, scores)
        sorted_merges = self._sorted_merges(monkeypatch)
        changed_sharded = sharded.add_candidates_sharded(src, dst, scores)
        assert sorted_merges == []
        assert changed_plain == changed_sharded
        assert plain.edge_fingerprint() == sharded.edge_fingerprint()
