"""Transport parity wall: ``thread`` ≡ serial, everywhere.

Every phase-4 score crosses one seam, ``ScoringWorkers.execute(slices,
batches, measure)``, whose two transports (inline on the calling thread,
and a thread pool that cuts each step row-wise) must be indistinguishable
by their results.  These tests pin the seam to ``similarity_rows`` on the
slices it was handed — bitwise, for all 8 measures on dense and sparse
stores, with the step cut row-wise at every width up to eight — and whole
engine runs to each other by edge-set fingerprint, including the awkward
shapes: empty batches, fewer rows than workers, partitions smaller than the
worker count, a step whose two partitions are one, and a one-worker pool.
"""

from __future__ import annotations

import gc
import threading
import weakref
from typing import NamedTuple, Sequence, Tuple

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import RowBatch, ScoringWorkers, score_tuples
from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.workloads import (generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120
#: The transports by test id, as the ``num_workers`` each runs unless a
#: test says otherwise: ``serial`` scores inline, ``thread`` on a pool of
#: three and ``thread4`` on a pool of four.
WIDTHS = {"serial": 1, "thread": 3, "thread4": 4}
BACKENDS = list(WIDTHS)
#: ``(transport, width)`` for the cut itself: inline, and the pool at every
#: width up to eight — the step tasks' 60-row batches cut evenly up to six
#: and unevenly at seven and eight.
CUT_WIDTHS = [("serial", 1)] + [("thread", width) for width in range(1, 9)]


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


def _workers(backend, width=None, **options):
    """``serial`` is one worker whatever ``width`` says; a pool is
    ``width`` wide, or as wide as its transport's default."""
    return ScoringWorkers(
        num_workers=1 if backend == "serial" else width or WIDTHS[backend],
        **options)


def _measure(kind):
    return "cosine" if kind == "dense" else "jaccard"


class _Step(NamedTuple):
    """One step as the residency model hands it over: the user ids of its
    partitions (loaded into the slices the seam takes), its row batches
    into them and the measure."""

    parts: Tuple[Sequence[int], ...]
    batches: Tuple[RowBatch, ...]
    measure: str


def _step(parts, batches, measure):
    return _Step(tuple(parts), tuple(batches), measure)


def _slices(store, step):
    return [store.load_users(np.asarray(ids, dtype=np.int64))
            for ids in step.parts]


def _execute(workers, store, step):
    """The step across the seam, on freshly loaded slices."""
    return workers.execute(_slices(store, step), step.batches, step.measure)


def _whole_store_step(pairs, measure):
    """Id pairs as one step over the whole store (where row == id)."""
    return _step([np.arange(NUM_USERS)], [(0, 0, pairs[:, 0], pairs[:, 1])],
                 measure)


def _expected(store, step):
    """The step's scores off freshly loaded slices, no seam involved."""
    slices = _slices(store, step)
    return np.concatenate([
        slices[left].similarity_rows(left_rows, slices[right], right_rows,
                                     step.measure)
        for left, right, left_rows, right_rows in step.batches])


def _steps(rng, step_pairs, rows=60, measure=None):
    """One step per ``(p, q)`` quarter-of-the-store partition pair, each with
    the PI edges (p, q), (q, p) and (p, p) as partition-local row batches."""
    quarter = NUM_USERS // 4
    steps = []
    for first, second in step_pairs:
        pids = (first,) if first == second else (first, second)
        parts = [np.arange(pid * quarter, (pid + 1) * quarter) for pid in pids]
        edges = [(0, 0)] if first == second else [(0, 1), (1, 0), (0, 0)]
        batches = [(left, right, rng.integers(0, quarter, size=rows),
                    rng.integers(0, quarter, size=rows))
                   for left, right in edges]
        steps.append(_step(parts, batches, measure))
    return steps


class TestScoreParityAllMeasures:
    @pytest.mark.parametrize("measure", sorted(VECTOR_MEASURES))
    def test_dense_measures(self, dense_store, pairs, measure, cut_everything):
        step = _whole_store_step(pairs, measure)
        expected = _expected(dense_store, step)
        for backend in BACKENDS:
            with _workers(backend) as workers:
                np.testing.assert_array_equal(
                    _execute(workers, dense_store, step), expected)

    @pytest.mark.parametrize("measure", sorted(SET_MEASURES))
    def test_sparse_measures(self, sparse_store, pairs, measure, cut_everything):
        step = _whole_store_step(pairs, measure)
        expected = _expected(sparse_store, step)
        for backend in BACKENDS:
            with _workers(backend) as workers:
                np.testing.assert_array_equal(
                    _execute(workers, sparse_store, step), expected)

    def test_scattered_slice_parity(self, dense_store, cut_everything):
        """Non-contiguous user ids exercise the gathered-copy load path."""
        users = np.arange(0, NUM_USERS, 3)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, len(users), size=(200, 2))
        step = _step([users], [(0, 0, rows[:, 0], rows[:, 1])], "cosine")
        with _workers("serial") as serial:
            expected = _execute(serial, dense_store, step)
        with _workers("thread") as threaded:
            np.testing.assert_array_equal(
                _execute(threaded, dense_store, step), expected)
        # and the rows mean what the ids say
        whole = dense_store.load_users(range(NUM_USERS))
        np.testing.assert_array_equal(
            whole.similarity_pairs(users[rows], "cosine"), expected)

    def test_two_partition_parity(self, dense_store, cut_everything):
        """Left rows address one slice, right rows the other."""
        half = NUM_USERS // 2
        rng = np.random.default_rng(6)
        left_rows = rng.integers(0, half, size=300)
        right_rows = rng.integers(0, NUM_USERS - half, size=300)
        step = _step([range(half), range(half, NUM_USERS)],
                     [(0, 1, left_rows, right_rows)], "cosine")
        with _workers("thread") as threaded:
            got = _execute(threaded, dense_store, step)
        whole = dense_store.load_users(range(NUM_USERS))
        np.testing.assert_array_equal(whole.similarity_pairs(
            np.column_stack([left_rows, half + right_rows]), "cosine"), got)


class TestSeamWall:
    """Inline and the pool at widths 1–8, dense and sparse: every result
    bit-equal to ``similarity_rows`` on the slices the seam was handed."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend, width", CUT_WIDTHS)
    def test_one_task_cut_row_wise(self, stores, backend, width, kind,
                                   cut_everything):
        store = stores[kind]
        (step,) = _steps(np.random.default_rng(3), [(0, 2)],
                         measure=_measure(kind))
        with _workers(backend, width) as workers:
            scores = _execute(workers, store, step)
        np.testing.assert_array_equal(scores, _expected(store, step))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend, width", CUT_WIDTHS)
    def test_steps_one_after_another_on_one_pool(self, stores, backend, width,
                                                 kind, cut_everything):
        """Phase 4's walk: one pool scores step after step, a partition
        shared with the step before it and one not, in either order; no
        step's result depends on what the pool scored before it."""
        store = stores[kind]
        steps = _steps(np.random.default_rng(4), [(0, 1), (1, 2), (3, 3)],
                       measure=_measure(kind))
        with _workers(backend, width) as workers:
            forward = [_execute(workers, store, step) for step in steps]
            backward = [_execute(workers, store, step)
                        for step in reversed(steps)]
        for step, scores, again in zip(steps, forward, reversed(backward)):
            np.testing.assert_array_equal(scores, _expected(store, step))
            np.testing.assert_array_equal(again, scores)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_step_inside_one_partition(self, stores, backend, kind,
                                         cut_everything):
        store = stores[kind]
        (step,) = _steps(np.random.default_rng(5), [(1, 1)],
                         measure=_measure(kind))
        assert len(step.parts) == 1
        with _workers(backend) as workers:
            scores = _execute(workers, store, step)
        np.testing.assert_array_equal(scores, _expected(store, step))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batch(self, stores, backend, kind, cut_everything):
        """A batch without rows scores to nothing, beside one that has some."""
        store = stores[kind]
        nothing = np.empty(0, dtype=np.int64)
        rows = np.arange(10)
        step = _step([range(10)],
                     [(0, 0, nothing, nothing), (0, 0, rows, rows[::-1])],
                     _measure(kind))
        with _workers(backend) as workers:
            scores = _execute(workers, store, step)
            none = _execute(workers, store, step._replace(
                batches=step.batches[:1]))
        np.testing.assert_array_equal(scores, _expected(store, step))
        assert none.shape == (0,)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fewer_rows_than_workers(self, stores, backend, kind,
                                     cut_everything):
        """Pieces beyond the row count are dropped, not scored empty."""
        store = stores[kind]
        step = _step([range(10)], [(0, 0, np.array([0, 2]), np.array([1, 3]))],
                     _measure(kind))
        with _workers(backend) as workers:
            scores = _execute(workers, store, step)
        np.testing.assert_array_equal(scores, _expected(store, step))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_the_seam_keeps_no_slice_it_was_handed(self, stores, backend, kind,
                                                   cut_everything):
        """The slices are the caller's: once it lets go of them, nothing
        across the seam still holds one — not the workers, not the pool."""
        store = stores[kind]
        (step,) = _steps(np.random.default_rng(7), [(0, 3)],
                         measure=_measure(kind))
        slices = _slices(store, step)
        alive = [weakref.ref(piece) for piece in slices]
        with _workers(backend) as workers:
            scores = workers.execute(slices, step.batches, step.measure)
            del slices
            gc.collect()
            assert [ref() for ref in alive] == [None, None]
        np.testing.assert_array_equal(scores, _expected(store, step))

    def test_single_worker_pool(self, dense_store):
        """One worker builds no pool: the calling thread scores."""
        step = _whole_store_step(np.array([[0, 1], [5, 9], [10, 11]]), "cosine")
        with ScoringWorkers(num_workers=1) as workers:
            assert workers.transport == "inline"
            scores = _execute(workers, dense_store, step)
            assert workers._executor is None
        np.testing.assert_array_equal(scores, _expected(dense_store, step))

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ScoringWorkers(num_workers=0)


class TestThreadPool:
    """What the pool promises besides its scores: where the work runs, what
    a failure does to it, and when it exists at all."""

    def test_the_pool_scores_the_callers_slices_on_its_threads(
            self, dense_store, pairs, cut_everything):
        """Each piece's kernel call runs on a pool thread, on the very slice
        objects the caller handed over: nothing is loaded or copied."""
        seen, scored = [], []

        def kernel(left, left_rows, right, right_rows, measure):
            seen.append((left, right))
            scored.append(threading.current_thread())
            return score_tuples(left, left_rows, right, right_rows, measure)

        step = _whole_store_step(pairs, "cosine")
        slices = _slices(dense_store, step)
        with ScoringWorkers(num_workers=3, score=kernel) as workers:
            scores = workers.execute(slices, step.batches, step.measure)
        np.testing.assert_array_equal(scores, _expected(dense_store, step))
        assert len(scored) == 3
        assert all(left is right is slices[0] for left, right in seen)
        assert threading.current_thread() not in scored

    def test_a_replaced_kernel_scores_every_row_once(self, dense_store, pairs,
                                                     cut_everything):
        """A kernel dispatch handed to the pool sees all of a cut step's
        rows, none twice: a tracer counts what the inline path counts."""
        rows = []
        lock = threading.Lock()

        def kernel(left, left_rows, right, right_rows, measure):
            with lock:
                rows.extend(zip(left_rows.tolist(), right_rows.tolist()))
            return score_tuples(left, left_rows, right, right_rows, measure)

        step = _whole_store_step(pairs, "cosine")
        with ScoringWorkers(num_workers=4, score=kernel) as workers:
            _execute(workers, dense_store, step)
        assert sorted(rows) == sorted(map(tuple, pairs.tolist()))

    def test_a_kernel_error_on_a_pool_thread_reaches_the_caller(
            self, dense_store, pairs, cut_everything):
        """A piece whose kernel raises fails that ``execute`` with its own
        error; the same pool scores the next step as if nothing happened."""
        calls = []

        def kernel(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("kernel failed")
            return score_tuples(*args)

        step = _whole_store_step(pairs, "cosine")
        with ScoringWorkers(num_workers=3, score=kernel) as workers:
            with pytest.raises(RuntimeError, match="kernel failed"):
                _execute(workers, dense_store, step)
            pool = workers._executor
            scores = _execute(workers, dense_store, step)
            assert workers._executor is pool
        np.testing.assert_array_equal(scores, _expected(dense_store, step))

    def test_shutdown_is_idempotent_and_a_later_step_builds_a_new_pool(
            self, dense_store, pairs, cut_everything):
        step = _whole_store_step(pairs, "cosine")
        baseline = threading.active_count()
        workers = ScoringWorkers(num_workers=3)
        first = _execute(workers, dense_store, step)
        pool = workers._executor
        assert pool is not None
        workers.shutdown()
        workers.shutdown()
        assert workers._executor is None
        assert threading.active_count() == baseline
        again = _execute(workers, dense_store, step)
        assert workers._executor is not None and workers._executor is not pool
        workers.shutdown()
        assert threading.active_count() == baseline
        np.testing.assert_array_equal(again, first)

    def test_a_task_under_the_floor_stays_on_the_calling_thread(self,
                                                                dense_store,
                                                                pairs):
        """At the shipped row floor a small step is not worth handing over:
        a wide pool scores it where it is and is never built."""
        scored = []

        def kernel(*args):
            scored.append(threading.current_thread())
            return score_tuples(*args)

        step = _whole_store_step(pairs, "cosine")
        with ScoringWorkers(num_workers=4, score=kernel) as workers:
            assert workers.transport == "thread"
            scores = _execute(workers, dense_store, step)
            assert workers._executor is None
        assert scored == [threading.current_thread()]
        np.testing.assert_array_equal(scores, _expected(dense_store, step))


def _engine_fingerprint(profiles, **overrides) -> str:
    defaults = dict(k=5, num_partitions=4, heuristic="degree-low-high", seed=17)
    defaults.update(overrides)
    config = EngineConfig(**defaults)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=2)
    return run.final_graph.edge_fingerprint()


class TestEngineBackendParity:
    """Whole engines, every step cut across the pool (``cut_everything``)."""

    @pytest.mark.parametrize("width", [2, 3])
    def test_dense_engine_all_backends_identical(self, width, cut_everything):
        profiles = generate_dense_profiles(150, dim=8, num_communities=4, seed=23)
        serial = _engine_fingerprint(profiles, num_workers=1)
        threaded = _engine_fingerprint(profiles, num_workers=width)
        assert serial == threaded

    @pytest.mark.parametrize("width", [2, 3])
    def test_sparse_engine_thread_identical(self, width, cut_everything):
        """Set measures produce heavy score ties; parity must survive them."""
        profiles = generate_sparse_profiles(150, 200, items_per_user=10,
                                            num_communities=4, seed=23)
        serial = _engine_fingerprint(profiles, num_workers=1)
        threaded = _engine_fingerprint(profiles, num_workers=width)
        assert serial == threaded

    def test_partitions_smaller_than_worker_count(self, cut_everything):
        """8 partitions of ~7 users each, 6 workers: shards go empty, results don't."""
        profiles = generate_dense_profiles(60, dim=6, num_communities=3, seed=29)
        serial = _engine_fingerprint(profiles, k=4, num_partitions=8)
        threaded = _engine_fingerprint(profiles, k=4, num_partitions=8,
                                       num_workers=6)
        assert serial == threaded


class TestShardedMergeDeterminism:
    def test_sharded_equals_batch_with_ties(self):
        rng = np.random.default_rng(41)
        n, rows = 60, 800
        src = rng.integers(0, n, size=rows).astype(np.int64)
        dst = rng.integers(0, n, size=rows).astype(np.int64)
        # quantised scores force plenty of exact ties
        scores = np.round(rng.random(rows), 1)
        plain = KNNGraph(n, 5)
        sharded = KNNGraph(n, 5)
        changed_plain = plain.add_candidates_batch(src, dst, scores)
        changed_sharded = sharded.add_candidates_sharded(src, dst, scores,
                                                         num_shards=4)
        assert changed_plain == changed_sharded
        assert plain.edge_fingerprint() == sharded.edge_fingerprint()

    def test_sharded_with_incumbents(self):
        rng = np.random.default_rng(43)
        n = 40
        plain = KNNGraph.random(n, 4, seed=9)
        sharded = plain.copy()
        src = rng.integers(0, n, size=300).astype(np.int64)
        dst = rng.integers(0, n, size=300).astype(np.int64)
        scores = np.round(rng.random(300), 2)
        plain.add_candidates_batch(src, dst, scores)
        sharded.add_candidates_sharded(src, dst, scores, num_shards=3)
        assert plain.edge_fingerprint() == sharded.edge_fingerprint()
