"""Run-lifetime scoring workers: reuse across iterations, parity across updates.

The engine keeps one :class:`ScoringWorkers` — and its thread pool, when
it is wider than one — alive for a whole run; the workers hold no profile
state, only the slices each step hands them, which the residency model
loads afresh every phase 4.  These tests pin

* that graph fingerprints stay identical between the inline and the thread
  transport *while profiles change between iterations* — a slice held over
  a phase-5 update would break this instantly,
* that the pool really is reused across iterations and gone after close,
  and that the default configuration builds no executor and no process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)

NUM_USERS = 150


def _dense_feed(rng, dim=8, num_users=NUM_USERS):
    def feed(_iteration):
        users = rng.choice(num_users, size=12, replace=False)
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(dim))
                for u in users]
    return feed


def _sparse_feed(rng):
    def feed(_iteration):
        users = rng.choice(NUM_USERS, size=12, replace=False)
        return [ProfileChange(user=int(u), kind="add",
                              item=int(rng.integers(0, 200)))
                for u in users]
    return feed


def _run_fingerprints(profiles, feed_factory, **overrides):
    config = EngineConfig(k=5, num_partitions=4, heuristic="degree-low-high",
                          seed=17, **overrides)
    rng = np.random.default_rng(99)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=3, profile_change_feed=feed_factory(rng))
    return [result.graph.edge_fingerprint() for result in run.iterations]


class TestPoolReuseParityAcrossUpdates:
    @pytest.mark.parametrize("width", [2, 3])
    def test_dense_backends_identical_under_churn(self, width, cut_everything):
        profiles = generate_dense_profiles(NUM_USERS, dim=8, num_communities=4,
                                           seed=23)
        serial = _run_fingerprints(profiles, _dense_feed)
        threaded = _run_fingerprints(profiles, _dense_feed, num_workers=width)
        assert serial == threaded

    @pytest.mark.parametrize("width", [2, 3])
    def test_sparse_backends_identical_under_churn(self, width, cut_everything):
        """Sparse updates replace journal/segment files — the hard case for
        any slice kept across an iteration: a stale mmap would change scores
        or crash."""
        profiles = generate_sparse_profiles(NUM_USERS, 200, items_per_user=10,
                                            num_communities=4, seed=23)
        serial = _run_fingerprints(profiles, _sparse_feed)
        threaded = _run_fingerprints(profiles, _sparse_feed, num_workers=width)
        assert serial == threaded

    def test_pool_object_survives_iterations(self, cut_everything):
        """The pool an iteration built scores the next one too, across a
        profile update; close drops it."""
        profiles = generate_dense_profiles(80, dim=6, num_communities=3, seed=29)
        config = EngineConfig(k=4, num_partitions=4, num_workers=2, seed=5)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            workers = engine._iteration_runner.workers
            pool_first = workers._executor
            assert pool_first is not None
            generation = engine.profile_store.generation
            engine.enqueue_profile_changes(
                [ProfileChange(user=0, kind="set", vector=np.ones(6))])
            engine.run_iteration()
            assert engine.profile_store.generation > generation
            assert workers._executor is pool_first
        # close() shut the pool down and dropped it
        assert workers._executor is None


class TestThreadExecutorReuse:
    """The thread transport keeps one executor for the whole run — not one
    per scoring call."""

    def test_default_config_builds_no_executor_and_no_process(self, monkeypatch):
        import multiprocessing

        import repro.core.parallel as parallel_module

        def refuse(*args, **kwargs):
            raise AssertionError("the default configuration built an executor")

        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor", refuse)
        profiles = generate_dense_profiles(NUM_USERS, dim=8, num_communities=4,
                                           seed=23)
        rng = np.random.default_rng(99)
        with KNNEngine(profiles, EngineConfig(k=5, num_partitions=4,
                                              seed=17)) as engine:
            run = engine.run(num_iterations=3,
                             profile_change_feed=_dense_feed(rng))
            assert engine._iteration_runner.workers.transport == "inline"
            assert multiprocessing.active_children() == []
        assert all(result.similarity_evaluations for result in run.iterations)

    def test_one_executor_per_run_and_threads_gone_after_close(self, monkeypatch):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        import repro.core.parallel as parallel_module

        built = []
        submitted = []

        class SpyExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                submitted.append(self)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor", SpyExecutor)
        # 8 partitions = 36 residency steps; PI edges beyond the 4096-tuple
        # chunk size, so the steps really fan out onto the pool
        profiles = generate_dense_profiles(2400, dim=6, num_communities=3,
                                           seed=41)
        base = dict(k=12, num_partitions=8, heuristic="degree-low-high", seed=9)
        baseline = threading.active_count()
        engine = KNNEngine(profiles, EngineConfig(num_workers=4, **base))
        try:
            results = [engine.run_iteration(), engine.run_iteration()]
            assert results[0].steps_total == 36
            assert len(built) == 1
            assert len(submitted) > 36 and set(submitted) == {built[0]}
            assert threading.active_count() > baseline
        finally:
            engine.close()
        engine.close()  # idempotent
        assert threading.active_count() == baseline
        with KNNEngine(profiles, EngineConfig(**base)) as twin:
            expected = [twin.run_iteration(), twin.run_iteration()]
        assert ([r.graph.edge_fingerprint() for r in results]
                == [r.graph.edge_fingerprint() for r in expected])
        assert len(built) == 1  # the serial twin never builds one
