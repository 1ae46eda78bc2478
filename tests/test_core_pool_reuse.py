"""Run-lifetime scoring workers: reuse across iterations, parity across updates.

The engine keeps one :class:`ScoringWorkers` — and whatever executor its
transport needs — alive for a whole run; workers invalidate their cached
mmap slices through the profile store's ``generation`` counter after every
phase-5 update batch.  These tests pin

* that the executor really is reused across iterations (fork start-up is
  paid once a run, not once an iteration),
* that graph fingerprints stay identical across serial / thread / process
  backends *while profiles change between iterations* — stale worker caches
  would break this instantly,
* the single-worker and no-fork fallbacks to in-process scoring, and that
  the default configuration builds no executor and no worker process at all.
"""

from __future__ import annotations

import logging

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
    def test_dense_backends_identical_under_churn(self):
        profiles = generate_dense_profiles(NUM_USERS, dim=8, num_communities=4,
                                           seed=23)
        serial = _run_fingerprints(profiles, _dense_feed, backend="serial")
        threaded = _run_fingerprints(profiles, _dense_feed, backend="thread",
                                     num_workers=3)
        process = _run_fingerprints(profiles, _dense_feed, backend="process",
                                    num_workers=3)
        assert serial == threaded == process

    def test_sparse_backends_identical_under_churn(self):
        """Sparse updates replace journal/segment files — the hard case for
        worker caches: a stale mmap would change scores or crash."""
        profiles = generate_sparse_profiles(NUM_USERS, 200, items_per_user=10,
                                            num_communities=4, seed=23)
        serial = _run_fingerprints(profiles, _sparse_feed, backend="serial")
        process = _run_fingerprints(profiles, _sparse_feed, backend="process",
                                    num_workers=3)
        assert serial == process

    def test_pool_object_survives_iterations(self):
        profiles = generate_dense_profiles(80, dim=6, num_communities=3, seed=29)
        config = EngineConfig(k=4, num_partitions=4, backend="process",
                              num_workers=2, seed=5)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            workers = engine._iteration_runner.workers
            pool_first = workers._executor
            assert pool_first is not None
            engine.enqueue_profile_changes(
                [ProfileChange(user=0, kind="set", vector=np.ones(6))])
            engine.run_iteration()
            assert workers._executor is pool_first
            assert workers.respawns == 0
        # close() shut the pool down and dropped it
        assert workers._executor is None

    def test_single_worker_skips_pool_with_warning(self, caplog):
        profiles = generate_dense_profiles(80, dim=6, num_communities=3, seed=31)
        config = EngineConfig(k=4, num_partitions=4, backend="process",
                              num_workers=1, seed=5)
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            with KNNEngine(profiles, config) as engine:
                engine.run_iteration()
                assert engine._iteration_runner.workers._executor is None
                engine.run_iteration()
        warnings = [record for record in caplog.records
                    if "skipping the worker pool" in record.message]
        assert len(warnings) == 1  # warned once, not per iteration

    def test_single_worker_fallback_matches_serial(self):
        profiles = generate_dense_profiles(80, dim=6, num_communities=3, seed=31)
        feed = lambda rng: _dense_feed(rng, dim=6, num_users=80)
        serial = _run_fingerprints(profiles, feed, backend="serial")
        fallback = _run_fingerprints(profiles, feed, backend="process",
                                     num_workers=1)
        assert serial == fallback

    def test_no_fork_platform_falls_back(self, monkeypatch, caplog):
        import repro.core.parallel as parallel_module
        monkeypatch.setattr(parallel_module, "fork_available", lambda: False)
        profiles = generate_dense_profiles(80, dim=6, num_communities=3, seed=37)
        config = EngineConfig(k=4, num_partitions=4, backend="process",
                              num_workers=4, seed=5)
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            with KNNEngine(profiles, config) as engine:
                engine.run_iteration()
                engine.run_iteration()
                workers = engine._iteration_runner.workers
                assert workers.transport == "inline"
                assert workers._executor is None
        assert sum("fork is unavailable" in record.message
                   for record in caplog.records) == 1   # once a run
        feed = lambda rng: _dense_feed(rng, dim=6, num_users=80)
        serial = _run_fingerprints(profiles, feed, backend="serial")
        fallback = _run_fingerprints(profiles, feed,
                                     backend="process", num_workers=4)
        assert serial == fallback


class TestThreadExecutorReuse:
    """The thread backend keeps one executor for the whole run, like the
    process pool — not one per scoring call."""

    def test_default_config_builds_no_executor_and_no_process(self, monkeypatch):
        import multiprocessing

        import repro.core.parallel as parallel_module

        def refuse(*args, **kwargs):
            raise AssertionError("the default configuration built an executor")

        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", refuse)
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
        engine = KNNEngine(profiles, EngineConfig(backend="thread",
                                                  num_workers=4, **base))
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
        with KNNEngine(profiles, EngineConfig(backend="serial", **base)) as twin:
            expected = [twin.run_iteration(), twin.run_iteration()]
        assert ([r.graph.edge_fingerprint() for r in results]
                == [r.graph.edge_fingerprint() for r in expected])
        assert len(built) == 1  # the serial twin never builds one
