"""Supervised scoring pool: dead/hung workers, respawn, serial degradation.

Faults are injected deterministically through a :class:`FaultPlan`:
``kill_worker`` makes the worker executing one shard die with ``os._exit``
(no exception, no cleanup — exactly what a OOM-kill or segfault looks like
to the coordinator) and ``hang_worker`` puts it to sleep past the per-shard
watchdog timeout.  Supervision must respawn and retry until the batch
succeeds — with bit-identical scores — and degrade to the in-process path
only after the retry budget is exhausted.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import (ProcessScoringPool, ScoringPoolBroken,
                                 fork_available)
from repro.similarity.workloads import generate_dense_profiles
from repro.storage.profile_store import OnDiskProfileStore
from repro.testing import FaultPlan

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="process pool needs fork")

NUM_USERS = 80


@pytest.fixture
def dense_store(tmp_path):
    profiles = generate_dense_profiles(NUM_USERS, dim=6, num_communities=3,
                                       seed=31)
    return OnDiskProfileStore.create(tmp_path / "store", profiles,
                                     disk_model="instant")


@pytest.fixture
def pairs():
    rng = np.random.default_rng(11)
    return rng.integers(0, NUM_USERS, size=(300, 2)).astype(np.int64)


def _score(pool, pairs):
    """Score id pairs against the whole store (one ad-hoc part: row == id)."""
    return pool.score([(None, np.arange(NUM_USERS))], pairs[:, 0], pairs[:, 1],
                      "cosine")


class TestPoolSupervision:
    def test_killed_worker_respawns_and_result_is_identical(self, dense_store,
                                                            pairs):
        with ProcessScoringPool(dense_store, num_workers=2) as clean_pool:
            expected = _score(clean_pool, pairs)
        plan = FaultPlan().kill_worker(call=1, shard=0)
        pool = ProcessScoringPool(dense_store, num_workers=2, fault_plan=plan)
        try:
            got = _score(pool, pairs)
        finally:
            pool.terminate()
        np.testing.assert_array_equal(got, expected)
        assert pool.respawns >= 1
        assert "worker" in plan.fired_kinds()

    def test_hung_worker_times_out_and_retries(self, dense_store, pairs):
        with ProcessScoringPool(dense_store, num_workers=2) as clean_pool:
            expected = _score(clean_pool, pairs)
        plan = FaultPlan().hang_worker(call=1, shard=0, seconds=60.0)
        pool = ProcessScoringPool(dense_store, num_workers=2,
                                  shard_timeout=0.5, fault_plan=plan)
        try:
            got = _score(pool, pairs)
        finally:
            pool.terminate()
        np.testing.assert_array_equal(got, expected)
        assert pool.respawns >= 1

    def test_exhausted_retries_raise_scoring_pool_broken(self, dense_store,
                                                         pairs):
        # every attempt (initial + 1 retry) gets its worker killed
        plan = FaultPlan().kill_worker(call=1, shard=0).kill_worker(call=2,
                                                                    shard=0)
        pool = ProcessScoringPool(dense_store, num_workers=2, max_retries=1,
                                  fault_plan=plan)
        try:
            with pytest.raises(ScoringPoolBroken):
                _score(pool, pairs)
        finally:
            pool.terminate()

    def test_terminate_is_idempotent_and_shutdown_safe_after(self,
                                                             dense_store):
        pool = ProcessScoringPool(dense_store, num_workers=2)
        pool.terminate()
        pool.terminate()
        pool.shutdown()  # no executor left: must not raise


class TestEngineDegradation:
    def _config(self, plan=None, **overrides):
        return EngineConfig(k=4, num_partitions=4, backend="process",
                            num_workers=2, seed=5, fault_plan=plan,
                            **overrides)

    def test_persistent_worker_death_degrades_to_serial(self, caplog):
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        with KNNEngine(profiles, self._config()) as clean:
            reference = clean.run(2)
        # kill the targeted worker on every attempt of the first score
        # call: initial + max_retries(3) retries = 4 consecutive failures
        plan = FaultPlan()
        for call in range(1, 5):
            plan.kill_worker(call=call, shard=0)
        with caplog.at_level(logging.WARNING):
            with KNNEngine(profiles, self._config(plan)) as engine:
                run = engine.run(2)
                assert engine._iteration_runner._pool_degraded
                assert engine._iteration_runner._pool is None
        # bit-identical results despite the mid-run backend switch
        assert (run.final_graph.edge_fingerprint()
                == reference.final_graph.edge_fingerprint())
        assert any("degrading to" in record.message
                   for record in caplog.records)

    def test_single_kill_recovers_without_degrading(self):
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        with KNNEngine(profiles, self._config()) as clean:
            reference = clean.run(2)
        plan = FaultPlan().kill_worker(call=1, shard=1)
        with KNNEngine(profiles, self._config(plan)) as engine:
            run = engine.run(2)
            assert not engine._iteration_runner._pool_degraded
        assert (run.final_graph.edge_fingerprint()
                == reference.final_graph.edge_fingerprint())

    def test_shard_timeout_config_reaches_the_pool(self):
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        config = self._config(shard_timeout_seconds=12.5)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            pool = engine._iteration_runner._pool
            assert pool is not None and pool._shard_timeout == 12.5

    def test_no_shared_index_segments_leak_after_faulty_runs(self,
                                                             shm_unchanged):
        """A pool worker killed mid-step strands nothing under /dev/shm."""
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        plan = FaultPlan().kill_worker(call=1, shard=0)
        with KNNEngine(profiles, self._config(plan)) as engine:
            engine.run(2)
        assert "worker" in plan.fired_kinds()
