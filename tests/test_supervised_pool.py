"""Supervised scoring workers: dead/hung workers, respawn, inline degradation.

Faults are injected deterministically through a :class:`FaultPlan`:
``kill_worker`` makes the worker executing one task die with ``os._exit``
(no exception, no cleanup — exactly what a OOM-kill or segfault looks like
to the coordinator) and ``hang_worker`` puts it to sleep past the per-future
watchdog timeout.  Supervision must respawn and retry until the task list
succeeds — with bit-identical scores — and degrade to the inline transport
only after the retry budget is exhausted.  Each rung is asserted once
against ``ScoringWorkers.execute`` and once end to end per granularity
(step at a time here and in waves, see also ``test_shard_parallel.py``)
through ``KNNEngine``.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

import repro.core.parallel as parallel_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import ScoringWorkers, ShardStepTask, fork_available
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


@pytest.fixture(autouse=True)
def cut_everything(monkeypatch):
    """A lone task is cut across both workers however few rows it has."""
    monkeypatch.setattr(parallel_module, "SPLIT_FLOOR_ROWS", 0)


def _score(workers, pairs):
    """Score id pairs against the whole store (one ad-hoc part: row == id)."""
    task = ShardStepTask(parts=((None, np.arange(NUM_USERS)),),
                         batches=((0, 0, pairs[:, 0], pairs[:, 1]),),
                         measure="cosine", generation=None)
    return workers.execute([task])[0]


def _expected(store, pairs):
    return store.load_users(range(NUM_USERS)).similarity_pairs(pairs, "cosine")


class TestPoolSupervision:
    def test_killed_worker_respawns_and_result_is_identical(self, dense_store,
                                                            pairs):
        plan = FaultPlan().kill_worker(call=1, shard=0)
        with ScoringWorkers(dense_store, backend="process", num_workers=2,
                            fault_plan=plan) as workers:
            got = _score(workers, pairs)
            assert workers.transport == "process"
        np.testing.assert_array_equal(got, _expected(dense_store, pairs))
        assert workers.respawns >= 1
        assert "worker" in plan.fired_kinds()

    def test_hung_worker_times_out_and_retries(self, dense_store, pairs):
        plan = FaultPlan().hang_worker(call=1, shard=0, seconds=60.0)
        with ScoringWorkers(dense_store, backend="process", num_workers=2,
                            shard_timeout=0.5, fault_plan=plan) as workers:
            got = _score(workers, pairs)
            assert workers.transport == "process"
        np.testing.assert_array_equal(got, _expected(dense_store, pairs))
        assert workers.respawns >= 1

    def test_pool_breaking_under_submit_is_retried(self, dense_store, pairs,
                                                   monkeypatch):
        """A worker that dies on the first task can break the pool before the
        second is even submitted: ``submit`` itself then raises, and that is
        one failed attempt like any other."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class BreaksOnSecondSubmit:
            _processes = {}
            submits = 0

            def submit(self, *args, **kwargs):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("died under submit")
                return Future()   # never completes

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        build = parallel_module._build_worker_executor
        fakes = [BreaksOnSecondSubmit()]
        monkeypatch.setattr(
            parallel_module, "_build_worker_executor",
            lambda *args: fakes.pop() if fakes else build(*args))
        with ScoringWorkers(dense_store, backend="process",
                            num_workers=2) as workers:
            got = _score(workers, pairs)
            assert workers.transport == "process" and workers.respawns == 1
        np.testing.assert_array_equal(got, _expected(dense_store, pairs))

    def test_exhausted_retries_degrade_to_inline(self, dense_store, pairs,
                                                 caplog):
        # every attempt (initial + 1 retry) gets its worker killed
        plan = FaultPlan().kill_worker(call=1, shard=0).kill_worker(call=2,
                                                                    shard=0)
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            with ScoringWorkers(dense_store, backend="process", num_workers=2,
                                max_retries=1, fault_plan=plan) as workers:
                got = _score(workers, pairs)
                assert workers.transport == "inline"
                assert workers._executor is None
                again = _score(workers, pairs)   # and stays there, silently
        np.testing.assert_array_equal(got, _expected(dense_store, pairs))
        np.testing.assert_array_equal(again, got)
        assert sum("degrading to" in record.message
                   for record in caplog.records) == 1

    def test_shutdown_is_idempotent_and_kills_hung_workers(self, dense_store,
                                                           pairs):
        workers = ScoringWorkers(dense_store, backend="process", num_workers=2)
        _score(workers, pairs)
        processes = list(workers._executor._processes.values())
        assert processes
        workers.shutdown()
        workers.shutdown()
        assert workers._executor is None
        assert not any(process.is_alive() for process in processes)


def _io_rows(run):
    return [(r.graph.edge_fingerprint(), r.io_stats.bytes_read,
             r.io_stats.simulated_io_seconds, r.load_unload_operations)
            for r in run.iterations]


class TestEngineDegradation:
    def _config(self, plan=None, **overrides):
        return EngineConfig(k=4, num_partitions=4, backend="process",
                            num_workers=2, seed=5, fault_plan=plan,
                            **overrides)

    @pytest.mark.parametrize("shard_parallel", [False, True],
                             ids=["steps", "waves"])
    def test_persistent_worker_death_degrades_to_serial(self, caplog,
                                                        shard_parallel):
        """Bit-identical results despite the mid-run transport switch — and
        identical I/O accounting: the residency model is the only charger,
        so the steps the inline transport finishes are not read twice."""
        profiles = generate_dense_profiles(240, dim=6, num_communities=3,
                                           seed=31)
        with KNNEngine(profiles, self._config(
                shard_parallel=shard_parallel)) as clean:
            reference = clean.run(2)
        # kill the targeted worker on every attempt of the first execute
        # call: initial + max_retries(3) retries = 4 consecutive failures
        plan = FaultPlan()
        for call in range(1, 5):
            plan.kill_worker(call=call, shard=0)
        with caplog.at_level(logging.WARNING):
            with KNNEngine(profiles, self._config(
                    plan, shard_parallel=shard_parallel)) as engine:
                run = engine.run(2)
                assert engine._iteration_runner.workers.transport == "inline"
        assert _io_rows(run) == _io_rows(reference)
        assert sum("degrading to" in record.message
                   for record in caplog.records) == 1

    def test_single_kill_recovers_without_degrading(self):
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        with KNNEngine(profiles, self._config()) as clean:
            reference = clean.run(2)
        plan = FaultPlan().kill_worker(call=1, shard=1)
        with KNNEngine(profiles, self._config(plan)) as engine:
            run = engine.run(2)
            workers = engine._iteration_runner.workers
            assert workers.transport == "process" and workers.respawns == 1
        assert _io_rows(run) == _io_rows(reference)

    def test_shard_timeout_config_reaches_the_pool(self):
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        config = self._config(shard_timeout_seconds=12.5)
        with KNNEngine(profiles, config) as engine:
            engine.run_iteration()
            workers = engine._iteration_runner.workers
            assert workers._executor is not None
            assert workers._shard_timeout == 12.5

    @pytest.mark.parametrize("shard_parallel", [False, True],
                             ids=["steps", "waves"])
    def test_no_shared_index_segments_leak_after_faulty_runs(self,
                                                             shm_unchanged,
                                                             shard_parallel):
        """A pool worker killed mid-step strands nothing under /dev/shm."""
        profiles = generate_dense_profiles(NUM_USERS, dim=6,
                                           num_communities=3, seed=31)
        plan = FaultPlan().kill_worker(call=1, shard=0)
        with KNNEngine(profiles, self._config(
                plan, shard_parallel=shard_parallel)) as engine:
            engine.run(2)
        assert "worker" in plan.fired_kinds()
