"""Serving runtime semantics: snapshots, admission, deadlines, probes, drain.

The chaos wall (``test_service_chaos.py``) proves the service survives
being killed; this module pins the *contract* of each component — snapshot
view lifetimes, bounded admission with explicit shed reasons, per-request
deadlines, health/readiness probes, graceful drain, and degradation to a
parked-but-serving state when the refresh loop exhausts its restart
budget.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.service import (DeadlineExceeded, ServiceUnavailable,
                           ServingRuntime, SnapshotView)
from repro.service.admission import AdmissionController
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.testing import FaultPlan

NUM_USERS = 60
DIM = 8


def _profiles():
    return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=3,
                                   seed=1)


def _config(**overrides):
    return EngineConfig(k=5, num_partitions=4, seed=7, **overrides)


def _batch(index, size=3):
    rng = np.random.default_rng(200 + index)
    return [ProfileChange(user=int(u), kind="set", vector=rng.random(DIM))
            for u in rng.choice(NUM_USERS, size=size, replace=False)]


def _runtime(workdir, **overrides):
    kwargs = dict(admission_capacity=64, refresh_poll_interval=0.005,
                  backoff_base=0.005, backoff_cap=0.05, max_restarts=10)
    kwargs.update(overrides)
    return ServingRuntime(_profiles(), _config(durable=True),
                          workdir=workdir, **kwargs)


def _await(predicate, timeout=30.0, message="condition"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, f"timed out waiting for {message}"
        time.sleep(0.005)


class TestLifecycleAndQueries:
    def test_ready_from_the_first_moment(self, tmp_path):
        """Epoch 0 (the pre-iteration state) is served before any refresh."""
        with _runtime(tmp_path / "svc") as service:
            health = service.health()
            assert health.live and health.ready
            assert service.current_epoch == 0
            assert len(service.neighbors(3)) == 5

    def test_durable_mode_is_forced_on(self, tmp_path):
        service = ServingRuntime(_profiles(), _config(),  # durable=False
                                 workdir=tmp_path / "svc")
        assert service.config.durable
        service.close()

    def test_query_before_start_is_unavailable(self, tmp_path):
        service = _runtime(tmp_path / "svc")
        with pytest.raises(ServiceUnavailable):
            service.neighbors(0, deadline_seconds=0.05)
        service.close()

    def test_query_after_close_is_unavailable(self, tmp_path):
        service = _runtime(tmp_path / "svc").start()
        service.close()
        with pytest.raises(ServiceUnavailable):
            service.neighbors(0)
        assert not service.health().live

    def test_updates_advance_the_serving_epoch(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            before = service.neighbors(5)
            assert service.submit_updates(_batch(0)).accepted
            _await(lambda: service.current_epoch >= 1
                   and service.pending_updates == 0, message="epoch 1")
            after = service.neighbors(5)
            assert len(after) == 5
            # epoch 0 is a random zero-score graph; one refresh scores it
            assert before != after

    def test_recommend_serves_from_sparse_snapshots(self, tmp_path):
        profiles = generate_sparse_profiles(NUM_USERS, num_items=200,
                                            items_per_user=12, seed=3)
        with ServingRuntime(profiles, _config(durable=True),
                            workdir=tmp_path / "svc",
                            refresh_poll_interval=0.005) as service:
            service.submit_updates([ProfileChange(user=1, kind="add", item=7)])
            _await(lambda: service.current_epoch >= 1
                   and service.pending_updates == 0, message="epoch 1")
            items = service.recommend(1, top_n=4)
            assert len(items) <= 4
            assert all(isinstance(item, int) for item in items)

    def test_recommend_rejects_dense_snapshots(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            with pytest.raises(ValueError, match="sparse"):
                service.recommend(1)


class TestAdmissionControl:
    def test_over_capacity_load_is_shed_with_a_reason(self, tmp_path):
        with _runtime(tmp_path / "svc", admission_capacity=4) as service:
            # wedge the refresh loop so the backlog cannot drain under us
            service.supervisor.stop()
            assert service.submit_updates(_batch(0, size=3)).accepted
            result = service.submit_updates(_batch(1, size=3))
            assert not result.accepted
            assert result.shed_reason == "capacity"
            assert result.pending == 3
            assert result.batch_size == 3
            stats = service.stats()
            assert stats["shed_batches"] == 1
            assert stats["shed_changes"] == 3
            assert stats["accepted_changes"] == 3

    def test_draining_service_sheds_new_work(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            service.stop(drain=True)
            result = service.submit_updates(_batch(0))
            assert not result.accepted
            assert result.shed_reason in ("draining", "closed")
            assert not service.accepting

    def test_batch_larger_than_capacity_is_always_shed(self, tmp_path):
        with _runtime(tmp_path / "svc", admission_capacity=2) as service:
            result = service.submit_updates(_batch(0, size=3))
            assert not result.accepted
            assert result.shed_reason == "capacity"


class TestAdmissionDepthContract:
    """``AdmissionResult.pending`` is an observed post-enqueue depth.

    The old contract reported ``pre-enqueue read + len(batch)`` — an
    extrapolation that overstated the backlog whenever a refresh drain
    slipped between the capacity check and the enqueue.  The deterministic
    test pins the fixed contract at the unit level with a scripted drain
    interleave; the stress test runs concurrent writers against the live
    refresh loop and holds every accepted report to the capacity bound.
    """

    def test_pending_is_not_an_extrapolation_across_a_drain(self):
        queue = []

        def enqueue(batch):
            # a refresh drain interleaves exactly here — after the
            # capacity check, before the append
            queue.clear()
            queue.extend(batch)
            return len(queue)

        controller = AdmissionController(capacity=8, enqueue=enqueue,
                                         pending=lambda: len(queue))
        queue.extend(range(4))  # backlog the capacity check will observe
        batch = _batch(0, size=2)
        result = controller.submit(batch)
        assert result.accepted
        # the drain emptied the queue: the batch left depth 2 behind,
        # not the pre-read extrapolation 4 + 2 = 6
        assert result.pending == 2
        assert result.batch_size == 2

    def test_concurrent_writers_versus_drain_hold_the_bound(self, tmp_path):
        capacity = 16
        with _runtime(tmp_path / "svc",
                      admission_capacity=capacity) as service:
            results = []
            results_lock = threading.Lock()

            def writer(slot):
                for index in range(25):
                    outcome = service.submit_updates(
                        _batch(slot * 100 + index, size=2))
                    with results_lock:
                        results.append(outcome)

            threads = [threading.Thread(target=writer, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            accepted = [r for r in results if r.accepted]
            shed = [r for r in results if not r.accepted]
            assert accepted, "the drain kept up with nothing accepted?"
            for outcome in accepted:
                # observed depth: within capacity, never negative — a
                # drain between append and read may even have consumed
                # the batch itself (pending < batch_size is legal)
                assert 0 <= outcome.pending <= capacity
            for outcome in shed:
                assert outcome.shed_reason == "capacity"
                assert outcome.pending + outcome.batch_size > capacity
            _await(lambda: service.pending_updates == 0,
                   message="final drain")


class TestDeadlines:
    def test_deadline_exceeded_when_no_snapshot_can_be_acquired(self, tmp_path):
        service = _runtime(tmp_path / "svc").start()
        try:
            # simulate "no snapshot yet" by clearing the view under the lock
            with service._view_lock:
                view, service._view = service._view, None
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                service.neighbors(0, deadline_seconds=0.05)
            assert time.monotonic() - started < 5.0
            assert service.stats()["query_failures"] == 1
            with service._view_lock:
                service._view = view
        finally:
            service.close()

    def test_default_deadline_is_used_when_not_overridden(self, tmp_path):
        service = _runtime(tmp_path / "svc",
                           default_deadline_seconds=0.05).start()
        try:
            with service._view_lock:
                service._view = None
            with pytest.raises(DeadlineExceeded):
                service.neighbors(0)
        finally:
            service.close()


class TestSnapshotViews:
    def test_retired_view_survives_until_last_reader_releases(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            with service._view_lock:
                view = service._view
            assert view.acquire()
            service.submit_updates(_batch(0))
            _await(lambda: service.current_epoch >= 1, message="swap")
            # the old view is retired but pinned: its files must still exist
            assert view.directory.is_dir()
            assert view.neighbors(0)  # still readable mid-retirement
            view.release()
            _await(lambda: not view.directory.exists(),
                   message="retired view disposal")
            # the new snapshot is untouched by the old view's disposal
            assert len(service.neighbors(0)) == 5

    def test_snapshot_survives_engine_commit_gc(self, tmp_path):
        """Hard links keep a served epoch alive after the engine prunes it."""
        with _runtime(tmp_path / "svc") as service:
            with service._view_lock:
                epoch0 = service._view
            assert epoch0.acquire()
            try:
                for index in range(3):  # COMMITS_KEPT=2: epoch 0 gets pruned
                    service.submit_updates(_batch(index))
                    _await(lambda i=index: service.current_epoch >= i + 1
                           and service.pending_updates == 0,
                           message=f"epoch {index + 1}")
                engine_epochs = [e for e, _ in service.engine.sealed_epochs()]
                assert 0 not in engine_epochs
                assert epoch0.neighbors(0)  # pruned upstream, readable here
            finally:
                epoch0.release()

    def test_acquire_after_dispose_fails_cleanly(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            with service._view_lock:
                view = service._view
        # close() retired the final view with no readers: it is disposed
        assert not view.acquire()


class TestSnapshotDirectoryLifetimes:
    """The disposal-vs-clone seam: every live view owns a unique directory.

    The refcount state machine itself is sound (every transition happens
    under the view lock and ``_disposed`` latches before the rmtree), but
    two views cloned from the same epoch used to share one
    ``epoch_NNNNN`` path — so a retired view's disposal deleted the files
    a fresh view of the same epoch was serving.  The regression test pins
    the unique-suffix fix deterministically; the stress test hammers the
    acquire/read/release path against a swap-and-retire loop.
    """

    def test_recloning_a_served_epoch_never_shares_its_directory(
            self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            epoch, commit_dir = service.engine.sealed_epochs()[0]
            serving = tmp_path / "standalone_serving"
            first = SnapshotView.from_commit(commit_dir, serving, epoch)
            second = SnapshotView.from_commit(commit_dir, serving, epoch)
            try:
                assert first.directory != second.directory
                first.retire()  # no readers: disposes (rmtree) immediately
                assert not first.directory.exists()
                # pre-fix both views served epoch_00000: the rmtree above
                # deleted the second view's files out from under it
                assert second.directory.is_dir()
                assert second.acquire()
                try:
                    assert second.neighbors(0) is not None
                finally:
                    second.release()
            finally:
                second.retire()

    def test_readers_versus_swap_and_retire_stress(self, tmp_path):
        """Reader threads pin/read/release while a swapper re-clones the
        same epoch and retires the previous view.  A failed acquire is the
        only acceptable race outcome; a read crashing (its files deleted
        mid-flight) is the seam this pins shut."""
        profiles = generate_sparse_profiles(NUM_USERS, num_items=200,
                                            items_per_user=12, seed=3)
        with ServingRuntime(profiles, _config(durable=True),
                            workdir=tmp_path / "svc",
                            refresh_poll_interval=0.005) as service:
            epoch, commit_dir = service.engine.sealed_epochs()[0]
        serving = tmp_path / "stress_serving"
        holder = {"view": SnapshotView.from_commit(commit_dir, serving, epoch)}
        swap_lock = threading.Lock()
        stop = threading.Event()
        errors = []
        reads = [0] * 4

        def reader(slot):
            while not stop.is_set():
                with swap_lock:
                    view = holder["view"]
                if not view.acquire():
                    continue  # the swapper already disposed it: fine
                try:
                    view.recommend(3, top_n=3)  # touches the cloned store
                    reads[slot] += 1
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                finally:
                    view.release()

        def swapper():
            try:
                for _ in range(25):
                    fresh = SnapshotView.from_commit(commit_dir, serving,
                                                     epoch)
                    with swap_lock:
                        old, holder["view"] = holder["view"], fresh
                    old.retire()
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)
            finally:
                stop.set()

        threads = ([threading.Thread(target=reader, args=(slot,))
                    for slot in range(4)]
                   + [threading.Thread(target=swapper)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(reads) > 0
        holder["view"].retire()
        # every clone was retired and read-free: the directory is empty
        assert list(serving.iterdir()) == []


class TestDegradation:
    def test_exhausted_restart_budget_parks_failed_but_keeps_serving(
            self, tmp_path):
        # every refresh attempt dies at its first instruction, forever
        plan = FaultPlan()
        for occurrence in range(1, 40):
            plan.crash_at("iteration.begin", occurrence=occurrence)
        service = ServingRuntime(
            _profiles(), _config(durable=True, fault_plan=plan),
            workdir=tmp_path / "svc", admission_capacity=64,
            refresh_poll_interval=0.005, backoff_base=0.001,
            backoff_cap=0.005, max_restarts=2)
        service.start()
        try:
            service.submit_updates(_batch(0))
            _await(lambda: service.supervisor.state == "failed",
                   message="supervisor parking")
            health = service.health()
            assert health.refresh_state == "failed"
            assert health.last_error is not None
            assert health.live and health.ready  # degraded, not down
            assert len(service.neighbors(9)) == 5  # reads still answered
            service.stop(drain=False)
        finally:
            service.close()

    def test_health_reports_backlog_and_restarts(self, tmp_path):
        plan = FaultPlan().crash_at("service.before_swap", occurrence=1)
        service = ServingRuntime(
            _profiles(), _config(durable=True, fault_plan=plan),
            workdir=tmp_path / "svc", admission_capacity=64,
            refresh_poll_interval=0.005, backoff_base=0.001,
            backoff_cap=0.01, max_restarts=10)
        service.start()
        try:
            service.submit_updates(_batch(0))
            _await(lambda: service.restarts >= 1 and service.current_epoch >= 1,
                   message="recovery")
            health = service.health()
            assert health.restarts >= 1
            assert health.serving_epoch >= 1
            assert health.as_dict()["restarts"] == health.restarts
        finally:
            service.close()


class TestGracefulDrain:
    def test_drain_seals_the_pending_backlog_into_a_final_epoch(self, tmp_path):
        service = _runtime(tmp_path / "svc").start()
        try:
            # freeze the loop so the batch is still pending at stop() time
            service.supervisor.stop()
            assert service.submit_updates(_batch(0)).accepted
            assert service.pending_updates == 3
            service.stop(drain=True)
            assert service.pending_updates == 0
            assert service.engine.latest_sealed_epoch()[0] == 1
            assert not service.accepting
        finally:
            service.close()

    def test_the_graph_served_after_a_drain_reflects_the_last_batch(self, tmp_path):
        """The final refresh applies before it scores: nothing accepted is
        left applied-but-unserved when the service goes down."""
        service = _runtime(tmp_path / "svc").start()
        try:
            service.supervisor.stop()
            anchor = service.neighbors(7)[0][0]
            become_the_anchor = [ProfileChange(user=7, kind="set",
                                               vector=_profiles().get(anchor))]
            assert service.submit_updates(become_the_anchor).accepted
            service.stop(drain=True)
            neighbour, score = service.neighbors(7)[0]
            assert neighbour == anchor and score == pytest.approx(1.0)
        finally:
            service.close()

    def test_stop_without_drain_leaves_the_backlog_in_the_wal(self, tmp_path):
        workdir = tmp_path / "svc"
        service = _runtime(workdir).start()
        service.supervisor.stop()
        assert service.submit_updates(_batch(0)).accepted
        service.stop(drain=False)
        service.close()
        recovered = ServingRuntime.recover(
            workdir, config=_config(durable=True),
            refresh_poll_interval=0.005)
        try:
            _await(lambda: recovered.current_epoch >= 1
                   and recovered.pending_updates == 0,
                   message="replayed backlog")
        finally:
            recovered.close()

    def test_stop_is_idempotent(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            service.stop(drain=True)
            service.stop(drain=True)
            service.stop(drain=False)


class TestRefreshCadence:
    """A refresh serves what was queued when it started; the rest waits."""

    def test_batch_admitted_mid_refresh_gets_a_refresh_of_its_own(
            self, tmp_path, monkeypatch):
        """Admitted right after a refresh's head drain: the batch is still
        queued when that refresh ends, the next refresh serves it, and the
        loop idles after that."""
        with _runtime(tmp_path / "svc") as service:
            engine = service.engine
            iterate, drain = engine.run_iteration, engine.update_queue.drain
            pending, served = [], []

            def drain_then_admit_a_late_batch():
                changes = drain()
                if not pending:
                    late = [ProfileChange(user=7, kind="set",
                                          vector=np.linspace(1.0, 2.0, DIM))]
                    assert service.submit_updates(late).accepted
                return changes

            def iterate_and_watch_the_queue(**order):
                before = service.pending_updates
                served.append(service.neighbors(7))
                result = iterate(**order)
                pending.append((before, service.pending_updates))
                return result

            monkeypatch.setattr(engine.update_queue, "drain",
                                drain_then_admit_a_late_batch)
            monkeypatch.setattr(engine, "run_iteration", iterate_and_watch_the_queue)
            assert service.submit_updates(_batch(0)).accepted
            _await(lambda: service.supervisor.refreshes >= 2, message="follow-up")
            # the late batch outlived the first refresh and fed the second
            assert pending == [(3, 1), (1, 0)]
            assert service.current_epoch == 2
            # epoch 1 was scored before user 7 changed, epoch 2 after
            assert service.neighbors(7) != served[1]
            # and it stops there: the queue is empty
            time.sleep(0.05)
            assert service.supervisor.refreshes == 2

    def test_lockstep_batches_cost_one_refresh_each(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            for index in range(4):
                assert service.submit_updates(_batch(index)).accepted
                _await(lambda: service.current_epoch >= index + 1
                       and service.pending_updates == 0, message="epoch")
                _await(lambda: service.supervisor.state == "idle", message="idle")
            time.sleep(0.05)
            assert service.supervisor.refreshes == 4
            assert service.current_epoch == 4
