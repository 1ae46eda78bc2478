"""Serving runtime semantics: snapshots, admission, deadlines, probes, drain.

The chaos wall (``test_service_chaos.py``) proves the service survives
being killed; this module pins the *contract* of each component — snapshot
views that outlive their pruned epochs, query accounting, bounded admission
with explicit shed reasons, per-request deadlines, health/readiness probes,
graceful drain, and degradation to a parked-but-serving state when the
refresh loop exhausts its restart budget.
"""

from __future__ import annotations

import re
import shutil
import threading
import time

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.service import (DeadlineExceeded, ServiceUnavailable,
                           ServingRuntime, SnapshotView)
from repro.service.admission import AdmissionController
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.testing import FaultPlan, InjectedCrash

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


class TestProbesDoNotWaitForWriters:
    def test_health_and_stats_answer_while_a_submit_waits_on_the_engine(
            self, tmp_path):
        # a submit holds the admission lock across its enqueue, which waits
        # here behind _engine_lock as it would behind a WAL fsync or an
        # engine recovery; the probes must not queue behind it
        with _runtime(tmp_path / "svc") as service:
            outcome, timings = [], {}

            def probe():
                for name in ("health", "stats"):
                    started = time.perf_counter()
                    getattr(service, name)()
                    timings[name] = time.perf_counter() - started

            with service._engine_lock:
                writer = threading.Thread(
                    target=lambda: outcome.append(
                        service.submit_updates(_batch(0))))
                writer.start()
                _await(service._admission._lock.locked,
                       message="the submit to hold the admission lock")
                # probe from a thread: a probe that did wait would wait
                # forever here, since this thread holds _engine_lock
                prober = threading.Thread(target=probe, daemon=True)
                prober.start()
                prober.join(timeout=5)
                assert writer.is_alive()
            writer.join(timeout=30)
            prober.join(timeout=30)
            assert outcome and outcome[0].accepted
            assert set(timings) == {"health", "stats"}
            assert max(timings.values()) < 0.05, timings

    def test_draining_and_stats_answer_while_an_enqueue_is_in_flight(self):
        # the enqueue callback stands in for a slow WAL fsync: the submit
        # holds the admission lock until it is released
        in_enqueue, release = threading.Event(), threading.Event()

        def enqueue(batch):
            in_enqueue.set()
            release.wait(timeout=30)
            return len(batch)

        controller = AdmissionController(capacity=8, enqueue=enqueue,
                                         pending=lambda: 0)
        outcome = []
        writer = threading.Thread(
            target=lambda: outcome.append(controller.submit(_batch(0))))
        writer.start()
        try:
            assert in_enqueue.wait(timeout=30)
            started = time.perf_counter()
            draining = controller.draining
            stats = controller.stats()
            elapsed = time.perf_counter() - started
        finally:
            release.set()
            writer.join(timeout=30)
        assert elapsed < 0.05, elapsed
        assert draining is False
        # the in-flight batch is not counted until its enqueue returns
        assert stats["accepted_batches"] == 0
        assert outcome and outcome[0].accepted
        assert controller.stats()["accepted_batches"] == 1

    def test_counters_add_up_under_concurrent_submits_and_sheds(self):
        queue = []
        queue_lock = threading.Lock()

        def enqueue(batch):
            with queue_lock:
                queue.extend(batch)
                return len(queue)

        def drain_some():
            with queue_lock:
                del queue[:2]

        controller = AdmissionController(capacity=6, enqueue=enqueue,
                                         pending=lambda: len(queue))
        results = []
        results_lock = threading.Lock()

        def writer(slot):
            for index in range(40):
                outcome = controller.submit(_batch(slot * 100 + index,
                                                   size=1 + index % 3))
                with results_lock:
                    results.append(outcome)
                if index % 4 == 0:
                    drain_some()

        threads = [threading.Thread(target=writer, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        stats = controller.stats()
        accepted = [r for r in results if r.accepted]
        shed = [r for r in results if not r.accepted]
        assert accepted and shed, "the mix exercised only one path"
        assert stats["accepted_batches"] == len(accepted)
        assert stats["shed_batches"] == len(shed)
        assert stats["accepted_batches"] + stats["shed_batches"] == 160
        assert stats["accepted_changes"] == sum(r.batch_size for r in accepted)
        assert stats["shed_changes"] == sum(r.batch_size for r in shed)


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


def _sparse_runtime(workdir, **overrides):
    profiles = generate_sparse_profiles(NUM_USERS, num_items=200,
                                        items_per_user=12, seed=3)
    return ServingRuntime(profiles, _config(durable=True), workdir=workdir,
                          refresh_poll_interval=0.005, **overrides)


def _sparse_batch(index, size=3):
    rng = np.random.default_rng(300 + index)
    return [ProfileChange(user=int(u), kind="add",
                          item=int(rng.integers(0, 200)))
            for u in rng.choice(NUM_USERS, size=size, replace=False)]


class TestSnapshotViews:
    """A view reads its sealed epoch where it lies: it maps the profile
    files when built, so it answers after the engine prunes the epoch."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_a_held_view_answers_after_its_epoch_is_pruned(self, kind,
                                                           tmp_path):
        make, batch = ((_runtime, _batch) if kind == "dense"
                       else (_sparse_runtime, _sparse_batch))
        with make(tmp_path / "svc") as service:
            with service._view_lock:
                held = service._view
            users = range(NUM_USERS)
            neighbors = [held.neighbors(user) for user in users]
            if kind == "sparse":
                recommended = [held.recommend(user, top_n=4) for user in users]
            for index in range(3):  # COMMITS_KEPT=2: epoch 0 gets pruned
                service.submit_updates(batch(index))
                _await(lambda i=index: service.current_epoch >= i + 1
                       and service.pending_updates == 0,
                       message=f"epoch {index + 1}")
            assert 0 not in [e for e, _ in service.engine.sealed_epochs()]
            assert not service.engine.epoch_dir(held.epoch).exists()
            assert [held.neighbors(user) for user in users] == neighbors
            if kind == "sparse":
                assert [held.recommend(user, top_n=4)
                        for user in users] == recommended
            assert not (tmp_path / "svc" / "serving").exists()

    def test_a_sparse_view_recommends_after_its_directory_is_removed(
            self, tmp_path):
        with _sparse_runtime(tmp_path / "svc") as service:
            epoch, commit_dir = service.engine.sealed_epochs()[-1]
        # no graph in hand: the view reads it from the epoch directory
        view = SnapshotView.from_commit(commit_dir, epoch)
        unread = SnapshotView.from_commit(commit_dir, epoch)
        before = [view.recommend(user, top_n=5) for user in range(NUM_USERS)]
        assert any(before)
        shutil.rmtree(commit_dir)
        for served in (view, unread):   # read before the removal, and not
            assert [served.recommend(user, top_n=5)
                    for user in range(NUM_USERS)] == before

    def test_unsealed_epochs_are_refused(self, tmp_path):
        """Durable before visible: an epoch is served only once sealed and
        renamed into place."""
        plan = FaultPlan().crash_at("commit.before_rename", occurrence=2)
        engine = KNNEngine(_profiles(), _config(durable=True, fault_plan=plan),
                           workdir=tmp_path / "engine")
        try:
            engine.ensure_initial_commit()
            with pytest.raises(InjectedCrash):
                engine.run_iteration()
            unrenamed = engine.commits_dir / "epoch_00001.tmp"
            assert (unrenamed / "checksums.json").is_file()
            with pytest.raises(ValueError, match=re.escape(str(unrenamed))):
                SnapshotView.from_commit(unrenamed, 1)
            sealed = engine.epoch_dir(0)
            (sealed / "checksums.json").unlink()
            with pytest.raises(ValueError, match=re.escape(str(sealed))):
                SnapshotView.from_commit(sealed, 0)
        finally:
            engine.close()

    def test_readers_versus_publish_and_prune_stress(self, tmp_path):
        """Four readers recommend from the current view and from the first
        view they took, while a swapper publishes a view of every new epoch
        and the engine prunes the old ones: no read fails or changes."""
        engine = KNNEngine(
            generate_sparse_profiles(NUM_USERS, num_items=200,
                                     items_per_user=12, seed=3),
            _config(durable=True), workdir=tmp_path / "engine")

        def publish():
            epoch = engine.iterations_run
            return SnapshotView.from_commit(engine.epoch_dir(epoch), epoch,
                                            graph=engine.graph)

        engine.ensure_initial_commit()
        holder = {"view": publish()}
        first = holder["view"]
        expected = {user: first.recommend(user, top_n=3) for user in range(8)}
        stop = threading.Event()
        errors = []
        reads = [0] * 4

        def reader(slot):
            try:
                while not stop.is_set():
                    for user in range(8):
                        holder["view"].recommend(user, top_n=3)
                        assert first.recommend(user, top_n=3) == expected[user]
                        reads[slot] += 1
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        def swapper():
            try:
                for index in range(12):
                    engine.enqueue_profile_changes(_sparse_batch(index))
                    engine.run_iteration(updates_first=True)
                    holder["view"] = publish()
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)
            finally:
                stop.set()

        threads = ([threading.Thread(target=reader, args=(slot,))
                    for slot in range(4)]
                   + [threading.Thread(target=swapper)])
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert all(reads)
            assert holder["view"].epoch == 12
            assert [e for e, _ in engine.sealed_epochs()] == [11, 12]
            # the first view's epoch is long pruned, and it still answers
            assert not engine.epoch_dir(first.epoch).exists()
            assert {user: first.recommend(user, top_n=3)
                    for user in range(8)} == expected
        finally:
            stop.set()
            engine.close()


class TestQueryAccounting:
    def test_every_query_is_counted_once_served_or_failed(self, tmp_path):
        with _runtime(tmp_path / "svc") as service:
            calls = [lambda: service.neighbors(10 ** 6),
                     lambda: service.neighbors(-1),
                     lambda: service.recommend(0),   # dense: no items
                     lambda: service.neighbors(0),
                     lambda: service.neighbors(NUM_USERS - 1)]
            failed = 0
            for call in calls:
                try:
                    call()
                except (IndexError, ValueError):
                    failed += 1
            stats = service.stats()
            assert failed == 3
            assert stats["query_failures"] == failed
            assert stats["queries_served"] + stats["query_failures"] == len(calls)


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
