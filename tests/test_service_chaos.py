"""The service chaos wall: crash the refresh loop everywhere, serve anyway.

The serving runtime's contract is *graceful degradation, never an outage*:
whatever kills the background refresh — an injected crash at any named
point, a hung scoring worker, a torn WAL tail, the process dying mid-drain
— queries keep being answered from the last committed snapshot with zero
failed vouched reads, the loop recovers automatically, and once the dust
settles the final graph and profile bytes match a never-crashed twin
bit-for-bit (no update lost, none applied twice).

Lockstep driver: each update batch is submitted (retried while shed),
then the test waits until the serving epoch has advanced past the batch
and the backlog is empty, and issues a *vouched read* that must succeed.
That makes the service's epoch sequence identical to the twin's iteration
sequence, so bitwise parity is a meaningful assertion rather than a
statistical one.

CI treats this module as must-run: the workflow fails if it is skipped or
deselected (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import fork_available
from repro.service import ServingRuntime
from repro.similarity.workloads import ProfileChange, generate_dense_profiles
from repro.testing import FaultPlan, InjectedCrash

NUM_USERS = 60
DIM = 8
NUM_BATCHES = 4

#: Crash points reached by the *refresh loop* (supervised thread): every
#: engine-level point an iteration+commit passes through, plus the two
#: service-level points bracketing the snapshot swap.  ``wal.appended``
#: and ``service.admission`` fire in the client thread instead and get
#: their own process-death test below.
REFRESH_CRASH_POINTS = [
    "iteration.begin",
    "phase4.step",
    "phase4.done",
    "phase5.before_apply",
    "store.dense_rows_written",
    "commit.before_rename",
    "commit.committed",
    "commit.before_wal_truncate",
    "service.before_swap",
    "service.after_swap",
]

#: Points safe for the seeded random soak: they are only ever reached from
#: inside a refresh cycle, so any occurrence lands in supervised code
#: (``commit.*`` occurrence 1 would fire during ``start()``'s initial
#: epoch-0 seal, outside the supervisor).
SOAK_CRASH_POINTS = [
    "iteration.begin",
    "phase4.step",
    "phase4.done",
    "phase5.before_apply",
    "service.before_swap",
    "service.after_swap",
]


def _profiles():
    return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=3,
                                   seed=1)


def _config(**overrides):
    return EngineConfig(k=5, num_partitions=4, seed=7, **overrides)


def _batch(index):
    """Deterministic update batch ``index`` (same stream for twin and service)."""
    rng = np.random.default_rng(100 + index)
    return [ProfileChange(user=int(u), kind="set", vector=rng.random(DIM))
            for u in rng.choice(NUM_USERS, size=3, replace=False)]


def _runtime(workdir, plan=None, **overrides):
    return ServingRuntime(
        _profiles(), _config(durable=True, fault_plan=plan), workdir=workdir,
        admission_capacity=64, refresh_poll_interval=0.005,
        backoff_base=0.005, backoff_cap=0.05, max_restarts=25, **overrides)


def _submit_until_accepted(runtime, batch, timeout=60.0):
    deadline = time.time() + timeout
    while True:
        result = runtime.submit_updates(batch)
        if result.accepted:
            return
        assert time.time() < deadline, f"batch kept being shed: {result}"
        time.sleep(0.01)


def _await_epoch(runtime, epoch, timeout=60.0):
    deadline = time.time() + timeout
    while not (runtime.current_epoch >= epoch
               and runtime.pending_updates == 0):
        assert time.time() < deadline, (
            f"epoch {epoch} never served: epoch={runtime.current_epoch} "
            f"pending={runtime.pending_updates} "
            f"state={runtime.supervisor.state} "
            f"error={runtime.supervisor.last_error}")
        time.sleep(0.005)


def _drive_lockstep(runtime, num_batches, first_batch=0):
    """Submit each batch, wait for its epoch, take one vouched read."""
    for index in range(first_batch, num_batches):
        _submit_until_accepted(runtime, _batch(index))
        _await_epoch(runtime, index + 1)
        # the vouched read: must succeed whatever the refresh loop is doing
        assert len(runtime.neighbors(index % NUM_USERS,
                                     deadline_seconds=10.0)) == 5


def _final_state(runtime):
    engine = runtime.engine
    dense = (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    return engine.graph.edge_fingerprint(), dense


@pytest.fixture(scope="module")
def twin():
    """Fingerprint + profile bytes of a never-crashed lockstep twin, in the
    refresh's order: each batch applied, then scored."""
    with KNNEngine(_profiles(), _config()) as engine:
        for index in range(NUM_BATCHES):
            engine.enqueue_profile_changes(_batch(index))
            engine.run_iteration(updates_first=True)
        fingerprint = engine.graph.edge_fingerprint()
        dense = (engine.profile_store.base_dir
                 / "profiles_dense.bin").read_bytes()
    return fingerprint, dense


@pytest.mark.parametrize("point", REFRESH_CRASH_POINTS)
def test_refresh_crash_recovers_without_an_outage(point, tmp_path, twin,
                                                  shm_unchanged):
    """Kill the refresh loop at ``point``; serving must never notice."""
    plan = FaultPlan().crash_at(point, occurrence=2)
    runtime = _runtime(tmp_path / "svc", plan=plan)
    runtime.start()
    try:
        _drive_lockstep(runtime, NUM_BATCHES)
        assert "crash" in plan.fired_kinds(), "the scheduled crash never fired"
        assert runtime.restarts >= 1
        assert runtime.stats()["query_failures"] == 0
        runtime.stop(drain=True)
        fingerprint, dense = _final_state(runtime)
        assert (fingerprint, dense) == twin
    finally:
        runtime.close()


def test_admission_crash_is_a_recoverable_process_death(tmp_path, twin):
    """A crash on the ingestion path loses nothing that was acknowledged."""
    plan = FaultPlan().crash_at("service.admission", occurrence=2)
    workdir = tmp_path / "svc"
    runtime = _runtime(workdir, plan=plan)
    runtime.start()
    _drive_lockstep(runtime, 1)
    # the second batch dies mid-admission, before its WAL append: the
    # client never saw accepted=True, so nothing of it may survive
    with pytest.raises(InjectedCrash):
        runtime.submit_updates(_batch(1))
    runtime.close()  # the "dead" process releases its handles

    recovered = ServingRuntime.recover(
        workdir, config=_config(durable=True), refresh_poll_interval=0.005,
        backoff_base=0.005, backoff_cap=0.05)
    try:
        assert recovered.current_epoch == 1
        assert recovered.pending_updates == 0  # the half-admitted batch is gone
        _drive_lockstep(recovered, NUM_BATCHES, first_batch=1)
        recovered.stop(drain=True)
        assert _final_state(recovered) == twin
    finally:
        recovered.close()


def test_torn_wal_tail_is_detected_and_exactly_once(tmp_path, twin):
    """Dying mid-WAL-append leaves a torn record; recovery must stop at it."""
    workdir = tmp_path / "svc"
    runtime = _runtime(workdir)
    runtime.start()
    _drive_lockstep(runtime, 2)
    # wedge the refresh loop (the scheduler half of the process is "dead")
    # so the next batch stays in the WAL tail, then tear its first record
    runtime.supervisor.stop()
    wal_path = runtime.engine.update_queue.wal_path
    intact_bytes = wal_path.stat().st_size
    assert runtime.submit_updates(_batch(2)).accepted
    assert wal_path.stat().st_size > intact_bytes
    with open(wal_path, "r+b") as handle:
        handle.truncate(intact_bytes + 5)  # mid-header of the first record
    runtime.close()

    recovered = ServingRuntime.recover(
        workdir, config=_config(durable=True), refresh_poll_interval=0.005,
        backoff_base=0.005, backoff_cap=0.05)
    try:
        # the tear swallowed the whole unacknowledged batch — resubmitting
        # it is therefore exactly-once, not at-least-once
        assert recovered.current_epoch == 2
        assert recovered.pending_updates == 0
        _drive_lockstep(recovered, NUM_BATCHES, first_batch=2)
        recovered.stop(drain=True)
        assert _final_state(recovered) == twin
    finally:
        recovered.close()


def test_drain_crash_recovers_with_nothing_lost(tmp_path, twin):
    """Dying mid-graceful-shutdown must not lose the pending backlog."""
    plan = FaultPlan().crash_at("service.drain", occurrence=1)
    workdir = tmp_path / "svc"
    runtime = _runtime(workdir, plan=plan)
    runtime.start()
    _drive_lockstep(runtime, NUM_BATCHES - 1)
    # freeze the loop, leave the final batch pending, die during stop()
    runtime.supervisor.stop()
    assert runtime.submit_updates(_batch(NUM_BATCHES - 1)).accepted
    with pytest.raises(InjectedCrash):
        runtime.stop(drain=True)
    runtime.close()

    recovered = ServingRuntime.recover(
        workdir, config=_config(durable=True), refresh_poll_interval=0.005,
        backoff_base=0.005, backoff_cap=0.05)
    try:
        # the accepted batch survived in the WAL and replays automatically
        _await_epoch(recovered, NUM_BATCHES)
        recovered.stop(drain=True)
        assert _final_state(recovered) == twin
    finally:
        recovered.close()


def test_hung_worker_stalls_one_refresh_not_the_service(tmp_path, twin,
                                                        shm_unchanged):
    """A worker hang inside phase 4 must stay invisible to the query path."""
    if not fork_available():
        pytest.skip("process backend needs fork")
    plan = FaultPlan().hang_worker(call=1, shard=0, seconds=60.0)
    runtime = ServingRuntime(
        _profiles(),
        _config(durable=True, fault_plan=plan, backend="process",
                num_workers=2, shard_timeout_seconds=0.5),
        workdir=tmp_path / "svc", admission_capacity=64,
        refresh_poll_interval=0.005, backoff_base=0.005, backoff_cap=0.05,
        max_restarts=25)
    runtime.start()
    try:
        _drive_lockstep(runtime, NUM_BATCHES)
        assert ("worker", "hang@call1/shard0") in plan.fired
        assert runtime.stats()["query_failures"] == 0
        runtime.stop(drain=True)
        assert _final_state(runtime) == twin
    finally:
        runtime.close()


def test_seeded_crash_soak_serves_through_every_failure(tmp_path, twin):
    """Random (seeded) crash schedule under concurrent readers: zero failed
    reads while ready, automatic recovery, bitwise parity at the end."""
    plan = FaultPlan(seed=23).crash_at_random(SOAK_CRASH_POINTS, count=3,
                                              max_occurrence=3)
    runtime = _runtime(tmp_path / "svc", plan=plan)
    runtime.start()
    stop = threading.Event()
    failures = []

    def reader(offset):
        index = offset
        while not stop.is_set():
            try:
                runtime.neighbors(index % NUM_USERS, deadline_seconds=30.0)
            except Exception as exc:  # noqa: BLE001 — any failed read is a bug
                failures.append(repr(exc))
                return
            index += 7
            time.sleep(0.001)

    threads = [threading.Thread(target=reader, args=(offset,), daemon=True)
               for offset in (0, 3)]
    for thread in threads:
        thread.start()
    try:
        _drive_lockstep(runtime, NUM_BATCHES)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    assert failures == []
    assert plan.fired_kinds().count("crash") >= 1
    assert runtime.restarts >= 1
    assert runtime.stats()["query_failures"] == 0
    runtime.stop(drain=True)
    try:
        assert _final_state(runtime) == twin
    finally:
        runtime.close()
