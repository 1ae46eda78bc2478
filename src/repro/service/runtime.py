"""The always-on serving runtime: queries, ingestion and refresh in one box.

:class:`ServingRuntime` turns the batch :class:`KNNEngine` into a
long-lived service with three separated threads of control:

* **query path** (caller threads) — :meth:`neighbors` / :meth:`recommend`
  read an immutable :class:`SnapshotView` of the last committed epoch.
  Reads are snapshot-isolated: they never touch the engine's working
  state, never block on the in-flight iteration, and honour a per-request
  deadline (:class:`DeadlineExceeded` instead of unbounded waiting).
* **ingestion path** (caller threads) — :meth:`submit_updates` routes
  profile changes through a bounded :class:`AdmissionController` into the
  engine's durable WAL-backed update queue.  Over-capacity load is shed
  with an explicit backpressure result, never queued unboundedly.
* **background refresh** (one supervised thread) — the
  :class:`RefreshSupervisor` drains and applies the pending updates, scores
  what it applied, seals the epoch and atomically swaps the serving
  snapshot, so an accepted update is served one refresh later; on any
  crash it recovers the engine via :meth:`KNNEngine.recover` with capped
  backoff while queries keep being served from the last good snapshot.

Durability is not optional: the runtime forces ``durable=True`` so every
accepted update is fsynced to the WAL before the client sees
``accepted=True``, and every served graph/profile pair is a sealed,
checksummed epoch.  ``ServingRuntime.recover(workdir)`` restarts the whole
service after a process death from that durable state alone.

See ``docs/serving.md`` for the architecture and degradation modes.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.service.admission import AdmissionController, AdmissionResult
from repro.service.health import HealthStatus, build_health
from repro.service.snapshot import SnapshotView
from repro.service.supervisor import RefreshSupervisor
from repro.similarity.workloads import ProfileChange
from repro.testing.faults import fault_point


class ServiceUnavailable(RuntimeError):
    """The runtime cannot answer: not started, closed, or no snapshot yet."""


class DeadlineExceeded(TimeoutError):
    """A per-request deadline expired before the query could be served."""


class ServingRuntime:
    """Long-lived serving facade over one durable :class:`KNNEngine`.

    Usage::

        with ServingRuntime(profiles, config, workdir=path) as service:
            service.submit_updates(changes)      # ingestion (bounded)
            service.neighbors(user_id)           # query (snapshot-isolated)
            service.health()                     # probes

    ``start()`` seals epoch 0 (the pre-iteration state) and swaps in the
    first snapshot before the refresh loop even starts, so the service is
    *ready* from the first moment — serving ``G(0)`` beats serving
    nothing.  ``stop(drain=True)`` stops admitting, joins the loop and
    flushes the WAL with a final refresh, which serves what it applies.
    """

    def __init__(self, profiles=None, config: Optional[EngineConfig] = None,
                 workdir: Optional[Union[str, Path]] = None, *,
                 admission_capacity: int = 4096,
                 default_deadline_seconds: Optional[float] = 1.0,
                 refresh_poll_interval: float = 0.05,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 max_restarts: int = 5):
        base = config if config is not None else EngineConfig()
        if not base.durable:
            # the serving contract (WAL-durable admission, sealed epochs to
            # snapshot from, crash recovery) only exists in durable mode
            base = base.with_overrides(durable=True)
        self._config = base
        self._profiles = profiles
        self._owns_workdir = workdir is None
        self._workdir = (Path(workdir) if workdir is not None
                         else Path(tempfile.mkdtemp(prefix="repro-serve-")))
        self._engine_dir = self._workdir / "engine"
        self._serving_dir = self._workdir / "serving"
        self._engine: Optional[KNNEngine] = None
        self._recovered_engine: Optional[KNNEngine] = None
        self._engine_lock = threading.Lock()
        self._view: Optional[SnapshotView] = None
        self._view_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._queries_served = 0
        self._query_failures = 0
        self._swaps = 0
        self._refresh_failures: List[str] = []
        self._default_deadline = default_deadline_seconds
        self._started = False
        self._stopped = False
        self._closed = False
        self._admission = AdmissionController(
            admission_capacity, self._enqueue_changes,
            lambda: self.pending_updates, fault_plan=self.fault_plan)
        self._supervisor: Optional[RefreshSupervisor] = RefreshSupervisor(
            self, poll_interval=refresh_poll_interval,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
            max_restarts=max_restarts)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingRuntime":
        """Build the engine, seal+serve epoch 0, start the refresh loop."""
        if self._started:
            raise RuntimeError("ServingRuntime.start() called twice")
        self._started = True
        # stale snapshot clones from a previous (crashed) process serve
        # nobody — every live view belongs to this process
        shutil.rmtree(self._serving_dir, ignore_errors=True)
        self._serving_dir.mkdir(parents=True, exist_ok=True)
        if self._recovered_engine is not None:
            self._engine = self._recovered_engine
        else:
            self._engine = KNNEngine(self._profiles, self._config,
                                     workdir=self._engine_dir)
        self._engine.ensure_initial_commit()
        sealed = self._engine.latest_sealed_epoch()
        assert sealed is not None
        epoch, epoch_dir = sealed
        self._swap_snapshot(
            SnapshotView.from_commit(epoch_dir, self._serving_dir, epoch))
        self._supervisor.start()
        return self

    @classmethod
    def recover(cls, workdir: Union[str, Path],
                config: Optional[EngineConfig] = None,
                **kwargs) -> "ServingRuntime":
        """Restart a service after a process death, from durable state only.

        Recovers the engine (:meth:`KNNEngine.recover`: newest verifiable
        epoch + WAL-tail replay), swaps in a snapshot of that epoch and
        resumes serving.  Pass the crashed service's ``config`` to keep a
        live fault plan attached (the sealed manifest cannot carry one).
        """
        workdir = Path(workdir)
        engine = KNNEngine.recover(workdir / "engine", config=config)
        runtime = cls(profiles=None, config=engine.config, workdir=workdir,
                      **kwargs)
        runtime._recovered_engine = engine
        return runtime.start()

    def __enter__(self) -> "ServingRuntime":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the refresh loop; with ``drain``, flush pending work first.

        Graceful drain: close admission (new submits shed as
        ``draining``), stop the background loop, then — if updates are
        still pending and the supervisor is not parked failed — run one
        final synchronous refresh so the WAL is flushed into a sealed
        epoch and nothing accepted is left unapplied or unserved.  May raise
        if the final seal crashes (an injected ``service.drain`` crash models
        the process dying mid-shutdown; :meth:`recover` picks up from there).
        """
        if self._stopped or not self._started:
            self._stopped = True
            self._admission.close()
            return
        self._stopped = True
        if drain:
            self._admission.start_drain()
            fault_point(self.fault_plan, "service.drain")
            self._supervisor.stop(timeout=timeout)
            if self.pending_updates > 0 and self._supervisor.state != "failed":
                self._supervisor.run_one_refresh()
        else:
            self._supervisor.stop(timeout=timeout)
        self._admission.close()

    def close(self) -> None:
        """Release everything; queries fail with :class:`ServiceUnavailable`."""
        if self._closed:
            return
        if not self._stopped:
            try:
                self.stop(drain=False)
            except Exception:  # pragma: no cover — close() must not raise
                pass
        self._closed = True
        with self._view_lock:
            view, self._view = self._view, None
        if view is not None:
            view.retire()
        with self._engine_lock:
            engine, self._engine = self._engine, None
        if engine is not None:
            engine.close()
        if self._owns_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    # -- ingestion path ------------------------------------------------------

    def submit_updates(self,
                       changes: Sequence[ProfileChange]) -> AdmissionResult:
        """Admit (durably WAL) or shed a batch of profile changes."""
        if not self._started:
            raise ServiceUnavailable("submit_updates before start()")
        return self._admission.submit(changes)

    def _enqueue_changes(self, batch: Sequence[ProfileChange]) -> int:
        # under the engine lock: the supervisor replaces the engine (and
        # with it the WAL-owning queue) during recovery, and an enqueue
        # interleaved with that replacement could write colliding
        # sequence numbers into the WAL
        with self._engine_lock:
            engine = self._engine
            if engine is None:
                raise ServiceUnavailable("service is closed")
            # repro: allow[lock-discipline] durability-before-accepted: the WAL fsync must complete before submit() returns ACCEPTED, and it must be ordered against engine replacement; queries take _view_lock (never _engine_lock), so readers do not stall behind this hold
            engine.enqueue_profile_changes(batch)
            # the admission contract wants the queue depth *after* this
            # append.  Refresh drains do NOT take the engine lock (the
            # queue serialises enqueue/drain/len on its own lock), so a
            # drain may slip between the append and this read — but a
            # drain only *removes* work, so the value below is a real
            # observed post-enqueue depth that never overstates the
            # backlog, unlike the old pre-enqueue ``pending + len(batch)``
            # extrapolation
            depth_after = len(engine.update_queue)
        self._supervisor.kick()
        return depth_after

    # -- query path ----------------------------------------------------------

    def _acquire_view(self, deadline_seconds: Optional[float]) -> SnapshotView:
        timeout = (self._default_deadline if deadline_seconds is None
                   else deadline_seconds)
        deadline_at = (time.monotonic() + timeout) if timeout is not None else None
        while True:
            if self._closed:
                self._count_failure()
                raise ServiceUnavailable("service is closed")
            with self._view_lock:
                view = self._view
            # acquire() can lose a race with a concurrent swap+retire that
            # disposed this view; loop and pick up the replacement
            if view is not None and view.acquire():
                return view
            if view is None and not self._started:
                self._count_failure()
                raise ServiceUnavailable("service not started")
            if deadline_at is not None and time.monotonic() >= deadline_at:
                self._count_failure()
                raise DeadlineExceeded(
                    f"no serving snapshot within {timeout}s")
            time.sleep(0.001)

    def neighbors(self, user: int,
                  deadline_seconds: Optional[float] = None
                  ) -> List[Tuple[int, float]]:
        """The user's current KNN ``(neighbor, score)`` from the snapshot."""
        view = self._acquire_view(deadline_seconds)
        try:
            result = view.neighbors(user)
        finally:
            view.release()
        self._count_served()
        return result

    def recommend(self, user: int, top_n: int = 5,
                  deadline_seconds: Optional[float] = None) -> List[int]:
        """Top-N item recommendations from the snapshot (sparse profiles)."""
        view = self._acquire_view(deadline_seconds)
        try:
            result = view.recommend(user, top_n=top_n)
        finally:
            view.release()
        self._count_served()
        return result

    # -- snapshot swap (supervisor-facing) -----------------------------------

    def _swap_snapshot(self, view: SnapshotView) -> None:
        with self._view_lock:
            old, self._view = self._view, view
        if old is not None:
            old.retire()
        with self._stats_lock:
            self._swaps += 1

    def _replace_engine_via_recovery(self) -> None:
        """Abandon the broken engine and rebuild it from durable state."""
        with self._engine_lock:
            old = self._engine
            if old is not None:
                try:
                    old.close()
                except Exception:  # noqa: BLE001 — the engine is already broken
                    pass
            # repro: allow[lock-discipline] recovery path: the engine is already broken, so holding _engine_lock across the rebuild is the point — writers must queue behind recovery, and queries are served from the last committed snapshot via _view_lock meanwhile
            self._engine = KNNEngine.recover(self._engine_dir,
                                             config=self._config)

    def _record_refresh_failure(self, trace: str) -> None:
        with self._stats_lock:
            self._refresh_failures.append(trace)
            del self._refresh_failures[:-20]  # keep the recent tail only

    # -- observability -------------------------------------------------------

    @property
    def engine(self) -> KNNEngine:
        engine = self._engine
        if engine is None:
            raise ServiceUnavailable("service has no engine (closed?)")
        return engine

    @property
    def supervisor(self) -> Optional[RefreshSupervisor]:
        return self._supervisor

    @property
    def fault_plan(self):
        return self._config.fault_plan

    @property
    def workdir(self) -> Path:
        return self._workdir

    @property
    def serving_dir(self) -> Path:
        return self._serving_dir

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def ready(self) -> bool:
        """A snapshot is swapped in and queries can be answered."""
        with self._view_lock:
            return self._view is not None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def accepting(self) -> bool:
        """Whether the admission controller accepts new update batches."""
        return self._started and not self._admission.draining

    @property
    def current_epoch(self) -> int:
        """Epoch of the snapshot answering queries right now (-1 if none)."""
        with self._view_lock:
            return self._view.epoch if self._view is not None else -1

    @property
    def pending_updates(self) -> int:
        """Accepted-but-unapplied changes (the admission/backpressure gauge)."""
        engine = self._engine
        return len(engine.update_queue) if engine is not None else 0

    @property
    def refresh_in_flight(self) -> bool:
        return self._supervisor.refresh_in_flight

    @property
    def restarts(self) -> int:
        return self._supervisor.restarts

    def health(self) -> HealthStatus:
        """One consistent liveness/readiness/degradation sample."""
        return build_health(self)

    def _count_served(self) -> None:
        with self._stats_lock:
            self._queries_served += 1

    def _count_failure(self) -> None:
        with self._stats_lock:
            self._query_failures += 1

    def stats(self) -> dict:
        """Counters for dashboards and the serving benchmark."""
        with self._stats_lock:
            counters = {
                "queries_served": self._queries_served,
                "query_failures": self._query_failures,
                "snapshot_swaps": self._swaps,
            }
        counters.update(self._admission.stats())
        counters.update({
            "refreshes": self._supervisor.refreshes,
            "restarts": self._supervisor.restarts,
            "serving_epoch": self.current_epoch,
            "pending_updates": self.pending_updates,
        })
        return counters
