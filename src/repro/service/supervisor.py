"""Supervised background refresh: apply, score, seal, swap — and survive.

The :class:`RefreshSupervisor` owns the service's single background thread.
Each refresh cycle it runs one dirty-scheduled engine iteration in the
serving order — drain the update queue, apply, score what was applied, seal
a commit epoch — wraps the sealed epoch, read in place, in a fresh
:class:`~repro.service.snapshot.SnapshotView` around the graph it still holds
in memory, hands the view to the runtime's atomic swap callback, and only
then collects the epochs and WAL the seal superseded.

A refresh starts whenever updates are pending, and serves everything that
was pending when it started.  A batch admitted while it runs stays queued
and gets the next refresh.  A refresh that leaves the queue empty makes the
next one's graph-only front (:meth:`KNNEngine.prepare_front`) before the
loop waits, so an update waits for phase 5, phase 4 and the seal only.

Robustness contract (the reason this is a *supervisor* and not a plain
loop): any exception out of a cycle — an injected crash point, a real I/O
error, a poisoned worker — is treated as a crash of the refresh path
**only**.  The supervisor abandons the broken engine, waits out a capped
exponential backoff, and rebuilds the engine with
:meth:`KNNEngine.recover` from the durable state (sealed epochs + WAL
tail).  Queries keep being answered from the last swapped snapshot the
whole time; after ``max_restarts`` consecutive failures the supervisor
parks in ``failed`` state — still degrading gracefully, never taking the
query path down with it.
"""

from __future__ import annotations

import threading
import traceback
from typing import Optional

from repro.testing.faults import fault_point


class RefreshSupervisor:
    """Runs and babysits the background refresh loop of a serving runtime.

    Parameters
    ----------
    runtime:
        The owning :class:`~repro.service.runtime.ServingRuntime`; the
        supervisor calls back into it for the engine handle
        (``runtime._engine`` under ``runtime._engine_lock``) and the
        snapshot swap of the engine's epoch
        (``runtime._publish_engine_epoch``).
    poll_interval:
        How often the loop checks for pending updates when idle.
    backoff_base / backoff_cap:
        Exponential-backoff schedule between recovery attempts:
        ``min(backoff_base * 2**(failures-1), backoff_cap)`` seconds.
    max_restarts:
        Consecutive-failure budget before the supervisor gives up and
        parks in ``failed`` state (queries continue regardless).  A
        successful cycle resets the counter.
    """

    def __init__(self, runtime, poll_interval: float = 0.05,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 max_restarts: int = 5):
        self._runtime = runtime
        self._poll_interval = float(poll_interval)
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._max_restarts = int(max_restarts)
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._wake_event = threading.Event()
        self._state_lock = threading.Lock()
        self._state = "idle"          # idle | refreshing | recovering | failed | stopped
        self._restarts = 0            # total successful recoveries
        self._consecutive_failures = 0
        self._refreshes = 0
        self._last_error: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="refresh-loop",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        self._stop_event.set()
        self._wake_event.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        with self._state_lock:
            if self._state != "failed":
                self._state = "stopped"

    def kick(self) -> None:
        """Wake the loop early (called after a batch is admitted)."""
        self._wake_event.set()

    # -- observability -------------------------------------------------------

    @property
    def state(self) -> str:
        with self._state_lock:
            return self._state

    @property
    def restarts(self) -> int:
        with self._state_lock:
            return self._restarts

    @property
    def refreshes(self) -> int:
        with self._state_lock:
            return self._refreshes

    @property
    def last_error(self) -> Optional[str]:
        with self._state_lock:
            return self._last_error

    @property
    def refresh_in_flight(self) -> bool:
        with self._state_lock:
            return self._state == "refreshing"

    # -- the loop ------------------------------------------------------------

    def _set_state(self, state: str) -> None:
        with self._state_lock:
            self._state = state

    def _run(self) -> None:
        while not self._stop_event.is_set():
            if self._runtime.pending_updates == 0:
                self._wake_event.wait(timeout=self._poll_interval)
                self._wake_event.clear()
                continue
            try:
                self._set_state("refreshing")
                self.run_one_refresh()
                with self._state_lock:
                    self._refreshes += 1
                    self._consecutive_failures = 0
                    self._last_error = None
                    self._state = "idle"
                if self._runtime.pending_updates == 0:
                    # idle after its own refresh, never beside a synchronous one
                    self._runtime.engine.prepare_front()
            except Exception as exc:  # noqa: BLE001 — any crash means "recover"
                self._note_failure(exc)
                if not self._recover():
                    return  # parked in failed state; query path lives on
        self._set_state("stopped")

    def run_one_refresh(self) -> None:
        """One refresh cycle: drain, apply, score what was applied, seal,
        swap, then collect the epochs and WAL the seal superseded —
        an update queued before the call is served after it.

        Also used synchronously by the runtime's graceful drain for the
        final epoch.  Raises on any failure — the caller supervises.
        """
        runtime = self._runtime
        engine = runtime.engine
        with engine.collect_after():
            engine.run_iteration(updates_first=True)
            fault_point(runtime.fault_plan, "service.before_swap")
            # the iteration sealed its own epoch before returning (durable
            # before visible), so the graph it left in memory is that epoch's
            runtime._publish_engine_epoch()
            fault_point(runtime.fault_plan, "service.after_swap")

    # -- recovery ------------------------------------------------------------

    def _note_failure(self, exc: Exception) -> None:
        with self._state_lock:
            self._consecutive_failures += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
        self._runtime._record_refresh_failure(traceback.format_exc())

    def _recover(self) -> bool:
        """Rebuild the engine from durable state; ``True`` when back up."""
        while not self._stop_event.is_set():
            with self._state_lock:
                failures = self._consecutive_failures
                if failures > self._max_restarts:
                    self._state = "failed"
                    return False
            self._set_state("recovering")
            delay = min(self._backoff_base * (2 ** max(failures - 1, 0)),
                        self._backoff_cap)
            if self._stop_event.wait(timeout=delay):
                return False
            try:
                self._runtime._replace_engine_via_recovery()
                # the recovered engine holds the newest epoch that verifies:
                # one a cycle sealed but crashed before swapping in, or one
                # older than the served epoch when that one's files fail
                # their checksums — either way serve what the engine holds
                if (self._runtime.engine.iterations_run
                        != self._runtime.current_epoch):
                    self._runtime._publish_engine_epoch()
                with self._state_lock:
                    # the failure streak is only broken by a *successful
                    # refresh* (see _run) — recovery succeeding just means
                    # the loop gets another attempt from its budget
                    self._restarts += 1
                    self._state = "idle"
                return True
            except Exception as exc:  # noqa: BLE001 — recovery itself crashed
                self._note_failure(exc)
        return False
