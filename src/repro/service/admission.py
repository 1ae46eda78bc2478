"""Bounded admission control for the serving runtime's ingestion path.

A long-lived service cannot let its update backlog grow without bound: if
profile churn outpaces the refresh loop, an unbounded queue turns into
unbounded WAL growth, unbounded recovery time, and eventually an OOM — the
exact failure the robustness contract forbids.  The
:class:`AdmissionController` therefore enforces a hard capacity on
*pending* (accepted-but-not-yet-applied) profile changes and **sheds**
everything beyond it with an explicit backpressure signal instead of
queueing or raising.

Shedding is a normal, reportable outcome — :class:`AdmissionResult` tells
the client exactly why (``capacity`` / ``draining`` / ``closed``) so it can
back off and retry.  Accepted batches are durable before ``accepted=True``
is returned: the enqueue goes through :class:`ProfileUpdateQueue`'s fsynced
WAL, so an accepted change survives any crash of the service (the chaos
wall in ``tests/test_service_chaos.py`` kills the process at
``service.admission`` and asserts exactly-once application after
recovery).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.similarity.workloads import ProfileChange
from repro.testing.faults import FaultPlan, fault_point


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one :meth:`AdmissionController.submit` call.

    ``accepted`` batches are durably WAL-logged; shed batches report the
    reason and the pending depth that triggered the backpressure so
    clients can implement informed retry policies.
    """

    accepted: bool
    #: ``None`` when accepted; else ``"capacity"`` (queue full — retry
    #: after the next refresh), ``"draining"`` (graceful shutdown in
    #: progress) or ``"closed"`` (service stopped).
    shed_reason: Optional[str] = None
    #: The backpressure signal.  For an *accepted* batch this is a queue
    #: depth *observed after* the enqueue — a real point-in-time reading
    #: that already reflects any refresh drain interleaved before it.
    #: Drains only remove work, so this value never overstates the backlog
    #: (the old ``pre-enqueue read + len(batch)`` extrapolation could,
    #: whenever a drain slipped between the capacity check and the
    #: enqueue).  For a shed batch it is the pre-decision depth that
    #: triggered (or accompanied) the shed.
    pending: int = 0
    #: Number of changes in the submitted batch.
    batch_size: int = 0


class AdmissionController:
    """Admits or sheds update batches against a bounded pending budget.

    The controller does not own the queue — the runtime passes an
    ``enqueue`` callable that routes through its engine lock, because the
    underlying :class:`ProfileUpdateQueue` is replaced whenever the
    supervisor recovers the engine.  The capacity check and the enqueue
    happen under one admission lock, so with refresh drains only ever
    *removing* work the capacity bound is exact even with many concurrent
    writers: writers are serialised here, and a drain interleaving between
    the check and the enqueue only makes the real depth smaller than the
    checked one.  The ``enqueue`` callable must return a queue depth
    *observed after* appending the batch — that post-enqueue reading is
    what an accepted :attr:`AdmissionResult.pending` reports.  Drains may
    interleave between the append and the reading, but they only shrink
    the queue, so the reported depth never overstates reality — unlike a
    depth extrapolated from the pre-enqueue read (the old
    ``pending + len(batch)`` contract), which overstated it whenever a
    drain slipped into that window.

    The admission lock is held across ``enqueue`` — a WAL fsync, or a wait
    behind an engine recovery — so nothing a probe calls takes it:
    :attr:`draining` reads one flag, and :meth:`stats` reads the counters
    under their own lock, which no one holds across a call.
    """

    def __init__(self, capacity: int,
                 enqueue: Callable[[Sequence[ProfileChange]], int],
                 pending: Callable[[], int],
                 fault_plan: Optional[FaultPlan] = None):
        if capacity < 1:
            raise ValueError("admission capacity must be positive")
        self._capacity = int(capacity)
        self._enqueue = enqueue
        self._pending = pending
        self._fault_plan = fault_plan
        self._lock = threading.Lock()
        self._counts_lock = threading.Lock()
        self._draining = False
        self._closed = False
        self._accepted_batches = 0
        self._accepted_changes = 0
        self._shed_batches = 0
        self._shed_changes = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def submit(self, changes: Sequence[ProfileChange]) -> AdmissionResult:
        """Admit ``changes`` (durably enqueue) or shed them with a reason.

        Never raises for backpressure; :class:`InjectedCrash` from the
        fault plan propagates (it models the process dying mid-admission).
        """
        batch = list(changes)
        with self._lock:
            if self._closed:
                return self._shed("closed", batch)
            if self._draining:
                return self._shed("draining", batch)
            pending = self._pending()
            if pending + len(batch) > self._capacity:
                return self._shed("capacity", batch, pending)
            # crash point fires while the batch is admitted but *before* the
            # WAL append — the client never saw accepted=True, so after
            # recovery it must be safe to resubmit (exactly-once overall)
            fault_point(self._fault_plan, "service.admission")
            depth_after = self._enqueue(batch)
            with self._counts_lock:
                self._accepted_batches += 1
                self._accepted_changes += len(batch)
            return AdmissionResult(accepted=True,
                                   pending=int(depth_after),
                                   batch_size=len(batch))

    def _shed(self, reason: str, batch: list,
              pending: Optional[int] = None) -> AdmissionResult:
        with self._counts_lock:
            self._shed_batches += 1
            self._shed_changes += len(batch)
        return AdmissionResult(accepted=False, shed_reason=reason,
                               pending=self._pending() if pending is None
                               else pending,
                               batch_size=len(batch))

    def start_drain(self) -> None:
        """Stop admitting new work (graceful shutdown); sheds as ``draining``."""
        with self._lock:
            self._draining = True

    def close(self) -> None:
        """Terminal stop; subsequent submits shed as ``closed``."""
        with self._lock:
            self._draining = True
            self._closed = True

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict:
        with self._counts_lock:
            return {
                "capacity": self._capacity,
                "accepted_batches": self._accepted_batches,
                "accepted_changes": self._accepted_changes,
                "shed_batches": self._shed_batches,
                "shed_changes": self._shed_changes,
            }
