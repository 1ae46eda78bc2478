"""Deterministic, scriptable fault injection.

A :class:`FaultPlan` is a schedule of failures that the runtime consults at
well-known hook sites:

* **named crash points** — ``plan.point("commit.before_rename")`` raises
  :class:`InjectedCrash` on the scheduled occurrence, simulating the process
  dying at exactly that instruction (the test then abandons the engine and
  drives :meth:`KNNEngine.recover`);
* **file-operation failures** — ``plan.file_op("rename", path)`` raises
  :class:`InjectedIOError` for a scheduled ``(op, filename-substring)``
  match, modelling a failed write/rename/hard-link;
* **file truncation** — ``plan.after_file_op("write", path)`` truncates the
  just-written file to a scheduled byte count, modelling torn writes and
  on-disk corruption (checksum verification must catch it).

Every schedule is explicit and counted, so a plan injected through
``EngineConfig.fault_plan`` reproduces the exact same failure sequence on
every run.  ``seed`` additionally drives :meth:`FaultPlan.crash_at_random`,
which picks crash points deterministically from a candidate list — useful
for randomized-but-reproducible crash sweeps.

Crash-point names are checked against the registry below:
:meth:`FaultPlan.point` and :meth:`FaultPlan.crash_at` raise
:class:`ValueError` for a name outside ``ITERATION_CRASH_POINTS`` +
``SERVICE_CRASH_POINTS``.  Every hook passes through ``point``, so a hook
with an unregistered name fails the first plan-carrying test that walks
it.  The plan records everything it fired in :attr:`FaultPlan.fired`, so
tests can assert that an injected fault actually triggered (a registered
point that never fires usually means the hook site regressed).
"""

from __future__ import annotations

import os
import random
import threading
from typing import List, Optional, Sequence, Tuple


#: Engine-level crash points: every ``fault_point``/``plan.point`` name
#: on the iteration, WAL, store and commit paths.  With
#: ``SERVICE_CRASH_POINTS`` this tuple is the registry :class:`FaultPlan`
#: enforces — a hook or a schedule naming a point not listed here raises
#: ``ValueError``.  Keep the names grouped by the path they live on; the
#: crash matrix (``tests/test_crash_matrix.py``) crashes the engine at
#: each of these and proves recovery, in both orders of an iteration.  In
#: the paper's order ``phase4.done`` is "scored, updates not applied" and
#: ``phase5.before_apply`` / ``store.*`` follow it; in the serving order
#: (``run_iteration(updates_first=True)``) ``phase5.before_apply`` and
#: ``store.*`` fire before any scoring and ``phase4.step`` / ``phase4.done``
#: are "applied and scored, not sealed" — the working store is ahead of
#: every epoch, and recovery replays the batch from the WAL.
ITERATION_CRASH_POINTS = (
    # iteration loop (KNNEngine.run_iteration / OutOfCoreIteration.run)
    "iteration.begin",
    "phase4.step",
    "phase4.done",
    "phase5.before_apply",
    # update queue / write-ahead log
    "wal.appended",
    # profile store writes
    "store.dense_rows_written",
    "store.journal_appended",
    # epoch commit protocol: the seal (KNNEngine._seal_epoch), then the
    # garbage collection (KNNEngine._collect_garbage)
    "commit.begin",
    "commit.before_rename",
    "commit.committed",
    "commit.before_wal_truncate",
    "commit.done",
)

#: Service-level crash points consulted by the serving runtime
#: (:mod:`repro.service`), alongside the engine-level points the crash
#: matrix exercises.  ``service.admission`` fires on the ingestion path
#: right before a batch enters the update queue (client thread);
#: ``service.before_swap``/``service.after_swap`` bracket the atomic
#: serving-snapshot swap in the background refresh loop; ``service.drain``
#: fires at the start of a graceful shutdown, after admission has closed
#: but before the final epoch is sealed.  The service chaos wall
#: (``tests/test_service_chaos.py``) kills the runtime at each of these
#: and asserts queries keep being answered from the last committed
#: snapshot while recovery brings the refresh loop back.
SERVICE_CRASH_POINTS = (
    "service.admission",
    "service.before_swap",
    "service.after_swap",
    "service.drain",
)

_REGISTERED = frozenset(ITERATION_CRASH_POINTS + SERVICE_CRASH_POINTS)


def _registered(point: str) -> str:
    if point not in _REGISTERED:
        raise ValueError(
            f"crash point {point!r} is not registered in "
            "ITERATION_CRASH_POINTS or SERVICE_CRASH_POINTS")
    return point


class InjectedCrash(RuntimeError):
    """Raised by :meth:`FaultPlan.point` to simulate a crash at a named point."""

    def __init__(self, point: str, occurrence: int):
        super().__init__(f"injected crash at point {point!r} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


class InjectedIOError(OSError):
    """Raised by :meth:`FaultPlan.file_op` to simulate a failed file operation."""

    def __init__(self, op: str, path: str):
        super().__init__(f"injected {op} failure for {path}")
        self.op = op
        self.path = path


class FaultPlan:
    """A deterministic schedule of crashes and I/O failures.

    All scheduling methods return ``self`` so plans chain::

        plan = (FaultPlan()
                .crash_at("commit.before_rename", occurrence=2)
                .fail_file_op("rename", match="manifest"))

    The plan is thread-safe (hook sites may be reached from the refresh and client threads)
    and intentionally **not** deep-copied by ``dataclasses.asdict`` — a
    plan is live runtime state shared between the config and the hook
    sites, never part of a serialised manifest.
    """

    def __init__(self, seed: Optional[int] = None):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        # point name -> set of occurrence numbers (1-based) that crash
        self._crashes: dict = {}
        # (op, substring) -> list of occurrence numbers that fail
        self._io_failures: dict = {}
        # (op, substring) -> list of (occurrence, keep_bytes)
        self._truncations: dict = {}
        # hit counters per point / per (op, substring)
        self._point_hits: dict = {}
        self._op_hits: dict = {}
        #: Chronological log of every fault that fired: ``(kind, detail)``.
        self.fired: List[Tuple[str, str]] = []

    # a plan travels inside EngineConfig, whose asdict()/replace() deep-copy
    # field values; the live schedule (locks, counters) must stay shared
    def __deepcopy__(self, memo) -> "FaultPlan":
        return self

    def __copy__(self) -> "FaultPlan":
        return self

    # -- scheduling ---------------------------------------------------------

    def crash_at(self, point: str, occurrence: int = 1) -> "FaultPlan":
        """Crash (raise :class:`InjectedCrash`) on the n-th hit of ``point``.

        Raises ``ValueError`` for a point the registry does not list.
        """
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        self._crashes.setdefault(_registered(point), set()).add(int(occurrence))
        return self

    def crash_at_random(self, points: Sequence[str], count: int = 1,
                        max_occurrence: int = 3) -> "FaultPlan":
        """Schedule ``count`` seeded-random crashes drawn from ``points``.

        The choice depends only on the constructor ``seed`` and the call
        order, so a sweep is reproducible from its seed alone.
        """
        for _ in range(count):
            point = self._rng.choice(list(points))
            self.crash_at(point, occurrence=self._rng.randint(1, max_occurrence))
        return self

    def fail_file_op(self, op: str, match: str = "",
                     occurrence: int = 1) -> "FaultPlan":
        """Fail the n-th ``op`` (``write``/``rename``/``link``) on a file
        whose name contains ``match`` (the default matches any file)."""
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        self._io_failures.setdefault((op, match), []).append(int(occurrence))
        return self

    def truncate_file(self, op: str, match: str = "", keep_bytes: int = 0,
                      occurrence: int = 1) -> "FaultPlan":
        """Truncate the file of the n-th matching ``op`` to ``keep_bytes``
        right after the operation completes (a torn/corrupt write)."""
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        self._truncations.setdefault((op, match), []).append(
            (int(occurrence), int(keep_bytes)))
        return self

    # -- runtime hooks ------------------------------------------------------

    def point(self, name: str) -> None:
        """Hook: count a crash-point hit; raise when this hit is scheduled.

        Raises ``ValueError`` for a name the registry does not list, so a
        new hook fails the first plan-carrying test that walks it.
        """
        _registered(name)
        with self._lock:
            hit = self._point_hits.get(name, 0) + 1
            self._point_hits[name] = hit
            scheduled = self._crashes.get(name)
            fire = scheduled is not None and hit in scheduled
            if fire:
                self.fired.append(("crash", f"{name}#{hit}"))
        if fire:
            raise InjectedCrash(name, hit)

    def file_op(self, op: str, path: os.PathLike) -> None:
        """Hook: called *before* a file operation; raises when scheduled."""
        name = os.path.basename(os.fspath(path))
        with self._lock:
            for (sched_op, match), occurrences in self._io_failures.items():
                if sched_op != op or match not in name:
                    continue
                key = (op, match)
                hit = self._op_hits.get(key, 0) + 1
                self._op_hits[key] = hit
                if hit in occurrences:
                    self.fired.append(("io", f"{op}:{name}#{hit}"))
                    raise InjectedIOError(op, os.fspath(path))

    def after_file_op(self, op: str, path: os.PathLike) -> None:
        """Hook: called *after* a file operation; applies scheduled truncation."""
        name = os.path.basename(os.fspath(path))
        truncate_to: Optional[int] = None
        with self._lock:
            for (sched_op, match), entries in self._truncations.items():
                if sched_op != op or match not in name:
                    continue
                key = ("after:" + op, match)
                hit = self._op_hits.get(key, 0) + 1
                self._op_hits[key] = hit
                for occurrence, keep_bytes in entries:
                    if occurrence == hit:
                        truncate_to = keep_bytes
                        self.fired.append(
                            ("truncate", f"{op}:{name}#{hit}->{keep_bytes}B"))
        if truncate_to is not None:
            with open(path, "r+b") as handle:
                handle.truncate(truncate_to)

    # -- observability ------------------------------------------------------

    def hits(self, point: str) -> int:
        """How many times a named crash point has been reached so far."""
        with self._lock:
            return self._point_hits.get(point, 0)

    def scheduled_crashes(self) -> List[Tuple[str, int]]:
        """The ``(point, occurrence)`` pairs currently scheduled, sorted."""
        with self._lock:
            return sorted((point, occurrence)
                          for point, occurrences in self._crashes.items()
                          for occurrence in occurrences)

    def fired_kinds(self) -> List[str]:
        with self._lock:
            return [kind for kind, _ in self.fired]


def fault_point(plan: Optional[FaultPlan], name: str) -> None:
    """Convenience: ``plan.point(name)`` tolerating ``plan is None``."""
    if plan is not None:
        plan.point(name)

