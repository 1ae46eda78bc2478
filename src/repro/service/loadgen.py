"""Simulated serving load: N reader clients + a writer, with latency stats.

Shared by the ``python -m repro serve`` CLI demo and ``examples/serving.py``
so both exercise the runtime the same way: reader threads hammer
:meth:`ServingRuntime.neighbors` in a closed loop while the caller's
writer submits update batches, and a :class:`PhaseReport` captures what
the clients actually observed — per-query latency percentiles, failures,
how many reads landed *while a refresh iteration was in flight* (the
snapshot-isolation witness) and how much load admission shed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.similarity.workloads import ProfileChange


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class PhaseReport:
    """What the simulated clients observed during one load phase."""

    name: str
    duration_seconds: float = 0.0
    queries: int = 0
    #: Queries that raised (deadline/unavailable) — the availability SLO.
    query_failures: int = 0
    #: Queries answered while the refresh loop was mid-iteration: each one
    #: is a read that provably did not block on the in-flight iteration.
    queries_during_refresh: int = 0
    p50_query_seconds: float = 0.0
    p99_query_seconds: float = 0.0
    max_query_seconds: float = 0.0
    accepted_batches: int = 0
    accepted_changes: int = 0
    shed_batches: int = 0
    shed_changes: int = 0
    epochs_advanced: int = 0
    restarts: int = 0


class _Reader(threading.Thread):
    def __init__(self, runtime, num_users: int, seed: int,
                 deadline_seconds: Optional[float], stop: threading.Event):
        super().__init__(name=f"load-reader-{seed}", daemon=True)
        self._runtime = runtime
        self._rng = Random(seed)
        self._num_users = num_users
        self._deadline = deadline_seconds
        # NB: not "_stop" — that would shadow threading.Thread's internal
        # _stop() method and break Thread.join()
        self._halt = stop
        self.latencies: List[float] = []
        self.failures = 0
        self.during_refresh = 0

    def run(self) -> None:
        while not self._halt.is_set():
            user = self._rng.randrange(self._num_users)
            in_refresh = self._runtime.refresh_in_flight
            started = time.perf_counter()
            try:
                self._runtime.neighbors(user, deadline_seconds=self._deadline)
            except Exception:  # noqa: BLE001 — counted, phase judges the total
                self.failures += 1
                continue
            self.latencies.append(time.perf_counter() - started)
            if in_refresh:
                self.during_refresh += 1


class LoadGenerator:
    """Drives N reader threads plus an optional writer against a runtime."""

    def __init__(self, runtime, num_users: int, num_readers: int = 4,
                 deadline_seconds: Optional[float] = 5.0, seed: int = 0):
        self._runtime = runtime
        self._num_users = int(num_users)
        self._num_readers = int(num_readers)
        self._deadline = deadline_seconds
        self._seed = int(seed)

    def run_phase(self, name: str, duration_seconds: float,
                  writer: Optional[Callable[[], None]] = None,
                  writer_interval: float = 0.01) -> PhaseReport:
        """Run readers for ``duration_seconds``; call ``writer`` in between.

        ``writer`` is invoked from the calling thread every
        ``writer_interval`` seconds (it typically submits one update batch
        via :meth:`ServingRuntime.submit_updates`); admission/shed deltas
        are read from the runtime's counters so shed load is attributed to
        the phase that caused it.
        """
        runtime = self._runtime
        before = runtime.stats()
        stop = threading.Event()
        readers = [_Reader(runtime, self._num_users,
                           seed=self._seed * 1000 + i,
                           deadline_seconds=self._deadline, stop=stop)
                   for i in range(self._num_readers)]
        started = time.perf_counter()
        for reader in readers:
            reader.start()
        deadline_at = started + duration_seconds
        while time.perf_counter() < deadline_at:
            if writer is not None:
                writer()
            time.sleep(writer_interval)
        stop.set()
        for reader in readers:
            reader.join(timeout=30.0)
        elapsed = time.perf_counter() - started
        after = runtime.stats()

        latencies = [value for reader in readers for value in reader.latencies]
        report = PhaseReport(name=name, duration_seconds=elapsed)
        report.queries = len(latencies)
        report.query_failures = sum(reader.failures for reader in readers)
        report.queries_during_refresh = sum(reader.during_refresh
                                            for reader in readers)
        report.p50_query_seconds = percentile(latencies, 0.50)
        report.p99_query_seconds = percentile(latencies, 0.99)
        report.max_query_seconds = max(latencies) if latencies else 0.0
        for key in ("accepted_batches", "accepted_changes",
                    "shed_batches", "shed_changes"):
            setattr(report, key, after[key] - before[key])
        report.epochs_advanced = max(
            0, after["serving_epoch"] - before["serving_epoch"])
        report.restarts = after["restarts"] - before["restarts"]
        return report


def dense_set_batch(num_users: int, dim: int, batch_size: int,
                    rng: Random) -> List[ProfileChange]:
    """One batch of dense profile rewrites for randomly chosen users."""
    changes = []
    for _ in range(batch_size):
        user = rng.randrange(num_users)
        vector = np.asarray([rng.random() for _ in range(dim)],
                            dtype=np.float64)
        changes.append(ProfileChange(user=user, kind="set", vector=vector))
    return changes
