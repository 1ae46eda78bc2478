"""The worker seam: who runs phase 4's similarity kernel.

Phase 4 is one loop — make a step's partitions resident, score its tuples,
let them go — and the only parallelism it needs is *who runs the kernel*.
That choice lives behind one call, :meth:`ScoringWorkers.execute`, whose
contract is deliberately narrow and serialisable: a list of
:class:`ShardStepTask` work orders goes in (the partitions a step owns, the
step's PI edges as partition-local row batches, the measure, the store
generation), one score array per task comes out, in task order, and nothing
else crosses the boundary.

Three transports realise it, picked once from ``(backend, num_workers,
fork_available())``:

* **inline** — the calling thread scores every task (``serial``, and any
  backend whose width is one).
* **thread** — a run-lifetime thread pool.  The dense-profile kernels are
  NumPy calls that release the GIL, so threads give real speedups with zero
  serialisation of the profile slices.
* **process** — a run-lifetime fork pool.  Workers *never* receive profile
  data over the pipe: each re-opens the on-disk profile store read-only by
  path and serves its slices straight from the mapped files (zero-copy for
  contiguous partitions, cached per partition across tasks), so per task
  only the row batches, the scores and O(1) slice descriptors cross the
  pipe.  This sidesteps the GIL entirely — including the Python-level
  portions of the kernels that threads serialise on.

and two granularities fall out of the same call: a *wave* of partition-
disjoint steps is a list of tasks, one per step, and a lone step on a
transport wider than one is cut row-wise into sub-tasks over the same
partitions.  Scores come back aligned with the task's rows whatever the
transport or the cut, so results are bit-identical to the inline path.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.storage.memory_manager import MemoryBudget
from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice
from repro.testing.faults import apply_worker_fault
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

_logger = get_logger("core.parallel")

#: Recognised values for the ``backend`` knob.
BACKENDS = ("serial", "thread", "process")

#: A partition as a worker sees it: ``(cache key, user ids)``.  Workers
#: cache the loaded slice under the key (``None`` = ad-hoc id set, never
#: cached); contiguous id runs cross the pipe as an O(1) ``range``.
PartDescriptor = Tuple[object, Union[range, np.ndarray]]

#: The PI edges of one work order: ``(left part, right part, left_rows,
#: right_rows)`` — the parts as indices into the order's part descriptors,
#: the rows local to those partitions.
RowBatch = Tuple[int, int, np.ndarray, np.ndarray]

#: Rows above which a lone task's batch is cut across the workers; a smaller
#: batch costs more to hand over than to score where it is.
SPLIT_FLOOR_ROWS = 4096


def score_tuples(left: ProfileSlice, left_rows: np.ndarray,
                 right: ProfileSlice, right_rows: np.ndarray,
                 measure: str) -> np.ndarray:
    """Similarity of row ``left_rows[i]`` of ``left`` against row
    ``right_rows[i]`` of ``right`` for every ``i``, on the calling thread.

    ``left`` and ``right`` are the slices of the two resident partitions
    (the same object for tuples inside one partition) and the rows are
    partition-local.  This is the in-process kernel dispatch: every score a
    transport computes in this process, and every worker's, goes through it.
    """
    return left.similarity_rows(left_rows, right, right_rows, measure)


def fork_available() -> bool:
    """Whether this platform can fork worker processes (cheap pool start-up)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _compact_ids(user_ids) -> "Union[range, np.ndarray]":
    """Contiguous id runs travel the pipe as an O(1) ``range``, not an array."""
    ids = np.ascontiguousarray(user_ids, dtype=np.int64)
    if len(ids) and int(ids[-1]) - int(ids[0]) + 1 == len(ids):
        return range(int(ids[0]), int(ids[-1]) + 1)
    return ids


def _ids_array(ids: "Union[range, np.ndarray]") -> np.ndarray:
    if isinstance(ids, range):
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    return np.ascontiguousarray(ids, dtype=np.int64)


@dataclass(frozen=True)
class ShardStepTask:
    """Serialisable work order for one residency step (the RPC-ready contract).

    Everything a worker needs crosses the boundary in this one object: the
    owned partitions as ``(part_key, user_ids)`` descriptors (part keys
    scoped per iteration so caches never serve a stale partition), the
    step's PI edges as :data:`RowBatch` entries — partition-local rows into
    those parts — the similarity measure and the store generation the worker
    must have loaded (``None`` = the store never changes while the workers
    live).  Workers never receive profile bytes — they open the store by
    path (today: the pool initializer; later: an RPC server's own replica) —
    so routing a task to a remote shard server is a pure placement decision.
    """

    parts: Tuple[PartDescriptor, ...]
    batches: Tuple[RowBatch, ...]
    measure: str
    generation: Optional[int]


# -- the worker side -----------------------------------------------------------
#
# A worker keeps one re-opened store and a small cache of per-partition
# slices (each partition is one contiguous id run under the paper's split, so
# these are zero-copy views of the mapped files — cheap to keep across
# tasks).  A work order addresses those slices by partition-local row, so
# nothing is merged or looked up by id.  Workers *outlive* phase 4 — the
# engine keeps them for the whole run — so store immutability is tracked
# explicitly: every task carries the store's generation counter, and a worker
# seeing a newer generation than its cache was loaded under re-opens the
# store and drops every cached slice before scoring (phase-5 updates replace
# journal and segment files, so stale maps must never be read).  Cache keys
# are scoped by the caller (phase 4 keys them by iteration) so a partition id
# reused across iterations with different vertices never hits a stale entry.


class _WorkerState:
    """What one scoring worker holds between tasks: its store handle, its
    part cache and the generation both were loaded under.  A forked worker
    has one (made by the pool initializer); :class:`ScoringWorkers` has one
    for the transports that score in its own process."""

    def __init__(self, store_dir: str, slots: int,
                 score: Callable[..., np.ndarray] = score_tuples):
        self._store_dir = store_dir
        self._slots = slots
        self.score = score
        self._store: Optional[OnDiskProfileStore] = None
        self._parts: Dict[object, ProfileSlice] = {}
        self._generation: Optional[int] = None

    def slices(self, task: ShardStepTask) -> List[ProfileSlice]:
        """The slice of each of the task's parts, generation-checked."""
        store = self._store
        if store is None:
            # an own read-only handle with the free device model: whoever
            # decides residency charges the slice reads, once per partition
            # residency — never the worker that happens to map the bytes
            store = self._store = OnDiskProfileStore(self._store_dir,
                                                     disk_model="instant")
        if task.generation is not None and task.generation != self._generation:
            store.reload()
            self._parts.clear()
            self._generation = task.generation
        return [self._cached_part_slice(store, part) for part in task.parts]

    def release(self) -> None:
        """Drop the store handle and every cached slice."""
        self._store = None
        self._parts.clear()
        self._generation = None

    def _cached_part_slice(self, store: OnDiskProfileStore,
                           part: PartDescriptor) -> ProfileSlice:
        """The slice of one part descriptor, through a small LRU cache."""
        part_key, ids = part
        if part_key is None:  # uncacheable ad-hoc id set
            return store.load_users(_ids_array(ids))
        piece = self._parts.pop(part_key, None)
        if piece is None:
            piece = store.load_users(_ids_array(ids))
            while len(self._parts) >= self._slots:
                self._parts.pop(next(iter(self._parts)))
        self._parts[part_key] = piece   # most recently used last
        return piece


def _score_batches(slices: Sequence[ProfileSlice], task: ShardStepTask,
                   score: Callable[..., np.ndarray]) -> np.ndarray:
    """Scores of every batch of the task, concatenated in batch order."""
    scores = [score(slices[left], left_rows, slices[right], right_rows,
                    task.measure)
              for left, right, left_rows, right_rows in task.batches]
    return scores[0] if len(scores) == 1 else np.concatenate(scores)


def _score_shard(state: _WorkerState, task: ShardStepTask,
                 fault: Optional[Tuple[str, int, float]] = None) -> np.ndarray:
    """The worker-side function: score one task against the worker's slices.

    Each partition of ``task.parts`` is loaded (zero-copy for contiguous
    runs) and cached by key; the batches address the loaded slices by row,
    so scores are bit-identical wherever this runs.  ``fault`` is an
    injected worker fault (see :mod:`repro.testing.faults`), attached by the
    supervisor to exactly one task of one attempt.
    """
    apply_worker_fault(fault)
    return _score_batches(state.slices(task), task, state.score)


#: The forked worker's state (one per worker process, set by the initializer).
_WORKER: Optional[_WorkerState] = None


def _init_scoring_worker(store_dir: str, slots: int) -> None:
    global _WORKER
    _WORKER = _WorkerState(store_dir, slots)


def _score_shard_in_worker(task: ShardStepTask,
                           fault: Optional[Tuple[str, int, float]]) -> np.ndarray:
    """Pool-worker entry point of the process transport."""
    return _score_shard(_WORKER, task, fault)


def _build_worker_executor(num_workers: int, store_dir: str,
                           slots: int) -> ProcessPoolExecutor:
    """A pool of scoring workers that each re-open the store at ``store_dir``.

    fork (where available) shares the parent's imports copy-on-write; the
    workers re-open the store themselves on their first task.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=num_workers,
        mp_context=context,
        initializer=_init_scoring_worker,
        initargs=(store_dir, slots),
    )


def _terminate_executor(executor: Optional[ProcessPoolExecutor]) -> None:
    """Kill-and-reap teardown of the process transport.

    ``shutdown(wait=False)`` alone leaves a *hung* worker running — the
    executor only reaps workers that return — so any process still alive
    after the shutdown is killed explicitly; otherwise a single sleeping
    worker would pin its store mappings for the rest of the run.  Tolerates
    broken executors and ``None``.
    """
    if executor is None:
        return
    processes = list(getattr(executor, "_processes", {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass  # a broken pool may refuse; the kills below still run
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join(timeout=5.0)


class ScoringPoolBroken(RuntimeError):
    """The process transport failed ``max_retries + 1`` consecutive attempts.

    Raised inside :meth:`ScoringWorkers.execute` after respawn-and-retry is
    exhausted and handled there: the instance degrades to the inline
    transport (bit-identical results, just slower), so a persistently
    failing worker environment never takes the iteration down.
    """


def _split_rows(task: ShardStepTask, width: int
                ) -> Tuple[List[ShardStepTask], List[List[Tuple[int, int]]], int]:
    """One task as at most ``width`` sub-tasks over the same parts.

    Every batch above :data:`SPLIT_FLOOR_ROWS` is cut in ``np.array_split``
    order and sub-task ``j`` takes the ``j``-th piece of each.  Returns the
    sub-tasks, for each the ``[lo, hi)`` runs of the task's score array its
    scores fill in order, and the task's total row count.
    """
    pieces: List[List[RowBatch]] = [[] for _ in range(width)]
    runs: List[List[Tuple[int, int]]] = [[] for _ in range(width)]
    offset = 0
    for left, right, left_rows, right_rows in task.batches:
        rows = len(left_rows)
        cuts = min(width, rows) if rows > SPLIT_FLOOR_ROWS else 1
        for index, (left_piece, right_piece) in enumerate(
                zip(np.array_split(left_rows, cuts),
                    np.array_split(right_rows, cuts))):
            pieces[index].append((left, right, left_piece, right_piece))
            runs[index].append((offset, offset + len(left_piece)))
            offset += len(left_piece)
    subtasks = [replace(task, batches=tuple(piece)) for piece in pieces if piece]
    return subtasks, [run for run in runs if run], offset


class ScoringWorkers:
    """The one supervised executor behind phase 4: ``execute(tasks) -> scores``.

    ``tasks`` is either one residency step or a wave of steps that share no
    partition (the caller guarantees it — ``plan_shard_schedule`` does — so
    whoever executes a step owns its partitions exclusively until the call
    returns; there is no cross-worker coordination on profile state, only
    the barrier the call itself is).  A lone task on a transport wider than
    one is cut row-wise into sub-tasks (:func:`_split_rows`) and its scores
    reassembled in order.

    The transport is picked at construction: ``thread`` and ``process`` need
    ``num_workers > 1`` (and ``process`` needs ``fork``) — otherwise a pool
    would pay start-up and pipe traffic for zero parallelism, so those
    configurations score inline, which is bit-identical, with a one-time
    warning.  Executors are built on first use and kept for the whole run;
    the default configuration never builds one.

    Supervision wraps the process transport: a dead worker surfaces as
    :class:`BrokenProcessPool`; a hung one is caught by the per-future
    watchdog (``shard_timeout`` seconds, ``None`` = wait forever).  Either
    way the pool is torn down (leftover processes killed), respawned, and
    the *whole task list* retried with capped exponential backoff — tasks
    are pure, and retrying all of them keeps the submission order, so
    results stay bit-identical under any kill schedule.  After
    ``max_retries`` consecutive failures the instance logs one warning,
    switches to the inline transport for the rest of its life and re-runs
    the list there.

    Per-worker memory budget: ``worker_budget_bytes`` caps the resident
    profile bytes a single worker may hold — one step's partitions, the
    wave analogue of the two-resident-partitions envelope.  Each task's
    slice bytes are charged transiently against a
    :class:`~repro.storage.memory_manager.MemoryBudget` before dispatch
    (``MemoryError`` on overflow, never a silent spill), and the high-water
    mark is reported via :attr:`peak_worker_bytes`.  Workers cache at most
    ``part_cache_slots`` slices, so the envelope also survives partitioners
    whose slices are gathered copies rather than views.

    ``score`` is the in-process kernel dispatch; phase 4 passes its own
    module's :func:`score_tuples` binding, so whatever replaces that name —
    a tracer, a native kernel — sees every score computed in this process.
    """

    RETRY_BACKOFF_BASE = 0.05
    RETRY_BACKOFF_CAP = 1.0

    def __init__(self, store: Union[OnDiskProfileStore, str, os.PathLike],
                 backend: str = "serial",
                 num_workers: int = 1,
                 shard_timeout: Optional[float] = None,
                 max_retries: int = 3,
                 part_cache_slots: int = 2,
                 worker_budget_bytes: Optional[float] = None,
                 bytes_per_user: int = 0,
                 fault_plan=None,
                 score: Callable[..., np.ndarray] = score_tuples):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
        check_positive_int(num_workers, "num_workers")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive when given")
        check_positive_int(max_retries, "max_retries")
        check_positive_int(part_cache_slots, "part_cache_slots")
        store_dir = store.base_dir if isinstance(store, OnDiskProfileStore) else store
        self._store_dir = str(store_dir)
        self._num_workers = num_workers
        self._shard_timeout = shard_timeout
        self._max_retries = max_retries
        self._part_cache_slots = part_cache_slots
        self._budget = (MemoryBudget(worker_budget_bytes)
                        if worker_budget_bytes else None)
        self._bytes_per_user = int(bytes_per_user)
        self._fault_plan = fault_plan
        self._respawns = 0
        self._executor = None  # built on first use (thread or process)
        self._state = _WorkerState(self._store_dir, part_cache_slots, score)
        self._transport = "inline"
        if backend == "thread" and num_workers > 1:
            self._transport = "thread"
        elif backend == "process":
            if num_workers > 1 and fork_available():
                self._transport = "process"
            else:
                _logger.warning(
                    "backend='process' with %s: skipping the worker pool and "
                    "scoring in-process (results are identical)",
                    "num_workers=1" if num_workers == 1
                    else "fork is unavailable on this platform")

    @property
    def transport(self) -> str:
        """``"inline"``, ``"thread"`` or ``"process"`` — what runs the kernel
        now (a degraded process transport reads ``"inline"``)."""
        return self._transport

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def respawns(self) -> int:
        """How many times supervision replaced the worker pool."""
        return self._respawns

    @property
    def peak_worker_bytes(self) -> float:
        """High-water mark of any single worker's resident slice bytes."""
        return self._budget.peak_bytes if self._budget is not None else 0.0

    @property
    def worker_budget_bytes(self) -> Optional[float]:
        return self._budget.capacity_bytes if self._budget is not None else None

    # -- the seam ------------------------------------------------------------

    def execute(self, tasks: Sequence[ShardStepTask]) -> List[np.ndarray]:
        """Score every task; one score array per task, in task order, each
        aligned with its task's batches concatenated in order."""
        if not tasks:
            return []
        if self._budget is not None:
            for task in tasks:
                self._budget.record_transient(
                    sum(len(ids) for _, ids in task.parts) * self._bytes_per_user)
        if len(tasks) > 1 or self._transport == "inline":
            return self._dispatch(tasks)
        subtasks, runs, total = _split_rows(tasks[0], self._num_workers)
        if len(subtasks) <= 1:   # nothing above the floor: nothing to put back
            return self._dispatch(tasks)
        scores = np.empty(total, dtype=np.float64)
        for piece, piece_runs in zip(self._dispatch(subtasks), runs):
            start = 0
            for lo, hi in piece_runs:
                scores[lo:hi] = piece[start:start + hi - lo]
                start += hi - lo
        return [scores]

    def _dispatch(self, tasks: Sequence[ShardStepTask]) -> List[np.ndarray]:
        if self._transport == "process":
            try:
                return self._dispatch_supervised(tasks)
            except ScoringPoolBroken as exc:
                # tasks are pure and scores per-pair deterministic, so
                # finishing this list (and the run) inline is bit-identical
                _logger.warning("%s; degrading to in-process scoring for the "
                                "rest of the run", exc)
                self._transport = "inline"
        if self._transport == "thread" and len(tasks) > 1:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self._num_workers)
            # slices are resolved here, one task after another, so the store
            # handle and the part cache are only ever touched by this thread
            futures = [self._executor.submit(_score_batches,
                                             self._state.slices(task), task,
                                             self._state.score)
                       for task in tasks]
            return [future.result() for future in futures]
        return [_score_shard(self._state, task) for task in tasks]

    def _dispatch_supervised(self, tasks: Sequence[ShardStepTask]
                             ) -> List[np.ndarray]:
        """The process transport: submit, watch, respawn and retry."""
        tasks = [replace(task, parts=tuple((key, _compact_ids(ids))
                                           for key, ids in task.parts))
                 for task in tasks]
        for attempt in range(self._max_retries + 1):
            fault = (self._fault_plan.take_worker_fault()
                     if self._fault_plan is not None else None)
            if self._executor is None:
                self._executor = _build_worker_executor(
                    self._num_workers, self._store_dir, self._part_cache_slots)
            futures = []
            try:
                # submitting is inside the watch too: a worker that dies on
                # the first task breaks the pool under the later submits
                for index, task in enumerate(tasks):
                    # a fault directive ``(mode, shard, seconds)`` rides on
                    # exactly the targeted task of this attempt
                    futures.append(self._executor.submit(
                        _score_shard_in_worker, task,
                        fault if fault is not None
                        and index == fault[1] % len(tasks) else None))
                return [future.result(timeout=self._shard_timeout)
                        for future in futures]
            except (BrokenProcessPool, FutureTimeoutError) as exc:
                for future in futures:
                    future.cancel()
                kind = ("shard timeout" if isinstance(exc, FutureTimeoutError)
                        else "worker died")
                executor, self._executor = self._executor, None
                _terminate_executor(executor)
                if attempt >= self._max_retries:
                    raise ScoringPoolBroken(
                        f"scoring workers failed {attempt + 1} consecutive "
                        f"attempts (last: {kind})") from exc
                delay = min(self.RETRY_BACKOFF_CAP,
                            self.RETRY_BACKOFF_BASE * (2 ** attempt))
                _logger.warning(
                    "scoring workers: %s (attempt %d/%d); respawning and "
                    "retrying the task list in %.2fs",
                    kind, attempt + 1, self._max_retries + 1, delay)
                time.sleep(delay)
                self._respawns += 1
        raise AssertionError("unreachable")  # pragma: no cover

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Release the executor and the in-process slices (idempotent; a
        later :meth:`execute` builds what it needs again)."""
        executor, self._executor = self._executor, None
        if executor is not None and self._transport == "thread":
            executor.shutdown(wait=True)
        else:
            _terminate_executor(executor)
        self._state.release()

    def __enter__(self) -> "ScoringWorkers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
