"""Parallel similarity scoring: thread and process backends.

Phase 4 scores the candidate tuples of one PI edge against the profiles of
the (at most two) resident partitions.  Every backend takes the same
**row-addressed** work order — partition-local rows into the left and the
right partition's slice — and the batch is embarrassingly parallel:

* ``thread`` — a plain thread pool.  The dense-profile kernels are NumPy
  calls that release the GIL, so threads give real speedups with zero
  serialisation of the profile slices.
* ``process`` — a process pool (:class:`ProcessScoringPool`).  Workers
  *never* receive profile data over the pipe: each worker re-opens the
  on-disk profile store read-only by path and serves its slices straight
  from the mapped files (zero-copy for contiguous partitions, cached per
  partition across residency steps), so per task only the row shards, the
  score shard and O(1) slice descriptors cross the pipe.  This sidesteps
  the GIL entirely — including the Python-level portions of the kernels
  that threads serialise on.

Both backends return scores aligned with the input rows (shards are
concatenated in submission order), so results are bit-identical to the
serial path regardless of worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing

import numpy as np

from repro.storage.memory_manager import MemoryBudget
from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

_logger = get_logger("core.parallel")

#: Recognised values for the ``backend`` knob (config and ``score_tuples``).
BACKENDS = ("serial", "thread", "process")

#: A partition as it crosses the pipe: ``(cache key, user ids)``.  Workers
#: cache the loaded slice under the key (``None`` = ad-hoc id set, never
#: cached); contiguous id runs travel as an O(1) ``range``.
PartDescriptor = Tuple[object, Union[range, np.ndarray]]


def _num_chunks(num_tuples: int, num_threads: int, chunk_size: int) -> int:
    """Chunk count for the thread backend: at least one chunk per thread and
    never a chunk larger than ``chunk_size``, clamped so no chunk is empty."""
    return min(num_tuples, max(num_threads, -(-num_tuples // chunk_size)))


def _row_arrays(left_rows, right_rows) -> Tuple[np.ndarray, np.ndarray]:
    left_rows = np.asarray(left_rows, dtype=np.int64)
    right_rows = np.asarray(right_rows, dtype=np.int64)
    if left_rows.ndim != 1 or left_rows.shape != right_rows.shape:
        raise ValueError("left_rows and right_rows must be 1-D arrays of equal length")
    return left_rows, right_rows


def score_tuples(left: ProfileSlice, left_rows: np.ndarray,
                 right: ProfileSlice, right_rows: np.ndarray, measure: str,
                 num_threads: int = 1, chunk_size: int = 4096,
                 backend: str = "thread",
                 pool: "Optional[ProcessScoringPool]" = None,
                 generation: Optional[int] = None,
                 executor: Optional[Executor] = None) -> np.ndarray:
    """Similarity of row ``left_rows[i]`` of ``left`` against row
    ``right_rows[i]`` of ``right`` for every ``i``, optionally parallel.

    ``left`` and ``right`` are the slices of the two resident partitions
    (the same object for tuples inside one partition) and the rows are
    partition-local.  The result is aligned with the rows regardless of the
    backend or worker count.  The thread backend chunks the batch onto
    ``executor`` (a caller-owned pool that outlives the call; a temporary
    one is made when none is given).  ``backend="process"`` requires a
    :class:`ProcessScoringPool` whose workers have the same store open; the
    slices stay in the calling process and only their user ids cross the
    pipe.  A pool that is kept alive across profile updates must be told the
    store's current ``generation`` (:attr:`OnDiskProfileStore.generation`)
    so workers drop slices cached before the update; with ``None`` the store
    is assumed unchanged for the pool's lifetime.
    """
    check_positive_int(num_threads, "num_threads")
    check_positive_int(chunk_size, "chunk_size")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
    if backend == "process":
        if pool is None:
            raise ValueError("backend='process' requires a ProcessScoringPool")
        parts = [_span_descriptor(left, generation)]
        if right is not left:
            parts.append(_span_descriptor(right, generation))
        return pool.score(parts, left_rows, right_rows, measure,
                          generation=generation)
    if backend == "serial" or num_threads == 1 or len(left_rows) <= chunk_size:
        return left.similarity_rows(left_rows, right, right_rows, measure)

    # balance the batch across the pool; the chunk count is clamped to the
    # row count so a batch barely above chunk_size never degenerates into
    # near-empty chunks
    left_rows, right_rows = _row_arrays(left_rows, right_rows)
    chunks = _num_chunks(len(left_rows), num_threads, chunk_size)
    with (nullcontext(executor) if executor is not None
          else ThreadPoolExecutor(max_workers=num_threads)) as thread_pool:
        futures = [
            thread_pool.submit(left.similarity_rows, left_chunk, right,
                               right_chunk, measure)
            for left_chunk, right_chunk in zip(np.array_split(left_rows, chunks),
                                               np.array_split(right_rows, chunks))]
        return np.concatenate([future.result() for future in futures])


def _span_descriptor(profile_slice: ProfileSlice,
                     generation: Optional[int]) -> PartDescriptor:
    """A slice as a worker-loadable descriptor.  A contiguous slice can be
    identified by its span — the store is immutable under a given
    generation — letting workers cache the load."""
    ids = _compact_ids(profile_slice.user_ids)
    key = (("span", ids.start, ids.stop, generation)
           if isinstance(ids, range) else None)
    return key, ids


def fork_available() -> bool:
    """Whether this platform can fork worker processes (cheap pool start-up)."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- process backend ---------------------------------------------------------
#
# Worker-side state: one re-opened store per worker process and a small
# cache of per-partition slices (each partition is one contiguous id run
# under the paper's split, so these are zero-copy views of the mapped files —
# cheap to keep resident across residency steps).  A work order addresses
# those slices by partition-local row, so nothing is merged or looked up by
# id.  A pool *outlives* phase 4 — the engine keeps one alive for the whole
# run — so store immutability is tracked explicitly: every ``score`` call
# carries the store's generation counter, and a worker seeing a newer
# generation than its caches were loaded under re-opens the store and drops
# every cached slice before scoring (phase-5 updates replace journal and
# segment files, so stale maps must never be read).  Cache keys are scoped
# by the caller (phase 4 keys them by iteration) so a partition id reused
# across iterations with different vertices never hits a stale entry.

_WORKER_STORE: Optional[OnDiskProfileStore] = None
_WORKER_PARTS: "dict[object, ProfileSlice]" = {}
_WORKER_GENERATION: Optional[int] = None

#: Per-partition slices a worker keeps resident (mirrors the coordinator's
#: small partition cache; the slices are views, so this bounds mapping count,
#: not bytes).
_WORKER_PART_CACHE_SLOTS = 4

#: The PI edges of one work order: ``(left part, right part, left_rows,
#: right_rows)`` — the parts as indices into the order's part descriptors,
#: the rows local to those partitions.
RowBatch = Tuple[int, int, np.ndarray, np.ndarray]


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


def _init_scoring_worker(store_dir: str) -> None:
    global _WORKER_STORE, _WORKER_PARTS, _WORKER_GENERATION
    # the coordinator charges slice reads once for the whole pool, so the
    # worker's own accounting uses the free device model
    _WORKER_STORE = OnDiskProfileStore(store_dir, disk_model="instant")
    _WORKER_PARTS = {}
    _WORKER_GENERATION = None


def _cached_part_slice(cache: "Dict[object, ProfileSlice]", slots: int,
                       store: OnDiskProfileStore,
                       part: PartDescriptor) -> ProfileSlice:
    """The slice of one part descriptor, through a small FIFO cache."""
    part_key, ids = part
    if part_key is None:  # uncacheable ad-hoc id set
        return store.load_users(_ids_array(ids))
    piece = cache.get(part_key)
    if piece is None:
        piece = store.load_users(_ids_array(ids))
        while len(cache) >= slots:
            cache.pop(next(iter(cache)))
        cache[part_key] = piece
    return piece


def _score_batches(slices: Sequence[ProfileSlice], batches: Sequence[RowBatch],
                   measure: str) -> np.ndarray:
    """Scores of every batch, concatenated in batch order."""
    scores = [slices[left].similarity_rows(left_rows, slices[right],
                                           right_rows, measure)
              for left, right, left_rows, right_rows in batches]
    return scores[0] if len(scores) == 1 else np.concatenate(scores)


def _score_shard(parts: Sequence[PartDescriptor], batches: Sequence[RowBatch],
                 measure: str, generation: Optional[int] = None,
                 fault: Optional[Tuple[str, float]] = None) -> np.ndarray:
    """Worker entry point: score row batches against the given partitions.

    Each partition of ``parts`` is loaded (zero-copy for contiguous runs)
    and cached by key; the batches address the loaded slices by row, exactly
    as the in-process backends do, so scores stay bit-identical.  A
    ``generation`` newer than the one the caches were loaded under means the
    store files changed underneath us (phase-5 updates): the store is
    re-opened and every cached slice dropped before anything is loaded.
    """
    global _WORKER_GENERATION
    if fault is not None:
        # injected worker fault (see repro.testing.faults): the coordinator
        # attaches the directive to exactly one shard of one score attempt
        mode, seconds = fault
        if mode == "kill":
            os._exit(43)  # hard death: no cleanup, no exception over the pipe
        elif mode == "hang":
            time.sleep(seconds)
    if generation is not None and generation != _WORKER_GENERATION:
        _WORKER_STORE.reload()
        _WORKER_PARTS.clear()
        _WORKER_GENERATION = generation
    slices = [_cached_part_slice(_WORKER_PARTS, _WORKER_PART_CACHE_SLOTS,
                                 _WORKER_STORE, part) for part in parts]
    return _score_batches(slices, batches, measure)


def _build_worker_executor(num_workers: int, store_dir: str) -> ProcessPoolExecutor:
    """A pool of scoring workers that each re-open the store at ``store_dir``.

    fork (where available) shares the parent's imports copy-on-write; the
    workers re-open the store themselves in the initializer.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=num_workers,
        mp_context=context,
        initializer=_init_scoring_worker,
        initargs=(store_dir,),
    )


def _terminate_executor(executor: Optional[ProcessPoolExecutor]) -> None:
    """Kill-and-reap teardown shared by the pool and the shard coordinator.

    ``shutdown(wait=False)`` alone leaves a *hung* worker running — the
    executor only reaps workers that return — so any process still alive
    after the shutdown is killed explicitly.  Tolerates broken executors
    and ``None``.
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
    """The scoring pool failed ``max_retries`` consecutive attempts.

    Raised by :meth:`ProcessScoringPool.score` after respawn-and-retry is
    exhausted; phase 4 catches it and degrades to the in-process path
    (bit-identical results, just slower), so a persistently failing worker
    environment never takes the iteration down.
    """


class ProcessScoringPool:
    """A supervised pool of scoring workers that re-open one store by path.

    Tuple shards are split deterministically (``np.array_split`` order) and
    the per-shard score arrays are concatenated in submission order, so the
    assembled result is bit-identical to a serial ``similarity_pairs`` call.
    The pool is designed to live for a whole engine run — fork start-up is
    paid once, not once per iteration — with worker caches invalidated
    through the ``generation`` argument of :meth:`score` whenever phase 5
    changes the store underneath.  Use as a context manager, or call
    :meth:`shutdown`.

    Supervision: a dead worker surfaces as :class:`BrokenProcessPool`; a
    hung worker is caught by the per-shard watchdog (``shard_timeout``
    seconds per shard, ``None`` = wait forever).  Either way the pool is
    torn down (leftover processes killed), respawned, and the whole shard
    batch retried with capped exponential backoff — retrying the full batch
    keeps the deterministic shard/concatenation order, so results stay
    bit-identical under any kill schedule.  After ``max_retries``
    consecutive failures :class:`ScoringPoolBroken` is raised for the
    caller to degrade gracefully.
    """

    RETRY_BACKOFF_BASE = 0.05
    RETRY_BACKOFF_CAP = 1.0

    def __init__(self, store: Union[OnDiskProfileStore, str, os.PathLike],
                 num_workers: int = 1,
                 shard_timeout: Optional[float] = None,
                 max_retries: int = 3,
                 fault_plan=None):
        check_positive_int(num_workers, "num_workers")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive when given")
        check_positive_int(max_retries, "max_retries")
        store_dir = store.base_dir if isinstance(store, OnDiskProfileStore) else store
        self._store_dir = str(store_dir)
        self._num_workers = num_workers
        self._shard_timeout = shard_timeout
        self._max_retries = max_retries
        self._fault_plan = fault_plan
        self._respawns = 0
        self._executor = _build_worker_executor(self._num_workers,
                                                 self._store_dir)

    def terminate(self) -> None:
        """Tear down the executor without waiting on its workers.

        ``shutdown(wait=False)`` alone leaves a *hung* worker running — the
        executor only reaps workers that return — so any process still
        alive after the shutdown is killed explicitly; otherwise a single
        sleeping worker would pin its store mappings for the rest of the
        run.  Safe to call repeatedly (and after :meth:`shutdown`).
        """
        executor, self._executor = self._executor, None
        _terminate_executor(executor)

    def _respawn(self) -> None:
        """Replace the (broken or hung) executor with a fresh one."""
        self.terminate()
        self._respawns += 1
        self._executor = _build_worker_executor(self._num_workers,
                                                 self._store_dir)

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def respawns(self) -> int:
        """How many times supervision replaced the worker pool."""
        return self._respawns

    def score(self, parts: Sequence[PartDescriptor], left_rows: np.ndarray,
              right_rows: np.ndarray, measure: str,
              generation: Optional[int] = None) -> np.ndarray:
        """Score row pairs against one or two partitions, sharded.

        ``parts`` — one or two ``(part_key, user_ids)`` descriptors — names
        the partitions of one PI edge: ``left_rows`` are rows of the first
        part, ``right_rows`` rows of the last (the same part when only one
        is given).  Workers load each partition slice once (zero-copy for a
        contiguous partition), keep it cached by ``part_key`` across calls
        (``None`` = never cached), and gather each side where it lies,
        exactly as the in-process backends do, so scores stay bit-identical.

        ``generation`` is the store's update counter: a pool that survives
        profile updates (the engine keeps one alive across iterations) must
        pass the current value so workers invalidate their cached slices
        after every phase-5 batch.  ``None`` keeps the legacy contract (the
        store never changes while the pool is alive).
        """
        if not 1 <= len(parts) <= 2:
            raise ValueError("parts must name one or two partitions")
        left_rows, right_rows = _row_arrays(left_rows, right_rows)
        if not len(left_rows):
            return np.zeros(0, dtype=np.float64)
        parts = tuple((part_key, _compact_ids(ids)) for part_key, ids in parts)
        num_shards = min(self._num_workers, len(left_rows))
        shards = list(zip(np.array_split(left_rows, num_shards),
                          np.array_split(right_rows, num_shards)))
        for attempt in range(self._max_retries + 1):
            fault = (self._fault_plan.take_worker_fault()
                     if self._fault_plan is not None else None)
            try:
                return self._score_attempt(parts, shards, measure, generation,
                                           fault)
            except (BrokenProcessPool, FutureTimeoutError) as exc:
                kind = ("shard timeout" if isinstance(exc, FutureTimeoutError)
                        else "worker died")
                if attempt >= self._max_retries:
                    raise ScoringPoolBroken(
                        f"scoring pool failed {attempt + 1} consecutive "
                        f"attempts (last: {kind})") from exc
                delay = min(self.RETRY_BACKOFF_CAP,
                            self.RETRY_BACKOFF_BASE * (2 ** attempt))
                _logger.warning(
                    "scoring pool %s (attempt %d/%d); respawning workers and "
                    "retrying the shard batch in %.2fs",
                    kind, attempt + 1, self._max_retries + 1, delay)
                time.sleep(delay)
                self._respawn()
        raise AssertionError("unreachable")  # pragma: no cover

    def _score_attempt(self, parts, shards, measure, generation,
                       fault) -> np.ndarray:
        """One submission of the full shard batch (the retry unit).

        A ``fault`` directive ``(mode, shard_index, seconds)`` is attached
        to exactly the targeted shard.  The per-shard watchdog applies the
        timeout to each ``result()`` wait; on expiry the not-yet-started
        shards are cancelled before the supervisor respawns the pool.
        """
        futures = []
        for index, (left_rows, right_rows) in enumerate(shards):
            shard_fault = None
            if fault is not None and index == fault[1] % len(shards):
                shard_fault = (fault[0], fault[2])
            futures.append(self._executor.submit(
                _score_shard, parts,
                ((0, len(parts) - 1, left_rows, right_rows),), measure,
                generation, shard_fault))
        try:
            return np.concatenate(
                [future.result(timeout=self._shard_timeout)
                 for future in futures])
        except FutureTimeoutError:
            for future in futures:
                future.cancel()
            raise

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ProcessScoringPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


# -- shard-parallel wave execution --------------------------------------------
#
# The pool above parallelises *within* one residency step (tuple shards of a
# single partition pair).  The coordinator below parallelises *across* steps:
# ``plan_shard_schedule`` colors the step sequence into waves of pairwise
# partition-disjoint steps, and within a wave each worker executes whole
# steps — exclusively owning its step's partitions for the wave — against its
# own mmap slices.  The worker contract is deliberately narrow and
# serialisable: a ShardStepTask descriptor goes in, a ShardDelta comes out,
# and nothing else crosses the boundary, so a multi-node RPC backend can
# replace the process pool without touching phase 4.


@dataclass(frozen=True)
class ShardStepTask:
    """Serialisable work order for one residency step (the RPC-ready contract).

    Everything a worker needs crosses the boundary in this one object: the
    owned partitions as ``(part_key, user_ids)`` descriptors (part keys
    scoped per iteration so caches never serve a stale partition; contiguous
    runs travel as O(1) ranges via :func:`_compact_ids`), the step's PI edges
    as :data:`RowBatch` entries — partition-local rows into those parts — the
    similarity measure and the store generation the worker must have loaded.
    Workers never receive profile bytes — they open the store by path
    (today: the pool initializer; later: an RPC server's own replica) — so
    routing a task to a remote shard server is a pure placement decision.
    """

    parts: Tuple[PartDescriptor, ...]
    batches: Tuple[RowBatch, ...]
    measure: str
    generation: Optional[int]


@dataclass(frozen=True)
class ShardDelta:
    """One worker's answer for one step: ``scores``, aligned with the task's
    batches concatenated in order (phase 4 scatters them into its score
    slab, which feeds both the graph merge and the score cache)."""

    scores: np.ndarray


def _execute_shard_step(task: ShardStepTask,
                        fault: Optional[Tuple[str, float]] = None) -> ShardDelta:
    """Pool-worker entry point of the process backend: score one whole
    residency step through the worker-global store/slice caches."""
    return ShardDelta(scores=_score_shard(task.parts, task.batches,
                                          task.measure, task.generation, fault))


class ShardCoordinator:
    """Executes waves of partition-disjoint residency steps concurrently.

    Ownership model: within one wave no two steps share a partition
    (guaranteed by ``plan_shard_schedule``), so the worker executing a step
    holds exclusive ownership of that step's partitions for the wave — there
    is no cross-worker coordination on profile state, only the barrier
    between waves.  Each backend realises the same contract:

    * ``serial`` — steps run inline, one after another (the degrade target).
    * ``thread`` — the coordinator loads each step's partition slices
      serially (keeping store access single-threaded), then scores the
      wave's steps on a thread pool; the kernels are NumPy and release the
      GIL.
    * ``process`` — tasks ship to a supervised fork pool whose workers
      re-open the store by path (the :func:`_init_scoring_worker` /
      :func:`_score_shard` infrastructure), with the same dead/hung-worker
      respawn-and-retry discipline as :class:`ProcessScoringPool`; the retry
      unit is the whole wave, which is safe because tasks are pure.  After
      ``max_retries`` consecutive failures :class:`ScoringPoolBroken`
      surfaces for the caller to degrade to serial.

    Per-worker memory budget: ``worker_budget_bytes`` caps the resident
    profile bytes a single worker may hold — one step's partitions, the
    sharded analogue of the serial path's two-resident-partitions envelope.
    Each task's slice bytes are charged transiently against a
    :class:`~repro.storage.memory_manager.MemoryBudget` before dispatch
    (``MemoryError`` on overflow, never a silent spill), and the high-water
    mark is reported via :attr:`peak_worker_bytes`.
    """

    RETRY_BACKOFF_BASE = 0.05
    RETRY_BACKOFF_CAP = 1.0

    def __init__(self, store: Union[OnDiskProfileStore, str, os.PathLike],
                 backend: str = "serial",
                 num_workers: int = 1,
                 shard_timeout: Optional[float] = None,
                 max_retries: int = 3,
                 worker_budget_bytes: Optional[float] = None,
                 bytes_per_user: int = 0,
                 fault_plan=None):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
        check_positive_int(num_workers, "num_workers")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive when given")
        check_positive_int(max_retries, "max_retries")
        store_dir = store.base_dir if isinstance(store, OnDiskProfileStore) else store
        self._store_dir = str(store_dir)
        self._backend = backend
        self._num_workers = num_workers
        self._shard_timeout = shard_timeout
        self._max_retries = max_retries
        self._budget = (MemoryBudget(worker_budget_bytes)
                        if worker_budget_bytes else None)
        self._bytes_per_user = int(bytes_per_user)
        self._fault_plan = fault_plan
        self._respawns = 0
        self._executor = None  # lazily built (thread or process, per backend)
        # in-process slice state for serial/thread (instance-scoped mirror of
        # the worker globals; slices are mmap views, the bound is on mapping
        # count, not bytes)
        self._local_store: Optional[OnDiskProfileStore] = None
        self._local_parts: "Dict[object, ProfileSlice]" = {}
        self._local_generation: Optional[int] = None
        self._part_cache_slots = max(_WORKER_PART_CACHE_SLOTS, 2 * num_workers)

    @property
    def backend(self) -> str:
        return self._backend

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

    # -- wave execution ------------------------------------------------------

    def execute_wave(self, tasks: Sequence[ShardStepTask]) -> List[ShardDelta]:
        """Run one wave of partition-disjoint step tasks; deltas in task order.

        The caller is responsible for wave membership (tasks must not share
        partitions — ``plan_shard_schedule`` guarantees it); the coordinator
        is indifferent, but the ownership story above assumes it.
        """
        if not tasks:
            return []
        for task in tasks:
            self._charge(task)
        if self._backend == "process":
            return self._execute_wave_process(tasks)
        slices = [self._local_slices(task) for task in tasks]
        if self._backend == "thread" and self._num_workers > 1 and len(tasks) > 1:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self._num_workers)
            futures = [self._executor.submit(_score_batches, pieces,
                                             task.batches, task.measure)
                       for pieces, task in zip(slices, tasks)]
            return [ShardDelta(scores=future.result()) for future in futures]
        return [ShardDelta(scores=_score_batches(pieces, task.batches,
                                                 task.measure))
                for pieces, task in zip(slices, tasks)]

    def _charge(self, task: ShardStepTask) -> None:
        if self._budget is None:
            return
        resident = sum(len(ids) for _, ids in task.parts) * self._bytes_per_user
        self._budget.record_transient(resident)

    def _local_slices(self, task: ShardStepTask) -> List[ProfileSlice]:
        store = self._local_store
        if store is None:
            # own read-only handle with the free device model: phase 4
            # attributes slice reads itself, once per (wave, partition)
            store = self._local_store = OnDiskProfileStore(
                self._store_dir, disk_model="instant")
        if task.generation is not None and task.generation != self._local_generation:
            store.reload()
            self._local_parts.clear()
            self._local_generation = task.generation
        return [_cached_part_slice(self._local_parts, self._part_cache_slots,
                                   store, part) for part in task.parts]

    # -- process backend supervision -----------------------------------------

    def _execute_wave_process(self, tasks: Sequence[ShardStepTask]
                              ) -> List[ShardDelta]:
        for attempt in range(self._max_retries + 1):
            fault = (self._fault_plan.take_worker_fault()
                     if self._fault_plan is not None else None)
            if self._executor is None:
                self._executor = _build_worker_executor(
                    self._num_workers, self._store_dir)
            futures = []
            for index, task in enumerate(tasks):
                task_fault = None
                if fault is not None and index == fault[1] % len(tasks):
                    task_fault = (fault[0], fault[2])
                futures.append(self._executor.submit(
                    _execute_shard_step, task, task_fault))
            try:
                return [future.result(timeout=self._shard_timeout)
                        for future in futures]
            except (BrokenProcessPool, FutureTimeoutError) as exc:
                for future in futures:
                    future.cancel()
                kind = ("shard timeout" if isinstance(exc, FutureTimeoutError)
                        else "worker died")
                if attempt >= self._max_retries:
                    raise ScoringPoolBroken(
                        f"shard coordinator failed {attempt + 1} consecutive "
                        f"wave attempts (last: {kind})") from exc
                delay = min(self.RETRY_BACKOFF_CAP,
                            self.RETRY_BACKOFF_BASE * (2 ** attempt))
                _logger.warning(
                    "shard coordinator %s (attempt %d/%d); respawning workers "
                    "and retrying the wave in %.2fs",
                    kind, attempt + 1, self._max_retries + 1, delay)
                time.sleep(delay)
                executor, self._executor = self._executor, None
                _terminate_executor(executor)
                self._respawns += 1
        raise AssertionError("unreachable")  # pragma: no cover

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            if self._backend == "process":
                _terminate_executor(executor)
            else:
                executor.shutdown(wait=True)
        self._local_store = None
        self._local_parts.clear()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
