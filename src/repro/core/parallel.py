"""Parallel similarity scoring: thread and process backends.

Phase 4 scores a (possibly large) batch of candidate tuples against the
profiles of the two resident partitions.  The batch is embarrassingly
parallel.  Two parallel backends are provided:

* ``thread`` — a plain thread pool.  The dense-profile kernels are NumPy
  calls that release the GIL, so threads give real speedups with zero
  serialisation of the profile slices.
* ``process`` — a process pool (:class:`ProcessScoringPool`).  Workers
  *never* receive profile data over the pipe: each worker re-opens the
  on-disk profile store read-only by path and serves its slices straight
  from the mapped files (zero-copy for contiguous partitions, cached per
  partition across residency steps), so per task only the tuple shard, the
  score shard and O(1) slice descriptors cross the pipe.  This sidesteps
  the GIL entirely — including the Python-level portions of the kernels
  that threads serialise on.

Both backends return scores aligned with the input tuples row for row
(shards are concatenated in submission order), so results are bit-identical
to the serial path regardless of worker count.
"""

from __future__ import annotations

import atexit
import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from repro.storage.memory_manager import MemoryBudget
from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

_logger = get_logger("core.parallel")

#: Recognised values for the ``backend`` knob (config and ``score_tuples``).
BACKENDS = ("serial", "thread", "process")


def _num_chunks(num_tuples: int, num_threads: int, chunk_size: int) -> int:
    """Chunk count for the thread backend: at least one chunk per thread and
    never a chunk larger than ``chunk_size``, clamped so no chunk is empty."""
    return min(num_tuples, max(num_threads, -(-num_tuples // chunk_size)))


def score_tuples(profile_slice: ProfileSlice, tuples: np.ndarray, measure: str,
                 num_threads: int = 1, chunk_size: int = 4096,
                 backend: str = "thread",
                 pool: "Optional[ProcessScoringPool]" = None,
                 generation: Optional[int] = None) -> np.ndarray:
    """Similarity scores for an ``(n, 2)`` tuple array, optionally parallel.

    The result is aligned with ``tuples`` row for row regardless of the
    backend or worker count, so callers never need to re-associate scores
    with pairs.  ``backend="process"`` requires a :class:`ProcessScoringPool`
    whose workers have the same store open; the slice itself stays in the
    calling process and only its user ids cross the pipe.  A pool that is
    kept alive across profile updates must be told the store's current
    ``generation`` (:attr:`OnDiskProfileStore.generation`) so workers drop
    slices cached before the update; with ``None`` the store is assumed
    unchanged for the pool's lifetime.
    """
    check_positive_int(num_threads, "num_threads")
    check_positive_int(chunk_size, "chunk_size")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}")
    tuples = np.asarray(tuples, dtype=np.int64)
    if tuples.size == 0:
        return np.zeros(0, dtype=np.float64)
    if tuples.ndim != 2 or tuples.shape[1] != 2:
        raise ValueError("tuples must be an (n, 2) array")
    if backend == "process":
        if pool is None:
            raise ValueError("backend='process' requires a ProcessScoringPool")
        # a contiguous slice can be identified by its span — the store is
        # immutable under a given generation — letting workers cache the load
        ids = profile_slice.user_ids
        key = None
        if len(ids) and int(ids[-1]) - int(ids[0]) + 1 == len(ids):
            key = ("span", int(ids[0]), int(ids[-1]), generation)
        return pool.score(ids, tuples, measure, key=key, generation=generation)
    if backend == "serial" or num_threads == 1 or len(tuples) <= chunk_size:
        return profile_slice.similarity_pairs(tuples, measure)

    # balance the batch across the pool; the chunk count is clamped to the
    # tuple count so a batch barely above chunk_size never degenerates into
    # near-empty chunks
    chunks = np.array_split(tuples, _num_chunks(len(tuples), num_threads, chunk_size))
    results: list = [None] * len(chunks)
    with ThreadPoolExecutor(max_workers=num_threads) as thread_pool:
        futures = {
            thread_pool.submit(profile_slice.similarity_pairs, chunk, measure): index
            for index, chunk in enumerate(chunks)
        }
        for future, index in futures.items():
            results[index] = future.result()
    return np.concatenate(results)


def fork_available() -> bool:
    """Whether this platform can fork worker processes (cheap pool start-up)."""
    return "fork" in multiprocessing.get_all_start_methods()


# -- shared-memory merged-slice row index ------------------------------------

#: Live (not yet closed) :class:`SharedRowIndex` instances.  Weak so an
#: index dropped without ``close()`` can still be collected — its finalizer
#: unlinks the segment — while the atexit sweep and the no-leak assertion in
#: the crash-matrix suite can enumerate whatever is still open.
_ACTIVE_ROW_INDEXES: "weakref.WeakSet" = weakref.WeakSet()


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Unlink-then-close a segment, tolerating every already-gone state."""
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass  # double-unlink or tracker raced us
    try:
        shm.close()
    except BufferError:
        pass  # an exported view still references the mapping


def _sweep_shared_row_indexes() -> None:
    """Close every still-open :class:`SharedRowIndex` (crash-path cleanup).

    Registered with ``atexit`` so an abnormal coordinator exit — e.g. an
    injected crash raised between creating a segment and unlinking it —
    never strands ``/dev/shm`` segments.  Instance finalizers cover the
    garbage-collection path for indexes orphaned mid-run.
    """
    for index in list(_ACTIVE_ROW_INDEXES):
        index.close()


atexit.register(_sweep_shared_row_indexes)


def active_shared_row_indexes() -> "List[SharedRowIndex]":
    """The coordinator-side shared-index segments currently open.

    The crash-matrix suite asserts this is empty after every kill/recover
    cycle: a non-empty result means a crash path leaked a named segment.
    """
    return [index for index in _ACTIVE_ROW_INDEXES if index._shm is not None]


class SharedRowIndex:
    """A merged-slice row index published once to every scoring worker.

    Merging the two resident partitions' slices needs the stable argsort of
    their concatenated user ids (the id→row index of the merged slice).
    Without sharing, *each* worker re-derives that index for *every*
    residency step it scores a shard of.  The coordinator instead computes
    it once per step, writes it into a ``multiprocessing.shared_memory``
    segment — layout ``[n, user_ids (n), order (n)]`` as int64 — and ships
    only the ``(name, n)`` descriptor over the pipe; workers map the
    segment read-only and build the merged slice via
    :meth:`ProfileSlice.merge_indexed` with zero index computation and
    zero index copies.

    Lifecycle: the coordinator creates the segment just before the step's
    ``score`` call and closes+unlinks it right after (``score`` returns
    only when every shard — hence every attachment — is done).  Workers
    keep their attachment alive while their cached merged slice references
    it and drop it when the next step's descriptor arrives; an unlinked
    segment stays readable until the last attachment closes (POSIX).
    """

    def __init__(self, user_ids: np.ndarray, order: np.ndarray):
        user_ids = np.ascontiguousarray(user_ids, dtype=np.int64)
        order = np.ascontiguousarray(order, dtype=np.int64)
        if len(user_ids) != len(order):
            raise ValueError("user_ids and order must have equal length")
        n = len(user_ids)
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(create=True, size=max(8, (1 + 2 * n) * 8)))
        data = np.frombuffer(self._shm.buf, dtype=np.int64)
        data[0] = n
        data[1:1 + n] = user_ids
        data[1 + n:1 + 2 * n] = order
        del data  # drop the exported view so close() can succeed
        #: ``(segment name, row count)`` — what crosses the pipe.
        self.descriptor: Tuple[str, int] = (self._shm.name, n)
        # crash safety: if this index is orphaned (exception between create
        # and close) the finalizer unlinks the segment at GC or interpreter
        # exit, and the atexit sweep catches whatever is still reachable
        self._finalizer = weakref.finalize(self, _release_segment, self._shm)
        _ACTIVE_ROW_INDEXES.add(self)

    def close(self) -> None:
        """Unlink and release the segment (idempotent).

        Unlink runs first: it never raises ``BufferError``, so the name is
        removed from ``/dev/shm`` even if a stray exported view makes
        ``close()`` fail (the mapping is then freed at process exit, but
        never leaks a named segment per residency step).
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self._finalizer.detach()
        _ACTIVE_ROW_INDEXES.discard(self)
        _release_segment(shm)

    def __enter__(self) -> "SharedRowIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _ensure_shared_resource_tracker() -> None:
    """Start the multiprocessing resource tracker *before* the pool forks.

    Python < 3.13 registers every ``SharedMemory`` — attachments included
    (gh-82300) — with the resource tracker.  When the tracker is already
    running at fork time, parent and workers inherit one tracker whose
    name cache is a set: the workers' attach-time registrations are
    idempotent re-adds, and the coordinator's ``unlink`` removes the name
    exactly once — no spurious "leaked shared_memory" warnings, no
    double-unregister tracebacks.  A tracker started lazily *after* the
    fork would instead be per-process, and each worker's copy would try to
    unlink the coordinator's segments at exit.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except Exception:
        pass  # tracker unavailable: shared-index cleanup is best-effort


# -- process backend ---------------------------------------------------------
#
# Worker-side state: one re-opened store per worker process, a small cache
# of per-partition slices (each partition is one contiguous id run under
# the paper's split, so these are zero-copy mmap views — cheap to keep
# resident across residency steps), and the most recently merged slice,
# keyed so that the shards of one residency step all reuse a single merge.
# A pool now *outlives* phase 4 — the engine keeps one alive for the whole
# run — so store immutability is tracked explicitly: every ``score`` call
# carries the store's generation counter, and a worker seeing a newer
# generation than its caches were loaded under re-opens the store and drops
# every cached slice before scoring (phase-5 updates replace journal and
# segment files, so stale maps must never be read).  Cache keys are scoped
# by the caller (phase 4 keys them by iteration) so a partition id reused
# across iterations with different vertices never hits a stale entry.

_WORKER_STORE: Optional[OnDiskProfileStore] = None
_WORKER_PARTS: "dict[object, ProfileSlice]" = {}
_WORKER_SLICE: Tuple[Optional[object], Optional[ProfileSlice]] = (None, None)
_WORKER_GENERATION: Optional[int] = None
_WORKER_INDEX: Tuple[Optional[str], Optional[shared_memory.SharedMemory]] = (
    None, None)

#: Per-partition slices a worker keeps resident (mirrors the coordinator's
#: small partition cache; the slices are views, so this bounds mapping count,
#: not bytes).
_WORKER_PART_CACHE_SLOTS = 4


def _compact_ids(user_ids) -> "Union[range, np.ndarray]":
    """Contiguous id runs travel the pipe as an O(1) ``range``, not an array."""
    ids = np.ascontiguousarray(user_ids, dtype=np.int64)
    if len(ids) and int(ids[-1]) - int(ids[0]) + 1 == len(ids):
        return range(int(ids[0]), int(ids[-1]) + 1)
    return ids


def _init_scoring_worker(store_dir: str) -> None:
    global _WORKER_STORE, _WORKER_PARTS, _WORKER_SLICE, _WORKER_GENERATION
    global _WORKER_INDEX
    # the coordinator charges slice reads once for the whole pool, so the
    # worker's own accounting uses the free device model
    _WORKER_STORE = OnDiskProfileStore(store_dir, disk_model="instant")
    _WORKER_PARTS = {}
    _WORKER_SLICE = (None, None)
    _WORKER_GENERATION = None
    _WORKER_INDEX = (None, None)


def _attach_row_index(descriptor: Tuple[str, int]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Map a :class:`SharedRowIndex` segment and return ``(user_ids, order)``.

    The attachment is cached by segment name: all shards of one residency
    step (and the cached merged slice built from them) share one mapping.
    When a new step's descriptor arrives the previous merged slice is
    dropped *first* — its arrays view the old segment — and the old
    attachment closed.
    """
    global _WORKER_INDEX, _WORKER_SLICE
    name, n = descriptor
    if _WORKER_INDEX[0] != name:
        _WORKER_SLICE = (None, None)
        old = _WORKER_INDEX[1]
        _WORKER_INDEX = (None, None)
        if old is not None:
            try:
                old.close()
            except BufferError:
                pass  # a stray view still references it; freed at exit
        # attaching re-registers the name with the (shared, pre-fork)
        # resource tracker — an idempotent set-add; the coordinator's
        # unlink removes it (see _ensure_shared_resource_tracker)
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_INDEX = (name, shm)
    data = np.frombuffer(_WORKER_INDEX[1].buf, dtype=np.int64)
    count = int(data[0])
    if count != n:
        raise ValueError(f"shared row index {name} holds {count} rows, "
                         f"descriptor says {n}")
    return data[1:1 + n], data[1 + n:1 + 2 * n]


def _worker_part_slice(part_key: object, user_ids: np.ndarray) -> ProfileSlice:
    if part_key is None:  # uncacheable ad-hoc id set
        return _WORKER_STORE.load_users(user_ids)
    piece = _WORKER_PARTS.get(part_key)
    if piece is None:
        piece = _WORKER_STORE.load_users(user_ids)
        while len(_WORKER_PARTS) >= _WORKER_PART_CACHE_SLOTS:
            _WORKER_PARTS.pop(next(iter(_WORKER_PARTS)))
        _WORKER_PARTS[part_key] = piece
    return piece


def _score_shard(key: object, parts: "Sequence[Tuple[object, np.ndarray]]",
                 tuples: np.ndarray, measure: str,
                 generation: Optional[int] = None,
                 row_index: Optional[Tuple[str, int]] = None,
                 fault: Optional[Tuple[str, float]] = None) -> np.ndarray:
    """Score one tuple shard against the union of the given partition slices.

    ``parts`` is ``[(part_key, user_ids), ...]``; each partition is loaded
    (zero-copy for contiguous runs) and cached by key, and the merged slice
    is cached per ``key`` so all shards of one residency step share it.
    Merging per-partition slices is exactly what the in-process backends do,
    so scores stay bit-identical.  A ``generation`` newer than the one the
    caches were loaded under means the store files changed underneath us
    (phase-5 updates): the store is re-opened and every cached slice dropped
    before anything is loaded.  ``row_index`` names a
    :class:`SharedRowIndex` segment carrying the two partitions' merged
    id→row index, replacing the per-step argsort re-gather; merging through
    it is exactly equivalent (:meth:`ProfileSlice.merge_indexed`).
    """
    global _WORKER_SLICE, _WORKER_GENERATION
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
        _WORKER_SLICE = (None, None)
        _WORKER_GENERATION = generation
    if key is None or _WORKER_SLICE[0] != key:
        pieces = [_worker_part_slice(part_key, user_ids)
                  for part_key, user_ids in parts]
        if row_index is not None and len(pieces) == 2:
            user_ids, order = _attach_row_index(row_index)
            merged: Optional[ProfileSlice] = pieces[0].merge_indexed(
                pieces[1], user_ids, order)
        else:
            merged = None
            for piece in pieces:
                merged = piece if merged is None else merged.merge(piece)
        _WORKER_SLICE = (key, merged)
    return _WORKER_SLICE[1].similarity_pairs(tuples, measure)


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
        self._executor = self._build_executor()

    def _build_executor(self) -> ProcessPoolExecutor:
        # workers must inherit a running resource tracker so shared-index
        # segments are tracked by one process, not one copy per worker
        _ensure_shared_resource_tracker()
        # fork (where available) shares the parent's imports copy-on-write;
        # the workers re-open the store themselves in the initializer
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        return ProcessPoolExecutor(
            max_workers=self._num_workers,
            mp_context=context,
            initializer=_init_scoring_worker,
            initargs=(self._store_dir,),
        )

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
        self._executor = self._build_executor()

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def respawns(self) -> int:
        """How many times supervision replaced the worker pool."""
        return self._respawns

    def score(self, user_ids: Optional[np.ndarray], tuples: np.ndarray,
              measure: str, key: object = None,
              parts: "Optional[Sequence[Tuple[object, np.ndarray]]]" = None,
              generation: Optional[int] = None,
              row_index: Optional[Tuple[str, int]] = None) -> np.ndarray:
        """Score ``tuples`` against a set of loaded profiles, sharded.

        ``parts`` — ``[(part_key, user_ids), ...]`` — names the resident
        partitions of one residency step: workers load each partition slice
        once (zero-copy for a contiguous partition), keep it cached by
        ``part_key`` across steps, and merge exactly as the in-process
        backends do, so scores stay bit-identical.  Without ``parts``, the
        flat ``user_ids`` array is loaded as one slice (cached under ``key``
        when given).  ``key`` identifies the merged slice across the shards
        of one call — phase 4 passes one key per residency step.

        ``generation`` is the store's update counter: a pool that survives
        profile updates (the engine keeps one alive across iterations) must
        pass the current value so workers invalidate their cached slices
        after every phase-5 batch.  ``None`` keeps the legacy contract (the
        store never changes while the pool is alive).

        ``row_index`` is the descriptor of a :class:`SharedRowIndex`
        holding the merged id→row index of exactly two ``parts``; workers
        then skip the per-step merge argsort.  The caller must keep the
        segment alive until this call returns (every attachment happens
        inside the shard tasks) and may unlink it immediately after.
        """
        tuples = np.asarray(tuples, dtype=np.int64)
        if tuples.size == 0:
            return np.zeros(0, dtype=np.float64)
        if tuples.ndim != 2 or tuples.shape[1] != 2:
            raise ValueError("tuples must be an (n, 2) array")
        if parts is None:
            if user_ids is None:
                raise ValueError("provide user_ids or parts")
            part_key = ("slice", key) if key is not None else None
            parts = [(part_key, _compact_ids(user_ids))]
        else:
            parts = [(part_key, _compact_ids(ids)) for part_key, ids in parts]
        shards = [shard for shard
                  in np.array_split(tuples, min(self._num_workers, len(tuples)))
                  if len(shard)]
        for attempt in range(self._max_retries + 1):
            fault = (self._fault_plan.take_worker_fault()
                     if self._fault_plan is not None else None)
            try:
                return self._score_attempt(
                    key, parts, shards, measure, generation, row_index, fault)
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

    def _score_attempt(self, key, parts, shards, measure, generation,
                       row_index, fault) -> np.ndarray:
        """One submission of the full shard batch (the retry unit).

        A ``fault`` directive ``(mode, shard_index, seconds)`` is attached
        to exactly the targeted shard.  The per-shard watchdog applies the
        timeout to each ``result()`` wait; on expiry the not-yet-started
        shards are cancelled before the supervisor respawns the pool.
        """
        futures = []
        for index, shard in enumerate(shards):
            shard_fault = None
            if fault is not None and index == fault[1] % len(shards):
                shard_fault = (fault[0], fault[2])
            futures.append(self._executor.submit(
                _score_shard, key, parts, shard, measure, generation,
                row_index, shard_fault))
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
    step identity (``key`` — scoped per iteration so caches never serve a
    stale pair), the owned partitions as ``(part_key, user_ids)`` descriptors
    (contiguous runs travel as O(1) ranges via :func:`_compact_ids`), the
    dirty tuple batch to score, the similarity measure and the store
    generation the worker must have loaded.  Workers never receive profile
    bytes — they open the store by path (today: the pool initializer; later:
    an RPC server's own replica) — so routing a task to a remote shard server
    is a pure placement decision.
    """

    key: Tuple[int, int, int]
    parts: "Tuple[Tuple[object, Union[range, np.ndarray]], ...]"
    tuples: np.ndarray
    measure: str
    generation: Optional[int]


@dataclass(frozen=True)
class ShardDelta:
    """One worker's answer for one step: ``scores``, aligned with the task's
    tuples row for row (phase 4 scatters them into its score slab, which
    feeds both the graph merge and the score cache)."""

    scores: np.ndarray


def _execute_shard_step(task: ShardStepTask,
                        fault: Optional[Tuple[str, float]] = None) -> ShardDelta:
    """Worker entry point: score one whole residency step.

    Runs in a pool worker for the process backend (reusing the worker-global
    store/slice caches of :func:`_score_shard`) and inline for the
    serial/thread backends' scoring half.
    """
    return ShardDelta(scores=_score_shard(task.key, task.parts, task.tuples,
                                          task.measure, task.generation, None,
                                          fault))


def _ids_array(ids: "Union[range, np.ndarray]") -> np.ndarray:
    if isinstance(ids, range):
        return np.arange(ids.start, ids.stop, dtype=np.int64)
    return np.ascontiguousarray(ids, dtype=np.int64)


class ShardCoordinator:
    """Executes waves of partition-disjoint residency steps concurrently.

    Ownership model: within one wave no two steps share a partition
    (guaranteed by ``plan_shard_schedule``), so the worker executing a step
    holds exclusive ownership of that step's partitions for the wave — there
    is no cross-worker coordination on profile state, only the barrier
    between waves.  Each backend realises the same contract:

    * ``serial`` — steps run inline, one after another (the degrade target).
    * ``thread`` — the coordinator materialises each step's merged mmap
      slice serially (keeping store access single-threaded), then scores the
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
        merged = [self._local_merged(task) for task in tasks]
        if self._backend == "thread" and self._num_workers > 1 and len(tasks) > 1:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self._num_workers)
            futures = [self._executor.submit(self._score_merged, piece, task)
                       for piece, task in zip(merged, tasks)]
            return [future.result() for future in futures]
        return [self._score_merged(piece, task)
                for piece, task in zip(merged, tasks)]

    @staticmethod
    def _score_merged(merged: ProfileSlice, task: ShardStepTask) -> ShardDelta:
        return ShardDelta(scores=merged.similarity_pairs(task.tuples,
                                                         task.measure))

    def _charge(self, task: ShardStepTask) -> None:
        if self._budget is None:
            return
        resident = sum(len(ids) for _, ids in task.parts) * self._bytes_per_user
        self._budget.record_transient(resident)

    def _local_merged(self, task: ShardStepTask) -> ProfileSlice:
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
        merged: Optional[ProfileSlice] = None
        for part_key, ids in task.parts:
            piece = self._local_parts.get(part_key)
            if piece is None:
                piece = store.load_users(_ids_array(ids))
                while len(self._local_parts) >= self._part_cache_slots:
                    self._local_parts.pop(next(iter(self._local_parts)))
                self._local_parts[part_key] = piece
            merged = piece if merged is None else merged.merge(piece)
        return merged

    # -- process backend supervision -----------------------------------------

    def _build_executor(self) -> ProcessPoolExecutor:
        _ensure_shared_resource_tracker()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        return ProcessPoolExecutor(
            max_workers=self._num_workers,
            mp_context=context,
            initializer=_init_scoring_worker,
            initargs=(self._store_dir,),
        )

    def _execute_wave_process(self, tasks: Sequence[ShardStepTask]
                              ) -> List[ShardDelta]:
        for attempt in range(self._max_retries + 1):
            fault = (self._fault_plan.take_worker_fault()
                     if self._fault_plan is not None else None)
            if self._executor is None:
                self._executor = self._build_executor()
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
