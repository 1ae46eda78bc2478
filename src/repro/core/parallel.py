"""The worker seam: who runs phase 4's similarity kernel.

Phase 4 is one loop — make a step's partitions resident, score its tuples,
let them go — and the only parallelism it needs is *who runs the kernel*.
That choice lives behind one call, :meth:`ScoringWorkers.execute`, whose
contract is deliberately narrow and serialisable: one
:class:`ShardStepTask` work order goes in (the partitions a step owns, the
step's PI edges as partition-local row batches, the measure, the store
generation), one score array comes out, and nothing else crosses the
boundary.

Everything is scored in one process, by one of two transports picked once
from ``num_workers``:

* **inline** — the calling thread scores every task (``num_workers == 1``,
  the default).
* **thread** — a run-lifetime pool of ``num_workers`` threads.  The
  dense-profile kernels are NumPy calls that release the GIL, and the
  threads share the slices the calling thread loaded, so nothing is copied
  to hand a task over.

On the thread transport a step is cut row-wise into sub-tasks over the same
partitions.  Scores come back aligned with the task's rows whatever the
transport or the cut, so results are bit-identical to the inline path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.storage.profile_store import OnDiskProfileStore, ProfileSlice
from repro.utils.validation import check_positive_int

#: A partition as the seam sees it: ``(cache key, user ids)``.  The loaded
#: slice is cached under the key (``None`` = ad-hoc id set, never cached).
PartDescriptor = Tuple[object, np.ndarray]

#: The PI edges of one work order: ``(left part, right part, left_rows,
#: right_rows)`` — the parts as indices into the order's part descriptors,
#: the rows local to those partitions.
RowBatch = Tuple[int, int, np.ndarray, np.ndarray]

#: Rows above which a task's batch is cut across the workers; a smaller
#: batch costs more to hand over than to score where it is.
SPLIT_FLOOR_ROWS = 4096


def score_tuples(left: ProfileSlice, left_rows: np.ndarray,
                 right: ProfileSlice, right_rows: np.ndarray,
                 measure: str) -> np.ndarray:
    """Similarity of row ``left_rows[i]`` of ``left`` against row
    ``right_rows[i]`` of ``right`` for every ``i``, on the calling thread.

    ``left`` and ``right`` are the slices of the two resident partitions
    (the same object for tuples inside one partition) and the rows are
    partition-local.  This is the kernel dispatch: every score either
    transport computes goes through it.
    """
    return left.similarity_rows(left_rows, right, right_rows, measure)


@dataclass(frozen=True)
class ShardStepTask:
    """Serialisable work order for one residency step.

    Everything the kernel needs is in this one object: the owned partitions
    as ``(part_key, user_ids)`` descriptors (part keys scoped per iteration
    so the part cache never serves a stale partition), the step's PI edges
    as :data:`RowBatch` entries — partition-local rows into those parts —
    the similarity measure, the store generation the slices must have been
    loaded under (``None`` = the store never changes while the workers
    live) and the bytes the memory budget leaves free at this step
    (``None`` = no budget), which the kernel's derived state of the cached
    slices must fit (:meth:`_WorkerState.slices`).  No profile bytes ride
    in a task: the workers open the store by path.
    """

    parts: Tuple[PartDescriptor, ...]
    batches: Tuple[RowBatch, ...]
    measure: str
    generation: Optional[int]
    headroom_bytes: Optional[float] = None


# -- the slices ------------------------------------------------------------------
#
# The workers keep one store handle and a small cache of per-partition slices
# (each partition is one contiguous id run under the paper's split, so these
# are zero-copy views of the mapped files — cheap to keep across tasks).  A
# work order addresses those slices by partition-local row, so nothing is
# merged or looked up by id.  The workers *outlive* phase 4 — the engine
# keeps them for the whole run — so store immutability is tracked
# explicitly: every task carries the store's generation counter, and a task
# with a newer generation than the cache was loaded under re-opens the store
# and drops every cached slice before scoring (phase-5 updates replace
# journal and segment files, so stale maps must never be read).  Cache keys
# are scoped by the caller (phase 4 keys them by iteration) so a partition id
# reused across iterations with different vertices never hits a stale entry.


class _WorkerState:
    """What the scoring workers hold between tasks: their store handle,
    their part cache and the generation both were loaded under."""

    def __init__(self, store_dir: str, slots: int):
        self._store_dir = store_dir
        self._slots = slots
        self._store: Optional[OnDiskProfileStore] = None
        self._parts: Dict[object, ProfileSlice] = {}
        self._generation: Optional[int] = None

    def slices(self, task: ShardStepTask) -> List[ProfileSlice]:
        """The slice of each of the task's parts, generation-checked.

        The task's headroom is split evenly between the cache's slots, and
        every slice held caps its derived state at one share, so what the
        kernel derives from the cached slices stays within the headroom it
        was given.
        """
        store = self._store
        if store is None:
            # an own read-only handle with the free device model: the
            # residency model charges the slice reads, once per partition
            # residency — never the handle that happens to map the bytes
            store = self._store = OnDiskProfileStore(self._store_dir,
                                                     disk_model="instant")
        if task.generation is not None and task.generation != self._generation:
            store.reload()
            self._parts.clear()
            self._generation = task.generation
        slices = [self._cached_part_slice(store, part) for part in task.parts]
        share = (None if task.headroom_bytes is None
                 else task.headroom_bytes / self._slots)
        for piece in [*self._parts.values(), *slices]:
            piece.cap_derived_bytes(share)
        return slices

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
            return store.load_users(ids)
        piece = self._parts.pop(part_key, None)
        if piece is None:
            piece = store.load_users(ids)
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
    """The one executor behind phase 4: ``execute(task) -> scores``.

    ``task`` is one residency step.  With ``num_workers == 1`` the calling
    thread scores it.  Wider, it is cut row-wise into sub-tasks over the
    same partitions (:func:`_split_rows`), which a thread pool of that width
    scores side by side, and its scores are reassembled in order; there is
    no cross-worker coordination on profile state, only the barrier the call
    itself is.  The pool is built on first use and kept for the whole run;
    the default configuration never builds one.

    The workers cache at most ``part_cache_slots`` slices — the
    two-resident-partitions envelope, which also survives partitioners
    whose slices are gathered copies rather than views.

    ``score`` is the kernel dispatch; phase 4 passes its own module's
    :func:`score_tuples` binding, so whatever replaces that name — a
    tracer, a native kernel — sees every score computed here.
    """

    def __init__(self, store: Union[OnDiskProfileStore, str, os.PathLike],
                 num_workers: int = 1,
                 part_cache_slots: int = 2,
                 score: Callable[..., np.ndarray] = score_tuples):
        check_positive_int(num_workers, "num_workers")
        check_positive_int(part_cache_slots, "part_cache_slots")
        store_dir = store.base_dir if isinstance(store, OnDiskProfileStore) else store
        self._num_workers = num_workers
        self._score = score
        self._executor: Optional[ThreadPoolExecutor] = None  # built on first use
        self._state = _WorkerState(str(store_dir), part_cache_slots)

    @property
    def transport(self) -> str:
        """``"inline"`` or ``"thread"`` — what runs the kernel."""
        return "inline" if self._num_workers == 1 else "thread"

    # -- the seam ------------------------------------------------------------

    def execute(self, task: ShardStepTask) -> np.ndarray:
        """Score one task: its scores, aligned with its batches concatenated
        in order."""
        if self._num_workers > 1:
            subtasks, runs, total = _split_rows(task, self._num_workers)
            if len(subtasks) > 1:  # something above the floor was cut
                return self._score_cut(subtasks, runs, total)
        return _score_batches(self._state.slices(task), task, self._score)

    def _score_cut(self, subtasks: Sequence[ShardStepTask],
                   runs: Sequence[Sequence[Tuple[int, int]]],
                   total: int) -> np.ndarray:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self._num_workers)
        # slices are resolved here, one sub-task after another, so the store
        # handle and the part cache are only ever touched by this thread
        futures = [self._executor.submit(_score_batches,
                                         self._state.slices(subtask), subtask,
                                         self._score)
                   for subtask in subtasks]
        scores = np.empty(total, dtype=np.float64)
        for future, piece_runs in zip(futures, runs):
            piece = future.result()
            start = 0
            for lo, hi in piece_runs:
                scores[lo:hi] = piece[start:start + hi - lo]
                start += hi - lo
        return scores

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        """Release the pool and the slices (idempotent; a later
        :meth:`execute` builds what it needs again)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self._state.release()

    def __enter__(self) -> "ScoringWorkers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
