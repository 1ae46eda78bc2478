"""The worker seam: who runs phase 4's similarity kernel.

Phase 4 is one loop — make a step's partitions resident, score its tuples,
let them go — and the only parallelism it needs is *who runs the kernel*.
That choice lives behind one call, :meth:`ScoringWorkers.execute`, whose
contract is deliberately narrow: the step's resident slices, its PI edges
as partition-local row batches into them and the measure go in, one score
array comes out, and nothing else crosses the boundary.  The slices are
the residency model's (``core/iteration.py``): it loads and charges each
once per partition residency, so the seam holds no store and no cache.

Everything is scored in one process, by one of two transports picked once
from ``num_workers``:

* **inline** — the calling thread scores every step (``num_workers == 1``,
  the default).
* **thread** — a run-lifetime pool of ``num_workers`` threads.  The
  dense-profile kernels are NumPy calls that release the GIL, and the
  threads share the caller's slices, so nothing is copied to hand a step
  over.

On the thread transport a step is cut row-wise into pieces over the same
slices.  Scores come back aligned with the step's rows whatever the
transport or the cut, so results are bit-identical to the inline path.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.profile_store import ProfileSlice
from repro.utils.validation import check_positive_int

#: The PI edges of one step: ``(left slice, right slice, left_rows,
#: right_rows)`` — the slices as indices into the step's slices, the rows
#: local to those partitions.
RowBatch = Tuple[int, int, np.ndarray, np.ndarray]

#: Rows above which a step's batch is cut across the workers; a smaller
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


def _score_batches(slices: Sequence[ProfileSlice], batches: Sequence[RowBatch],
                   measure: str, score: Callable[..., np.ndarray]) -> np.ndarray:
    """Scores of every batch, concatenated in batch order."""
    scores = [score(slices[left], left_rows, slices[right], right_rows, measure)
              for left, right, left_rows, right_rows in batches]
    return scores[0] if len(scores) == 1 else np.concatenate(scores)


def _split_rows(batches: Sequence[RowBatch], width: int
                ) -> Tuple[List[List[RowBatch]], List[List[Tuple[int, int]]], int]:
    """One step's batches as at most ``width`` pieces.

    Every batch above :data:`SPLIT_FLOOR_ROWS` is cut in ``np.array_split``
    order and piece ``j`` takes the ``j``-th cut of each.  Returns the
    pieces, for each the ``[lo, hi)`` runs of the step's score array its
    scores fill in order, and the step's total row count.
    """
    pieces: List[List[RowBatch]] = [[] for _ in range(width)]
    runs: List[List[Tuple[int, int]]] = [[] for _ in range(width)]
    offset = 0
    for left, right, left_rows, right_rows in batches:
        rows = len(left_rows)
        cuts = min(width, rows) if rows > SPLIT_FLOOR_ROWS else 1
        for index, (left_piece, right_piece) in enumerate(
                zip(np.array_split(left_rows, cuts),
                    np.array_split(right_rows, cuts))):
            pieces[index].append((left, right, left_piece, right_piece))
            runs[index].append((offset, offset + len(left_piece)))
            offset += len(left_piece)
    return ([piece for piece in pieces if piece], [run for run in runs if run],
            offset)


class ScoringWorkers:
    """The one executor behind phase 4: ``execute(slices, batches, measure)
    -> scores``.

    One call is one residency step.  With ``num_workers == 1`` the calling
    thread scores it.  Wider, it is cut row-wise into pieces over the same
    slices (:func:`_split_rows`), which a thread pool of that width scores
    side by side, and its scores are reassembled in order; there is no
    cross-worker coordination on profile state, only the barrier the call
    itself is.  The pool is built on first use and kept for the whole run;
    the default configuration never builds one.

    ``score`` is the kernel dispatch; phase 4 passes its own module's
    :func:`score_tuples` binding, so whatever replaces that name — a
    tracer, a native kernel — sees every score computed here.
    """

    def __init__(self, num_workers: int = 1,
                 score: Callable[..., np.ndarray] = score_tuples):
        check_positive_int(num_workers, "num_workers")
        self._num_workers = num_workers
        self._score = score
        self._executor: Optional[ThreadPoolExecutor] = None  # built on first use

    @property
    def transport(self) -> str:
        """``"inline"`` or ``"thread"`` — what runs the kernel."""
        return "inline" if self._num_workers == 1 else "thread"

    # -- the seam ------------------------------------------------------------

    def execute(self, slices: Sequence[ProfileSlice],
                batches: Sequence[RowBatch], measure: str) -> np.ndarray:
        """Score one step: its scores, aligned with its batches
        concatenated in order."""
        if self._num_workers > 1:
            pieces, runs, total = _split_rows(batches, self._num_workers)
            if len(pieces) > 1:  # something above the floor was cut
                return self._score_cut(slices, pieces, runs, total, measure)
        return _score_batches(slices, batches, measure, self._score)

    def _score_cut(self, slices: Sequence[ProfileSlice],
                   pieces: Sequence[Sequence[RowBatch]],
                   runs: Sequence[Sequence[Tuple[int, int]]],
                   total: int, measure: str) -> np.ndarray:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self._num_workers)
        futures = [self._executor.submit(_score_batches, slices, piece, measure,
                                         self._score)
                   for piece in pieces]
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
        """Release the pool (idempotent; a later :meth:`execute` builds it
        again)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ScoringWorkers":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
