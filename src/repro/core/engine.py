"""The public out-of-core KNN engine.

:class:`KNNEngine` wires the whole system together: it persists the user
profiles to disk, initialises (or accepts) a KNN graph ``G(0)``, and runs
the five-phase iteration of :mod:`repro.core.iteration` until an iteration
budget or a convergence threshold is reached.  Profile changes can be fed
to the engine at any time; they are buffered in the phase-5 update queue
and applied between iterations, exactly as the paper prescribes.

Typical usage::

    from repro import EngineConfig, KNNEngine
    from repro.similarity import generate_dense_profiles

    profiles = generate_dense_profiles(num_users=2000, dim=16, seed=1)
    config = EngineConfig(k=10, num_partitions=8, heuristic="degree-low-high")
    with KNNEngine(profiles, config) as engine:
        result = engine.run(num_iterations=5)
    print(result.final_graph.neighbors(0))
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.core.checkpoint import (CloneStats, load_portable_checkpoint,
                                   restore_profile_store,
                                   save_portable_checkpoint,
                                   verify_checkpoint,
                                   write_checkpoint_checksums)
from repro.core.config import EngineConfig
from repro.core.convergence import ConvergenceTracker
from repro.core.iteration import IterationResult, OutOfCoreIteration, Phase4ScoreCache
from repro.core.update_queue import (ProfileUpdateQueue, change_from_manifest,
                                     change_to_manifest)
from repro.graph.knn_graph import KNNGraph
from repro.similarity.profiles import ProfileStoreBase
from repro.similarity.workloads import ProfileChange
from repro.storage.io_stats import IOStats
from repro.storage.profile_store import OnDiskProfileStore, partition_aligned_bounds
from repro.utils.logging import get_logger
from repro.utils.timer import PhaseTimer
from repro.utils.validation import check_positive_int

_logger = get_logger("core.engine")


# the checkpoint serialisation of a ProfileChange lives with the WAL codec
# (same wire format); re-exported here for backwards compatibility
_change_to_manifest = change_to_manifest
_change_from_manifest = change_from_manifest


def _config_from_manifest(saved: dict, directory) -> EngineConfig:
    """The :class:`EngineConfig` a checkpoint manifest saved.

    The manifest is outside input — older commits wrote it — so knobs retired
    since are translated rather than handed to the constructor: a saved
    ``adaptive_score_cache`` is dropped (it never changed results), a saved
    ``num_threads`` becomes the ``num_workers`` of a ``"thread"`` backend and
    is dropped otherwise.  Any other key this version does not know is an
    error that names the key and the checkpoint.
    """
    saved = dict(saved)
    saved.pop("adaptive_score_cache", None)
    num_threads = saved.pop("num_threads", None)
    if num_threads is not None and saved.get("backend") == "thread":
        saved["num_workers"] = num_threads
    unknown = sorted(saved.keys() - {spec.name for spec in fields(EngineConfig)})
    if unknown:
        raise ValueError(
            f"checkpoint under {directory} saved engine_config key(s) "
            f"{', '.join(unknown)} that this version does not know; pass "
            "config= explicitly")
    return EngineConfig(**saved)


def _scan_commit_epochs(commits_dir: Path) -> List[Tuple[int, Path]]:
    """``(epoch, path)`` for every sealed commit directory, ascending."""
    epochs: List[Tuple[int, Path]] = []
    if commits_dir.is_dir():
        for path in commits_dir.glob("epoch_*"):
            if not path.is_dir() or path.name.endswith(".tmp"):
                continue
            try:
                epochs.append((int(path.name.split("_", 1)[1]), path))
            except ValueError:
                continue
    return sorted(epochs)


@dataclass
class EngineRunResult:
    """Aggregate outcome of a :meth:`KNNEngine.run` call."""

    iterations: List[IterationResult]
    final_graph: KNNGraph
    convergence: ConvergenceTracker
    total_io: IOStats
    total_phases: PhaseTimer

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_similarity_evaluations(self) -> int:
        return sum(result.similarity_evaluations for result in self.iterations)

    @property
    def total_load_unload_operations(self) -> int:
        return sum(result.load_unload_operations for result in self.iterations)

    def summary(self) -> dict:
        return {
            "num_iterations": self.num_iterations,
            "converged": self.convergence.converged,
            "total_similarity_evaluations": self.total_similarity_evaluations,
            "total_load_unload_operations": self.total_load_unload_operations,
            "simulated_io_seconds": self.total_io.simulated_io_seconds,
            "phase_seconds": self.total_phases.as_dict(),
            "change_rates": list(self.convergence.change_rates),
            "recalls": list(self.convergence.recalls),
        }


class KNNEngine:
    """Out-of-core KNN computation on a single (memory-constrained) machine."""

    def __init__(self, profiles: Union[ProfileStoreBase, OnDiskProfileStore],
                 config: Optional[EngineConfig] = None,
                 workdir: Optional[Union[str, Path]] = None,
                 initial_graph: Optional[KNNGraph] = None):
        self._config = config if config is not None else EngineConfig()
        if profiles.num_users <= self._config.k:
            raise ValueError(
                f"the profile store has {profiles.num_users} users but k={self._config.k}; "
                "KNN needs more users than neighbours"
            )
        if self._config.num_partitions > profiles.num_users:
            raise ValueError(
                f"num_partitions ({self._config.num_partitions}) exceeds the number of "
                f"users ({profiles.num_users})"
            )
        self._owns_workdir = workdir is None
        self._workdir = Path(workdir) if workdir is not None else Path(
            tempfile.mkdtemp(prefix="repro-knn-"))
        self._workdir.mkdir(parents=True, exist_ok=True)
        self._closed = False
        self._resume_clone_stats: Optional[CloneStats] = None

        if isinstance(profiles, OnDiskProfileStore):
            # zero-copy resume: the existing store's files are hard-linked
            # (immutable segments) or copied (in-place-mutated files) into
            # the engine's workdir — no profile matrix is ever loaded into
            # memory.  The snapshot's on-disk layout (segment bounds,
            # format version, generation counter) is carried over as-is.
            self._profile_store, self._resume_clone_stats = restore_profile_store(
                profiles.base_dir, self._workdir / "profiles",
                disk_model=self._config.disk_model)
        else:
            self._profile_store = OnDiskProfileStore.create(
                self._workdir / "profiles", profiles,
                disk_model=self._config.disk_model,
                segment_bounds=self._segment_bounds(profiles.num_users))
        # a configured fault plan observes every durability-relevant file
        # operation the engine performs (deterministic fault injection)
        self._profile_store.fault_plan = self._config.fault_plan
        self._iteration_runner = OutOfCoreIteration(
            self._config, self._profile_store)
        wal_path = (self._workdir / "wal.bin") if self._config.durable else None
        self._update_queue = ProfileUpdateQueue(
            wal_path=wal_path, fault_plan=self._config.fault_plan)
        self._wal_replayed = 0
        self._has_commit = False  # flips once: the first sealed epoch

        if initial_graph is not None:
            if initial_graph.num_vertices != profiles.num_users:
                raise ValueError("initial_graph vertex count does not match the profiles")
            self._graph = initial_graph.copy()
        else:
            self._graph = KNNGraph.random(
                profiles.num_users, self._config.k, seed=self._config.seed)
        self._iterations_run = 0

    def _segment_bounds(self, num_users: int) -> Optional[list]:
        """Sparse-segment boundaries for the on-disk profile store.

        An explicit ``profile_segment_rows`` wins; otherwise the bounds
        follow the contiguous partitioner's n/m split so every partition's
        profile slice maps to exactly one segment (zero-copy loads, and
        phase-5 segment rewrites stay partition-local).  Scattering
        partitioners get the store's default uniform segments.
        """
        config = self._config
        if config.profile_segment_rows is not None:
            step = min(config.profile_segment_rows, num_users)
            bounds = list(range(0, num_users, step))
            bounds.append(num_users)
            return sorted(set(bounds))
        if config.partitioner == "contiguous":
            return partition_aligned_bounds(num_users, config.num_partitions)
        return None

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "KNNEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Release the scoring pool and on-disk scratch space (if owned)."""
        if self._closed:
            return
        self._closed = True
        self._iteration_runner.close()
        self._update_queue.close()
        if self._owns_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    # -- accessors ---------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def workdir(self) -> Path:
        return self._workdir

    @property
    def graph(self) -> KNNGraph:
        """The current KNN graph ``G(t)``."""
        return self._graph

    @property
    def iterations_run(self) -> int:
        return self._iterations_run

    @property
    def update_queue(self) -> ProfileUpdateQueue:
        return self._update_queue

    @property
    def profile_store(self) -> OnDiskProfileStore:
        return self._profile_store

    # -- profile changes -----------------------------------------------------------

    def enqueue_profile_change(self, change: ProfileChange) -> None:
        """Buffer a profile change; it is applied at the end of the current iteration."""
        self._update_queue.enqueue(change)

    def enqueue_profile_changes(self, changes: Iterable[ProfileChange]) -> int:
        return self._update_queue.enqueue_many(changes)

    # -- checkpointing -----------------------------------------------------------

    def save_checkpoint(self, directory: Union[str, Path],
                        metadata: Optional[dict] = None, *,
                        score_cache: bool = True,
                        checksums: Optional[dict] = None) -> Path:
        """Write a self-contained (portable) checkpoint of the current state.

        Captures ``G(t)``, the iteration counter, the engine configuration,
        a hard-linked snapshot of the on-disk profiles ``P(t)``, the
        phase-4 score cache and any profile changes still buffered in the
        update queue, so the run can resume (:meth:`from_checkpoint`) even
        after this engine's scratch workdir is gone.  Returns the manifest
        path.  The keyword arguments are the commit protocol's:
        ``score_cache=False`` leaves the cache out (a resume then pays one
        full rescore) and a ``checksums`` dict receives each file's CRC32.
        """
        self._ensure_open()
        combined = dict(metadata or {})
        reserved = {"engine_config", "pending_updates"} & combined.keys()
        if reserved:
            # letting caller metadata shadow these would silently resume
            # with the wrong config or lose queued updates
            raise ValueError(
                f"metadata keys {sorted(reserved)} are reserved for the "
                "engine's own checkpoint state")
        combined["engine_config"] = self._config_manifest()
        combined["pending_updates"] = [_change_to_manifest(change)
                                       for change in self._update_queue.peek()]
        return save_portable_checkpoint(
            directory, self._graph, self._iterations_run,
            profile_store=self._profile_store,
            score_cache=self._checkpointable_cache() if score_cache else None,
            metadata=combined,
            fault_plan=self._config.fault_plan, checksums=checksums)

    def _checkpointable_cache(self) -> Phase4ScoreCache:
        """The score cache advanced to the snapshot generation for saving.

        The cache is tagged with the generation read at phase-4 time, but
        phase 5 of the same iteration usually bumps the store — so a cache
        saved verbatim would never match the snapshot and every resume of
        an update-stream run would pay a needless full rescore.  While the
        live store can still enumerate the rows touched since scoring, the
        stale entries are pruned (they would be dirty next iteration
        anyway) and the remainder re-tagged with the snapshot generation,
        which :meth:`from_checkpoint` rebases onto the fresh store.  When
        the deltas are unknown the cache is saved as-is and the resume
        path's generation check drops it — correct either way.
        """
        cache = self._iteration_runner.score_cache
        current = self._profile_store.generation
        if (cache.generation is None or cache.keys is None
                or cache.generation == current):
            return cache
        touched = self._profile_store.touched_rows_since(cache.generation)
        if touched is None:
            return cache
        return cache.advanced_to(touched, current)

    def _config_manifest(self) -> dict:
        """The engine configuration as a JSON-serialisable dict.

        A custom :class:`DiskModel` object cannot be serialised; the field
        is dropped and the resumer falls back to the default (the disk
        model only shapes the simulated I/O accounting, never results).
        """
        data = asdict(self._config)
        if not isinstance(self._config.disk_model, str):
            data.pop("disk_model")
        # a fault plan is test harness state, not configuration: it cannot
        # be serialised, and a recovered run must start fault-free anyway
        data.pop("fault_plan", None)
        return data

    @classmethod
    def from_checkpoint(cls, directory: Union[str, Path],
                        config: Optional[EngineConfig] = None,
                        workdir: Optional[Union[str, Path]] = None) -> "KNNEngine":
        """Build an engine resuming a :meth:`save_checkpoint` checkpoint.

        The snapshot profiles become the engine's ``P(t)`` **zero-copy**:
        exactly as ``save_checkpoint`` took the snapshot, the immutable
        store files are hard-linked back into the new workdir (copied only
        across filesystems, and for the in-place-mutated dense/meta/journal
        files), so resuming never round-trips the profiles through memory —
        a million-user sparse store resumes in milliseconds for a directory
        entry per segment.  The checkpointed graph becomes ``G(t)`` and the
        iteration counter continues where the saved run stopped.  With
        ``config=None`` the configuration saved in the checkpoint manifest
        is restored, so the resumed run computes the same KNN problem (same
        ``k``, measure, partitioning); passing a config explicitly
        overrides it — including ``backend``/``num_workers``, which never
        change results.  The snapshot's on-disk segment layout is kept
        as-is (a config overriding ``num_partitions`` or
        ``profile_segment_rows`` affects only which loads hit the zero-copy
        fast path, never the produced graphs).

        The score cache is restored only when its generation matches the
        snapshot store's — i.e. the cached scores describe exactly the
        profiles ``P(t)`` being resumed.  The hard-linked working store
        carries the snapshot's generation counter forward, so a matching
        cache is adopted as-is and reuse continues seamlessly.
        :meth:`save_checkpoint` arranges for this to be the common case by
        pruning churn-touched entries and advancing the cache to the
        snapshot generation; a cache it could not advance (unknown deltas)
        is dropped here instead (its generation predates the resumed
        store's counter, so keeping it could reuse stale scores), and the
        first resumed iteration performs one full rescore.  Resumed
        results are bit-identical to an uninterrupted run either way.
        """
        if (workdir is not None
                and Path(workdir).resolve() == Path(directory).resolve()):
            # the engine would create its working profile store at
            # workdir/profiles — the snapshot itself — silently rewriting
            # the checkpoint it is resuming from
            raise ValueError(
                f"workdir {workdir} is the checkpoint directory; resuming "
                "would overwrite the snapshot profiles — pass a different "
                "workdir (or None for a scratch directory)")
        checkpoint = load_portable_checkpoint(directory)
        graph, iteration, metadata, snapshot_store, score_cache = checkpoint
        if snapshot_store is None:
            raise ValueError(
                f"checkpoint under {directory} has no profile snapshot; "
                "use load_checkpoint() and construct the engine explicitly")
        if config is None:
            saved = metadata.get("engine_config")
            if saved is None:
                raise ValueError(
                    f"checkpoint under {directory} carries no engine_config "
                    "(pre-config checkpoint?); pass config= explicitly")
            config = _config_from_manifest(saved, directory)
        engine = cls(snapshot_store, config=config, workdir=workdir,
                     initial_graph=graph)
        engine._iterations_run = iteration
        pending = metadata.get("pending_updates") or []
        # the workdir's WAL already holds every not-yet-applied change (and
        # possibly already-applied ones garbage collection hasn't caught up
        # with) — replay the tail after the checkpoint's committed sequence
        # instead of trusting the manifest's pending list, which describes
        # the same changes and would double-buffer them.  Sequence filtering
        # makes the replay exactly-once; an empty or absent WAL replays
        # nothing and only resumes the numbering.
        engine._wal_replayed = engine._update_queue.replay_tail(
            int(metadata.get("wal_applied_seq", -1)))
        if pending and not engine._update_queue.wal_preexisting:
            # changes buffered but not yet applied when the checkpoint was
            # taken resume their place in the queue, so the next iteration's
            # phase 5 applies exactly what an uninterrupted run would have
            engine.enqueue_profile_changes(
                _change_from_manifest(item) for item in pending)
        if (score_cache is not None and score_cache.generation is not None
                and score_cache.generation == snapshot_store.generation):
            # the cached scores describe exactly the snapshot profiles the
            # working store was hard-linked from; the clone carries the
            # snapshot's generation counter forward, so the cache matches
            # the fresh store directly (asserted, not assumed)
            assert engine._profile_store.generation == snapshot_store.generation
            engine.restore_score_cache(score_cache)
        return engine

    @property
    def resume_clone_stats(self) -> Optional[CloneStats]:
        """Link/copy accounting of a zero-copy resume (``None`` for fresh runs).

        The perf suite's resume gate reads this to prove that resuming a
        segmented sparse store hard-links (not copies) every immutable file.
        """
        return self._resume_clone_stats

    def restore_score_cache(self, cache: Phase4ScoreCache) -> None:
        """Adopt a phase-4 score cache (see ``from_checkpoint``).

        ``cache.generation`` must refer to *this* engine's profile store —
        its counter and its contents.  Generation counters are not a shared
        namespace across stores, so adopting a cache keyed to another
        store's counter can silently reuse stale scores;
        :meth:`from_checkpoint` re-keys or drops the restored cache for
        exactly that reason.
        """
        self._iteration_runner.restore_score_cache(cache)

    # -- execution -------------------------------------------------------------------

    def run_iteration(self, *, updates_first: bool = False) -> IterationResult:
        """Run exactly one five-phase iteration and advance ``G(t)`` to ``G(t+1)``.

        With :attr:`EngineConfig.durable` on, the iteration is bracketed by
        commits: an initial commit of the pre-iteration state (first
        iteration only) and a commit of the completed iteration, so a crash
        at *any* instant leaves at least one verifiable epoch for
        :meth:`recover`.

        ``updates_first`` is the serving order (the refresh loop always
        passes it; the batch API never does): the queued changes are applied
        *before* scoring, so the sealed ``G(t+1)`` is scored against the
        ``P(t+1)`` stored beside it and an update queued before the call is
        in the graph it returns.
        """
        self._ensure_open()
        if self._config.durable:
            self._ensure_initial_commit()
        result = self._iteration_runner.run(
            self._iterations_run, self._graph, self._update_queue,
            updates_first=updates_first)
        self._graph = result.graph
        self._iterations_run += 1
        if self._config.durable:
            self._commit_iteration()
        return result

    # -- durable commits / crash recovery --------------------------------------

    #: How many sealed epochs a durable engine retains.  Two, so that a
    #: crash *during* a commit (after the old epochs were pruned, before the
    #: new one sealed) still leaves a verifiable fallback; the WAL is only
    #: ever truncated to the OLDEST kept epoch's applied sequence, so
    #: falling back an epoch never loses updates.
    COMMITS_KEPT = 2

    @property
    def commits_dir(self) -> Path:
        return self._workdir / "commits"

    @property
    def wal_replayed(self) -> int:
        """How many WAL records recovery reloaded into this engine's queue."""
        return self._wal_replayed

    def _ensure_initial_commit(self) -> None:
        """Commit the pre-iteration state once, before the first iteration."""
        if not self._has_commit and not _scan_commit_epochs(self.commits_dir):
            self._commit_iteration()
        self._has_commit = True

    def ensure_initial_commit(self) -> None:
        """Seal the current (pre-iteration) state as epoch 0 if none exists.

        The serving runtime calls this before accepting queries so that a
        snapshot view exists from the very first moment — ``G(0)`` is a
        valid (random) KNN graph, and serving it beats serving nothing.
        Requires ``durable=True``.
        """
        self._ensure_open()
        if not self._config.durable:
            raise RuntimeError(
                "ensure_initial_commit requires EngineConfig(durable=True); "
                "non-durable engines have no commit protocol")
        self._ensure_initial_commit()

    def sealed_epochs(self) -> List[Tuple[int, Path]]:
        """``(epoch, path)`` of every sealed commit directory, ascending.

        What start-up and recovery publish from: each entry is a
        self-contained, checksummed checkpoint (graph, profile snapshot,
        manifest) whose files are immutable once sealed — safe to hard-link
        into a serving snapshot (the clone survives this engine pruning the
        epoch later).  A refresh does not scan: it sealed :meth:`epoch_dir`.
        """
        return _scan_commit_epochs(self.commits_dir)

    def epoch_dir(self, epoch: int) -> Path:
        """Where the commit of iteration ``epoch`` is (or would be) sealed."""
        return self.commits_dir / f"epoch_{epoch:05d}"

    def latest_sealed_epoch(self) -> Optional[Tuple[int, Path]]:
        """The newest sealed epoch, or ``None`` when nothing committed yet."""
        epochs = self.sealed_epochs()
        return epochs[-1] if epochs else None

    def _commit_iteration(self) -> None:
        """Atomically seal the current state as ``commits/epoch_NNNNN``.

        Protocol: the whole epoch (graph, hard-linked profile snapshot,
        manifest — no score cache) is written into an ``.tmp`` directory,
        sealed with ``checksums.json`` (written last — it doubles as the
        completeness marker; the CRCs are the writers' own), and renamed
        into place in one atomic step.
        Only then are stale epochs pruned and the WAL garbage-collected up
        to the oldest *surviving* epoch's applied sequence.  A crash
        between any two steps leaves either the previous epochs or the new
        one — never a half-committed state that verifies.
        """
        fault = self._config.fault_plan
        if fault is not None:
            fault.point("commit.begin")
        commits = self.commits_dir
        commits.mkdir(parents=True, exist_ok=True)
        final = self.epoch_dir(self._iterations_run)
        tmp = final.with_name(final.name + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        vouched: dict = {}
        self.save_checkpoint(
            tmp, metadata={"wal_applied_seq": self._update_queue.last_applied_seq},
            score_cache=False, checksums=vouched)
        write_checkpoint_checksums(tmp, vouched)
        if fault is not None:
            fault.point("commit.before_rename")
        if final.exists():
            shutil.rmtree(final)
        os.rename(tmp, final)
        if fault is not None:
            fault.point("commit.committed")
        epochs = _scan_commit_epochs(commits)
        kept = epochs[-self.COMMITS_KEPT:]
        for _, stale in epochs[:-self.COMMITS_KEPT]:
            shutil.rmtree(stale, ignore_errors=True)
        if fault is not None:
            fault.point("commit.before_wal_truncate")
        if self._update_queue.wal_path is not None and kept:
            self._update_queue.truncate_wal(
                self._commit_applied_seq(kept[0][1]))
        if fault is not None:
            fault.point("commit.done")

    @staticmethod
    def _commit_applied_seq(epoch_dir: Path) -> int:
        """The WAL sequence a sealed epoch recorded as applied (-1 if none)."""
        try:
            manifest = json.loads((epoch_dir / "checkpoint.json").read_text())
        except (OSError, ValueError):
            return -1
        metadata = manifest.get("metadata") or {}
        return int(metadata.get("wal_applied_seq", -1))

    @classmethod
    def recover(cls, workdir: Union[str, Path],
                config: Optional[EngineConfig] = None) -> "KNNEngine":
        """Resume a crashed durable run from its workdir.

        Walks the sealed epochs newest-first and restores the first one
        whose checksums verify (:func:`verify_checkpoint`); unsealed
        ``.tmp`` epochs and the crashed run's working profile copy are
        discarded — they are superseded by the verified snapshot.  The durable WAL's tail (records after the restored
        epoch's committed sequence) is replayed into the update queue, so
        no enqueued change is lost and none is applied twice.  With
        ``config=None`` the configuration sealed in the epoch is restored
        (keep it ``None``, or keep ``durable=True``, or the WAL tail cannot
        be replayed).
        """
        workdir = Path(workdir)
        commits = workdir / "commits"
        if not commits.is_dir():
            raise FileNotFoundError(
                f"no commits directory under {workdir}; was the crashed "
                "run configured with durable=True?")
        for tmp in commits.glob("epoch_*.tmp"):
            # an epoch that never sealed — the crash hit mid-commit
            shutil.rmtree(tmp, ignore_errors=True)
        chosen = None
        for _, path in reversed(_scan_commit_epochs(commits)):
            if verify_checkpoint(path):
                chosen = path
                break
            _logger.warning(
                "commit %s fails checksum verification; falling back to "
                "the previous epoch", path.name)
        if chosen is None:
            raise RuntimeError(
                f"no commit under {commits} passes verification; the run "
                "cannot be recovered")
        _logger.info("recovering from %s", chosen)
        # the crashed working copy may be torn mid-write; the verified
        # epoch replaces it
        shutil.rmtree(workdir / "profiles", ignore_errors=True)
        return cls.from_checkpoint(chosen, config=config, workdir=workdir)

    def run(self, num_iterations: int,
            convergence_threshold: Optional[float] = None,
            exact_graph: Optional[KNNGraph] = None,
            profile_change_feed=None) -> EngineRunResult:
        """Run up to ``num_iterations`` iterations (stopping early on convergence).

        Parameters
        ----------
        num_iterations:
            Maximum number of iterations to run.
        convergence_threshold:
            When given, stop as soon as the KNN edge-change rate drops below
            this value.
        exact_graph:
            Optional brute-force ground truth; when given, recall is recorded
            after every iteration.
        profile_change_feed:
            Optional callable ``feed(iteration) -> Iterable[ProfileChange]``
            invoked before each iteration to model profiles changing while
            the computation runs.
        """
        self._ensure_open()
        check_positive_int(num_iterations, "num_iterations")
        tracker = ConvergenceTracker(
            threshold=convergence_threshold if convergence_threshold is not None else 0.0,
            exact_graph=exact_graph,
        )
        results: List[IterationResult] = []
        total_io = IOStats()
        total_phases = PhaseTimer()
        for _ in range(num_iterations):
            if profile_change_feed is not None:
                changes = profile_change_feed(self._iterations_run)
                if changes:
                    self.enqueue_profile_changes(changes)
            previous = self._graph
            result = self.run_iteration()
            results.append(result)
            total_io.merge(result.io_stats)
            total_phases.merge(result.phase_timer)
            tracker.record(previous, result.graph)
            if convergence_threshold is not None and tracker.converged:
                _logger.info("converged after %d iterations", len(results))
                break
        return EngineRunResult(
            iterations=results,
            final_graph=self._graph,
            convergence=tracker,
            total_io=total_io,
            total_phases=total_phases,
        )

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this KNNEngine has been closed")
