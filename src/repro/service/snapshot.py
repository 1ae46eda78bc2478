"""Immutable serving snapshots: hard-linked clones of sealed epochs.

The query path of the serving runtime never touches the engine's working
state.  Every completed iteration seals a checksummed commit epoch (see
``docs/robustness.md``); the refresh loop clones that epoch into the
service's own ``serving/`` directory — **hard links** for every file, since
a sealed epoch is immutable — and wraps it in a :class:`SnapshotView`.
Queries then read the cloned graph and profiles:

* reads are *snapshot-isolated*: the in-flight iteration mutates only the
  engine's working stores, never the sealed epoch or its clone, so a query
  observes one consistent ``(G(t), P(t))`` pair from the last committed
  epoch and never blocks on the refresh;
* the clone's lifetime is owned by the service, not the engine: the
  engine's commit GC may prune the epoch directory, but the hard links
  keep the bytes alive until the last reader releases the view.

Views are reference-counted: the runtime acquires one per query and
retires the previous view on swap; the clone directory is deleted when a
retired view's last reader releases it.
"""

from __future__ import annotations

import os
import shutil
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.checkpoint import load_checkpoint
from repro.graph.knn_graph import KNNGraph
from repro.storage.profile_store import OnDiskProfileStore

PathLike = Union[str, os.PathLike]

#: Monotonic suffix for clone directories.  Two live views must never share
#: a directory path: a retired view's disposal deletes its directory, and a
#: ``from_commit`` of the same epoch used to clone into the *same*
#: ``epoch_NNNNN`` path — so the old view's rmtree (or ``from_commit``'s own
#: remnant cleanup) could delete the files a fresh view was serving.  A
#: per-process counter makes every clone directory unique; stale clones from
#: a crashed previous process are swept by the runtime's ``start()``.
_CLONE_COUNTER = 0
_CLONE_COUNTER_LOCK = threading.Lock()


def _next_clone_suffix() -> int:
    global _CLONE_COUNTER
    with _CLONE_COUNTER_LOCK:
        _CLONE_COUNTER += 1
        return _CLONE_COUNTER


def _clone_tree_hardlink(source: Path, dest: Path) -> None:
    """Clone a sealed epoch directory file-by-file via hard links.

    Every file of a sealed epoch is immutable (the commit protocol only
    ever creates whole new epoch directories), so hard-linking is always
    safe; cross-filesystem links fall back to copies transparently.
    """
    for path in sorted(source.rglob("*")):
        relative = path.relative_to(source)
        target = dest / relative
        if path.is_dir():
            target.mkdir(parents=True, exist_ok=True)
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.exists():
            target.unlink()
        try:
            os.link(path, target)
        except OSError:
            shutil.copy2(path, target)


class SnapshotView:
    """One immutable serving snapshot: ``G(t)`` + ``P(t)`` of a sealed epoch.

    Built by :meth:`from_commit` from an epoch directory.  The graph is
    held in memory, read-only (queries are sub-millisecond row reads): the
    runtime hands over the engine's own ``G(t)``, the graph the epoch was
    sealed from or recovered into.  The profiles stay on disk behind the
    store's mmap readers and are only touched by :meth:`recommend`.

    Thread-safety: all query methods are read-only and safe to call from
    many reader threads concurrently.  Lifetime is managed through
    :meth:`acquire`/:meth:`release` plus :meth:`retire` (called by the
    runtime when a newer snapshot is swapped in).
    """

    def __init__(self, directory: PathLike, epoch: int, graph: KNNGraph,
                 store: Optional[OnDiskProfileStore]):
        self._directory = Path(directory)
        self._epoch = int(epoch)
        self._graph = graph
        self._store = store
        self._lock = threading.Lock()
        self._refs = 0
        self._retired = False
        self._disposed = False

    @classmethod
    def from_commit(cls, epoch_dir: PathLike, serving_dir: PathLike,
                    epoch: int, graph: Optional[KNNGraph] = None) -> "SnapshotView":
        """Clone a sealed epoch into a fresh ``serving_dir`` subdirectory.

        ``graph`` is the in-memory ``G(t)`` of the epoch when the caller
        holds it (the runtime always does); otherwise the clone is read
        back.  Either way the served graph is frozen.

        The clone directory name carries a per-process monotonic suffix
        (``epoch_NNNNN_cMMMM``) so every view instance owns a *unique*
        directory: re-cloning an epoch that another live view still serves
        (recovery re-publish, a reader pinning a view across a supervisor
        restart) can then never delete or overwrite bytes under that
        reader.  Remnants of clones from a crashed previous process are
        removed wholesale by the runtime's ``start()`` sweep of
        ``serving_dir``.
        """
        source = Path(epoch_dir)
        dest = (Path(serving_dir)
                / f"epoch_{epoch:05d}_c{_next_clone_suffix():04d}")
        if dest.exists():  # pragma: no cover - the suffix makes this unreachable
            shutil.rmtree(dest)
        _clone_tree_hardlink(source, dest)
        if graph is None:
            graph, _iteration, _metadata = load_checkpoint(dest)
        store = None
        if (dest / "profiles").is_dir():
            store = OnDiskProfileStore(dest / "profiles", disk_model="instant")
        return cls(dest, epoch, graph.freeze(), store)

    # -- lifetime ------------------------------------------------------------

    def acquire(self) -> bool:
        """Pin the view for one read; ``False`` when already disposed."""
        with self._lock:
            if self._disposed:
                return False
            self._refs += 1
            return True

    def release(self) -> None:
        """Unpin; a retired view with no readers left deletes its clone."""
        dispose = False
        with self._lock:
            self._refs -= 1
            if self._retired and self._refs <= 0 and not self._disposed:
                self._disposed = True
                dispose = True
        if dispose:
            self._dispose()

    def retire(self) -> None:
        """Mark superseded; disposal happens when the last reader releases."""
        dispose = False
        with self._lock:
            self._retired = True
            if self._refs <= 0 and not self._disposed:
                self._disposed = True
                dispose = True
        if dispose:
            self._dispose()

    def _dispose(self) -> None:
        if self._store is not None:
            self._store = None
        shutil.rmtree(self._directory, ignore_errors=True)

    @property
    def active_readers(self) -> int:
        with self._lock:
            return self._refs

    # -- queries -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The sealed epoch this view serves (the iteration counter)."""
        return self._epoch

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def graph(self) -> KNNGraph:
        return self._graph

    @property
    def num_users(self) -> int:
        return self._graph.num_vertices

    def neighbors(self, user: int) -> List[Tuple[int, float]]:
        """The user's KNN as ``(neighbor, score)``, best first."""
        return self._graph.ranked(user)

    def recommend(self, user: int, top_n: int = 5) -> List[int]:
        """Top-N item recommendations from the user's KNN (sparse profiles).

        Aggregates the items of the user's neighbours weighted by
        similarity rank (the paper's recommender framing), excluding items
        the user already has.  Requires sparse (item-set) profiles.
        """
        if self._store is None or self._store.kind != "sparse":
            raise ValueError(
                "recommend() needs sparse item-set profiles; this snapshot "
                f"serves {'no' if self._store is None else self._store.kind} "
                "profiles — use neighbors() instead")
        ranked = self.neighbors(user)
        ids = [user] + [neighbor for neighbor, _ in ranked]
        profiles = self._store.load_users(ids)
        own_items = profiles.get(user)
        votes: Dict[int, int] = {}
        k = self._graph.k
        for rank, (neighbor, _score) in enumerate(ranked):
            weight = k - rank
            for item in profiles.get(neighbor):
                if item not in own_items:
                    votes[item] = votes.get(item, 0) + weight
        ordered = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))
        return [item for item, _ in ordered[:top_n]]
