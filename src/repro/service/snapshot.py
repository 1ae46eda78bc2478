"""Immutable serving snapshots: sealed epochs read where they lie.

The query path of the serving runtime never touches the engine's working
state.  Every completed iteration seals a checksummed commit epoch (see
``docs/robustness.md``) whose files are never rewritten; the refresh loop
wraps that epoch in a :class:`SnapshotView` around the engine's in-memory
``G(t)`` and opens the epoch's profile store in place:

* reads are *snapshot-isolated*: the in-flight iteration mutates only the
  engine's working stores, never a sealed epoch, so a query observes one
  consistent ``(G(t), P(t))`` pair from the last committed epoch and never
  blocks on the refresh;
* the view maps every profile file when it is built, and a mapping
  outlives its path: the engine's commit GC may prune the epoch directory
  while readers still hold the view, and the bytes stay readable until the
  last reference to the view is dropped.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.checkpoint import load_checkpoint
from repro.graph.knn_graph import KNNGraph
from repro.storage.profile_store import OnDiskProfileStore

PathLike = Union[str, os.PathLike]


class SnapshotView:
    """One immutable serving snapshot: ``G(t)`` + ``P(t)`` of a sealed epoch.

    Built by :meth:`from_commit` from an epoch directory.  The graph is
    held in memory, read-only (queries are sub-millisecond row reads): the
    runtime hands over the engine's own ``G(t)``, the graph the epoch was
    sealed from or recovered into.  The profiles stay on disk behind the
    store's memory maps and are only touched by :meth:`recommend`.

    Thread-safety: the view is plain immutable state and every query
    method is read-only, so any number of reader threads may share it.
    """

    def __init__(self, epoch: int, graph: KNNGraph,
                 store: Optional[OnDiskProfileStore]):
        self._epoch = int(epoch)
        self._graph = graph
        self._store = store

    @classmethod
    def from_commit(cls, epoch_dir: PathLike, epoch: int,
                    graph: Optional[KNNGraph] = None) -> "SnapshotView":
        """Serve the sealed epoch under ``epoch_dir`` in place.

        ``graph`` is the in-memory ``G(t)`` of the epoch when the caller
        holds it (the runtime always does); otherwise it is read from
        ``epoch_dir``.  Either way the served graph is frozen.  The profile
        store is opened and mapped right away, so the view keeps answering
        after the epoch directory is deleted.

        Raises ``ValueError`` for a directory that is not sealed — an
        ``.tmp`` epoch, or one without its ``checksums.json`` (written
        last): durable before visible.
        """
        source = Path(epoch_dir)
        if (source.name.endswith(".tmp")
                or not (source / "checksums.json").is_file()):
            raise ValueError(
                f"{source} is not a sealed epoch (no checksums.json, or an "
                "unrenamed .tmp directory); only sealed epochs are served")
        if graph is None:
            graph, _iteration, _metadata = load_checkpoint(source)
        store = None
        if (source / "profiles").is_dir():
            store = OnDiskProfileStore(source / "profiles",
                                       disk_model="instant").map_files()
        return cls(epoch, graph.freeze(), store)

    # -- queries -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The sealed epoch this view serves (the iteration counter)."""
        return self._epoch

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
