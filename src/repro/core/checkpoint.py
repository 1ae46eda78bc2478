"""Checkpointing: persist and restore the state of a KNN computation.

An out-of-core computation over millions of users can run for hours, and the
paper's setting (profiles keep changing, iterations are independent) makes it
natural to stop after any iteration and resume later.  A checkpoint captures
exactly the state the next iteration needs:

* the scored KNN graph ``G(t)`` (binary, NumPy-packed), and
* the iteration counter plus the engine configuration fingerprint,

while the profiles ``P(t)`` already live on disk in the engine's working
directory.  ``save_checkpoint``/``load_checkpoint`` work on any
:class:`~repro.graph.knn_graph.KNNGraph`, so they are also handy for caching
expensive brute-force ground truths in benchmarks.

A **portable** checkpoint (:func:`save_portable_checkpoint`) additionally
captures ``P(t)`` itself and, when handed one, the phase-4 score cache, so
the checkpoint directory is self-contained (survives the engine's scratch
workdir being deleted).  The profile snapshot **hard-links** the store's
immutable files — the segmented sparse layout only ever *replaces* segment
files via rename, never rewrites them in place — so snapshotting a
multi-gigabyte store costs a directory entry per segment, not a copy; only
the small mutable files (meta, journal, item table) and in-place-updated dense
matrices are copied.  The score cache rides along as a compact binary of
``(pair key, score)`` arrays keyed by the store generation: a resumed run
that cannot vouch for that generation simply pays one full rescore.  The
engine's explicit ``save_checkpoint()`` carries it; its per-iteration commit
epochs do not (``docs/robustness.md`` has the measurement).

The writers report the CRC32 of the bytes they had in hand, so
:func:`write_checkpoint_checksums` seals an epoch without re-reading it and
a file torn *after* its write is rejected, not blessed by the re-read.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.iteration import Phase4ScoreCache
from repro.graph.knn_graph import KNNGraph
from repro.storage.disk_model import DiskModel
from repro.storage.io_stats import IOStats
from repro.storage.profile_store import OnDiskProfileStore

PathLike = Union[str, os.PathLike]

_MAGIC = b"RPCK0001"
_CACHE_MAGIC = b"RPSC0001"


def save_knn_graph(path: PathLike, graph: KNNGraph, fault_plan=None) -> int:
    """Serialise a scored KNN graph to a compact binary file.

    Returns the CRC32 of the bytes handed to the file.  ``fault_plan`` (see
    :mod:`repro.testing.faults`) can fail the write or truncate the written
    file to model a crash mid-serialisation; the checkpoint-level
    ``checksums.json`` — which records the returned CRC, not a re-read —
    and the loader's magic/size checks are what must catch the damage.
    """
    path = Path(path)
    sources, destinations, scores = graph.edge_columns()
    header = np.asarray([graph.num_vertices, graph.k, len(sources)], dtype=np.int64)
    if fault_plan is not None:
        fault_plan.file_op("write", path)
    crc = 0
    with path.open("wb") as handle:
        for block in (_MAGIC, header, sources, destinations, scores):
            handle.write(block)
            crc = zlib.crc32(block, crc)
    if fault_plan is not None:
        fault_plan.after_file_op("write", path)
    return crc


def load_knn_graph(path: PathLike) -> KNNGraph:
    """Restore a KNN graph written by :func:`save_knn_graph`.

    A file in the writer's layout — in-range edges in strictly increasing
    ``(src, dst)`` order, at most ``k`` a vertex, NaN-free — is placed with
    one bulk merge; any other edge list is replayed edge by edge.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path} is not a repro KNN-graph checkpoint (bad magic)")
    offset = len(_MAGIC)
    header = np.frombuffer(raw, dtype=np.int64, count=3, offset=offset)
    offset += 3 * 8
    num_vertices, k, num_edges = (int(x) for x in header)
    expected_size = offset + num_edges * (8 + 8 + 8)
    if len(raw) < expected_size:
        raise ValueError(
            f"{path} is truncated: expected {expected_size} bytes, found {len(raw)}")
    sources = np.frombuffer(raw, dtype=np.int64, count=num_edges, offset=offset)
    offset += num_edges * 8
    destinations = np.frombuffer(raw, dtype=np.int64, count=num_edges, offset=offset)
    offset += num_edges * 8
    scores = np.frombuffer(raw, dtype=np.float64, count=num_edges, offset=offset)
    graph = KNNGraph(num_vertices, k)
    if (num_edges and min(sources.min(), destinations.min()) >= 0
            and max(sources.max(), destinations.max()) < num_vertices
            and (np.diff(sources * num_vertices + destinations) > 0).all()
            and np.bincount(sources).max() <= k and not np.isnan(scores).any()):
        graph.add_candidates_batch(sources, destinations, scores, assume_unique=True)
    else:
        for src, dst, score in zip(sources.tolist(), destinations.tolist(),
                                   scores.tolist()):
            graph.add_candidate(src, dst, score)
    return graph


def save_checkpoint(directory: PathLike, graph: KNNGraph, iteration: int,
                    metadata: Optional[Dict[str, object]] = None,
                    fault_plan=None) -> Path:
    """Write a resumable checkpoint (graph + manifest) into ``directory``.

    Returns the manifest path.  ``metadata`` may carry anything JSON-
    serialisable (the engine stores its configuration fingerprint there).
    """
    return save_portable_checkpoint(directory, graph, iteration,
                                    metadata=metadata, fault_plan=fault_plan)


def load_checkpoint(directory: PathLike) -> Tuple[KNNGraph, int, Dict[str, object]]:
    """Load the latest checkpoint from ``directory``.

    Returns ``(graph, iteration, metadata)``.  Raises ``FileNotFoundError``
    when no checkpoint exists.
    """
    directory = Path(directory)
    manifest_path = directory / "checkpoint.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no checkpoint manifest under {directory}")
    manifest = json.loads(manifest_path.read_text())
    graph = load_knn_graph(directory / manifest["graph_file"])
    if graph.num_vertices != manifest["num_vertices"] or graph.k != manifest["k"]:
        raise ValueError("checkpoint manifest does not match the stored graph")
    return graph, int(manifest["iteration"]), dict(manifest.get("metadata", {}))


def has_checkpoint(directory: PathLike) -> bool:
    """True when ``directory`` holds a loadable checkpoint manifest."""
    return (Path(directory) / "checkpoint.json").exists()


# -- portable checkpoints ----------------------------------------------------


def save_score_cache(path: PathLike, cache: Phase4ScoreCache) -> None:
    """Serialise a phase-4 score cache (possibly empty) to a binary file."""
    path = Path(path)
    measure = (cache.measure or "").encode("utf-8")
    empty = cache.keys is None or cache.generation is None
    header = np.asarray([
        -1 if empty else int(cache.generation),
        int(cache.num_vertices),
        0 if empty else len(cache.keys),
        len(measure),
        int(cache.max_entries),
    ], dtype=np.int64)
    with path.open("wb") as handle:
        handle.write(_CACHE_MAGIC)
        handle.write(header.tobytes())
        handle.write(measure)
        if not empty:
            handle.write(np.asarray(cache.keys, dtype=np.int64).tobytes())
            handle.write(np.asarray(cache.values, dtype=np.float64).tobytes())


def load_score_cache(path: PathLike) -> Phase4ScoreCache:
    """Restore a score cache written by :func:`save_score_cache`."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise ValueError(f"{path} is not a repro score-cache file (bad magic)")
    offset = len(_CACHE_MAGIC)
    header = np.frombuffer(raw, dtype=np.int64, count=5, offset=offset)
    offset += 5 * 8
    generation, num_vertices, num_entries, measure_len, max_entries = (
        int(x) for x in header)
    if num_entries < 0 or measure_len < 0 or num_vertices < 0:
        raise ValueError(f"{path} has a corrupt header (negative counts)")
    measure = raw[offset:offset + measure_len].decode("utf-8")
    offset += measure_len
    cache = Phase4ScoreCache(max_entries=max(1, max_entries))
    if generation < 0:
        return cache
    expected = offset + num_entries * 16
    if len(raw) < expected:
        raise ValueError(
            f"{path} is truncated: expected {expected} bytes, found {len(raw)}")
    keys = np.frombuffer(raw, dtype=np.int64, count=num_entries, offset=offset)
    offset += num_entries * 8
    values = np.frombuffer(raw, dtype=np.float64, count=num_entries, offset=offset)
    # merge() is the one way arrays enter a cache: it refuses unsorted keys
    cache.merge(keys.copy(), values.copy(), measure or None, generation,
                num_vertices)
    return cache


@dataclass
class CloneStats:
    """Accounting of one profile-store clone (snapshot or resume).

    ``linked_bytes`` entered the destination as hard links (a directory
    entry each — no data was read or written); ``copied_bytes`` were
    streamed through ``shutil.copy2``.  The perf suite's resume gate uses
    the split to prove that resuming a sparse store never materialises a
    full profile copy.  ``checksums`` is the CRC32 of each cloned file the
    source's ``profiles_meta.json`` vouches for (its ``crc32`` map, plus the
    meta file itself from the bytes parsed) — no profile data is read.
    """

    linked_files: int = 0
    copied_files: int = 0
    linked_bytes: int = 0
    copied_bytes: int = 0
    checksums: Dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.linked_bytes + self.copied_bytes


def clone_profile_files(source_dir: PathLike, dest_dir: PathLike,
                        fault_plan=None) -> CloneStats:
    """Clone a profile store's files: hard-link immutable, copy mutable.

    The split is the store's own contract
    (:meth:`OnDiskProfileStore.linkable_snapshot_file`, kept next to the
    write paths it describes): files the store only ever replaces
    atomically (the sparse segments) are hard-linked — both sides can
    keep using them, because every rewrite swaps in a fresh inode — while
    files mutated in place (meta, journal, item table, dense
    matrix/norms) are copied.  Cross-filesystem links
    fall back to copies transparently.  Used in both directions: taking a
    snapshot (live store → checkpoint) and resuming one (checkpoint →
    fresh workdir).  Stale ``profiles_*`` files already present in the
    destination but absent from the source are removed.
    """
    source = Path(source_dir)
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    if dest.resolve() == source.resolve():
        # the copy loop unlinks each target first — cloning a directory
        # onto itself would delete the files before reading them
        raise ValueError(
            f"clone destination {dest} is the source directory itself; "
            "choose a directory outside the store")
    stats = CloneStats()
    meta = source / OnDiskProfileStore._META_NAME
    recorded: Dict[str, int] = {}
    if meta.is_file():
        blob = meta.read_bytes()
        recorded = dict(json.loads(blob).get("crc32") or {})
        recorded[meta.name] = zlib.crc32(blob)
    for path in sorted(source.glob("profiles_*")):
        if path.name.endswith(".tmp"):
            continue
        if path.name in recorded:
            stats.checksums[path.name] = int(recorded[path.name])
        target = dest / path.name
        if target.exists():
            target.unlink()
        size = path.stat().st_size
        if OnDiskProfileStore.linkable_snapshot_file(path.name):
            try:
                if fault_plan is not None:
                    # an injected link failure is an OSError like any other
                    # unsupported-link condition, so it exercises exactly
                    # the production fallback below
                    fault_plan.file_op("link", target)
                os.link(path, target)
                stats.linked_files += 1
                stats.linked_bytes += size
                continue
            except OSError:
                pass  # cross-device or unsupported: fall through to a copy
        shutil.copy2(path, target)
        stats.copied_files += 1
        stats.copied_bytes += size
    current = {path.name for path in source.glob("profiles_*")}
    for path in dest.glob("profiles_*"):
        if path.name not in current:
            path.unlink()
    return stats


def restore_profile_store(snapshot_dir: PathLike, dest_dir: PathLike,
                          disk_model: Union[str, DiskModel] = "ssd",
                          io_stats: Optional[IOStats] = None,
                          ) -> Tuple[OnDiskProfileStore, CloneStats]:
    """Rebuild a working profile store from a snapshot, zero-copy.

    The inverse of taking the snapshot: the snapshot's immutable
    files are hard-linked into ``dest_dir`` and only the small mutable
    files (meta, journal, item table) and in-place-updated dense matrices
    are copied, so resuming a multi-gigabyte sparse store costs a
    directory entry per segment — no profile matrix is ever materialised
    in memory.  The returned handle owns ``dest_dir`` and may be mutated
    freely: in-place writes only ever touch copied files, and atomic
    replacements give linked files a fresh inode, so the snapshot's bytes
    are never written through.  Copied bytes are charged to the store's
    I/O stats (``io_stats`` when given, else the store's own) as one
    sequential write — mirroring what a fresh ``create`` would have
    charged for the same data — while links cost nothing.
    """
    stats = clone_profile_files(snapshot_dir, dest_dir)
    store = OnDiskProfileStore(dest_dir, disk_model=disk_model,
                               io_stats=io_stats)
    if stats.copied_bytes:
        store.io_stats.record_write(
            stats.copied_bytes,
            store._disk.write_cost(stats.copied_bytes, sequential=True))
    return store, stats


def save_portable_checkpoint(directory: PathLike, graph: KNNGraph, iteration: int,
                             profile_store: Optional[OnDiskProfileStore] = None,
                             score_cache: Optional[Phase4ScoreCache] = None,
                             metadata: Optional[Dict[str, object]] = None,
                             fault_plan=None,
                             checksums: Optional[Dict[str, int]] = None) -> Path:
    """Write a self-contained checkpoint: graph + profiles ``P(t)`` + cache.

    Extends :func:`save_checkpoint` with a hard-linked snapshot of the
    profile store and the phase-4 score cache (each only when given), so
    resuming does not depend on the engine's (usually temporary) working
    directory.  Returns the manifest path; a ``checksums`` dict, when
    passed, receives ``relative name -> CRC32`` of every file whose bytes
    this call had in hand, for :func:`write_checkpoint_checksums`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vouched = {} if checksums is None else checksums
    graph_name = f"knn_graph_{iteration:05d}.bin"
    vouched[graph_name] = save_knn_graph(directory / graph_name, graph,
                                         fault_plan=fault_plan)
    manifest = {
        "iteration": int(iteration),
        "graph_file": graph_name,
        "num_vertices": graph.num_vertices,
        "k": graph.k,
        "metadata": metadata or {},
    }
    if profile_store is not None:
        cloned = clone_profile_files(profile_store.base_dir,
                                     directory / "profiles", fault_plan=fault_plan)
        vouched.update((str(Path("profiles", name)), crc)
                       for name, crc in cloned.checksums.items())
        manifest["profiles_dir"] = "profiles"
    if score_cache is not None:
        cache_name = "score_cache.bin"
        save_score_cache(directory / cache_name, score_cache)
        manifest["score_cache_file"] = cache_name
    blob = json.dumps(manifest, indent=2).encode("utf-8")
    manifest_path = directory / "checkpoint.json"
    manifest_path.write_bytes(blob)
    vouched[manifest_path.name] = zlib.crc32(blob)
    return manifest_path


def load_portable_checkpoint(directory: PathLike) -> Tuple[
        KNNGraph, int, Dict[str, object],
        Optional[OnDiskProfileStore], Optional[Phase4ScoreCache]]:
    """Load a portable checkpoint written by :func:`save_portable_checkpoint`.

    Returns ``(graph, iteration, metadata, profile_store, score_cache)``;
    the last two are ``None`` when the checkpoint was saved without them.
    The returned store handle reads the snapshot in place — callers that
    want to mutate profiles should copy it into a fresh working directory
    first (the engine's resume path loads it fully into memory instead).
    """
    directory = Path(directory)
    graph, iteration, metadata = load_checkpoint(directory)
    manifest = json.loads((directory / "checkpoint.json").read_text())
    store = None
    if manifest.get("profiles_dir"):
        store = OnDiskProfileStore(directory / manifest["profiles_dir"],
                                   disk_model="instant")
    cache = None
    if manifest.get("score_cache_file"):
        cache = load_score_cache(directory / manifest["score_cache_file"])
    return graph, iteration, metadata, store, cache


# -- checkpoint integrity -----------------------------------------------------

_CHECKSUMS_NAME = "checksums.json"


def _checkpoint_files(directory: Path) -> List[Path]:
    return sorted(path for path in directory.rglob("*")
                  if path.is_file() and path.name != _CHECKSUMS_NAME
                  and not path.name.endswith(".tmp"))


def write_checkpoint_checksums(directory: PathLike,
                               vouched: Optional[Dict[str, int]] = None) -> Path:
    """Record a CRC32 for every file of a checkpoint directory.

    Every file found is listed; only those absent from ``vouched`` (see
    :func:`save_portable_checkpoint`) are read back to compute one.
    ``checksums.json`` is written **last**, after every other file of the
    checkpoint, so its presence doubles as a completeness marker: the
    engine's commit protocol writes the whole epoch into a temporary
    directory, seals it with this file, and only then renames the directory
    into place.  A crash at any earlier instant leaves either no directory
    or one that :func:`verify_checkpoint` rejects.
    """
    directory = Path(directory)
    vouched = vouched or {}
    checksums = {}
    for path in _checkpoint_files(directory):
        name = str(path.relative_to(directory))
        checksums[name] = (vouched[name] if name in vouched
                           else zlib.crc32(path.read_bytes()))
    target = directory / _CHECKSUMS_NAME
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(checksums, indent=2, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    return target


def verify_checkpoint(directory: PathLike) -> bool:
    """Whether a checkpoint directory passes its recorded checksums.

    ``False`` for a missing/unreadable ``checksums.json`` (the epoch never
    finished committing), a file listed there that is missing or whose
    bytes changed, or a loadable-looking directory with extra damage the
    CRCs catch.  Recovery walks epochs newest-first and takes the first
    directory this accepts.
    """
    directory = Path(directory)
    target = directory / _CHECKSUMS_NAME
    if not target.is_file():
        return False
    try:
        checksums = json.loads(target.read_text())
    except ValueError:
        return False
    if not isinstance(checksums, dict):
        return False
    for name, expected in checksums.items():
        path = directory / name
        if not path.is_file():
            return False
        if zlib.crc32(path.read_bytes()) != int(expected):
            return False
    return True
