"""``python -m repro migrate``: the one door to files of the layouts that
preceded the current ones — profile stores of versions 1 and 2
(``docs/storage.md`` describes them) and the ``RPCK0001`` graph file of
checkpoints and commit epochs (``docs/robustness.md``)."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.checkpoint import (save_knn_graph, verify_checkpoint,
                                   write_checkpoint_checksums)
from repro.graph.knn_graph import KNNGraph
from repro.similarity.measures import SetProfileCSR
from repro.similarity.profiles import (DenseProfileStore, ProfileStoreBase,
                                       SparseProfileStore)
from repro.storage import durable
from repro.storage.profile_store import (FORMAT_VERSION, OnDiskProfileStore,
                                         StoreFormatError)

_META_NAME = OnDiskProfileStore._META_NAME


def _decode_legacy(base_dir: Path, meta: dict, coded: bool) -> ProfileStoreBase:
    """The profiles of a legacy store, fully in memory.  ``coded``: the sparse
    items file holds codes into the item table (version 2), not raw item ids."""
    num_users = int(meta["num_users"])
    if meta["kind"] == "dense":
        matrix = np.fromfile(base_dir / "profiles_dense.bin", dtype=np.float64)
        return DenseProfileStore(matrix.reshape(num_users, int(meta["dim"])),
                                 copy=False)
    indptr = np.fromfile(base_dir / "profiles_indptr.bin", dtype=np.int64)
    items = np.fromfile(base_dir / "profiles_items.bin", dtype=np.int64)
    if coded and len(items):
        items = np.fromfile(base_dir / "profiles_item_ids.bin",
                            dtype=np.int64)[items]
    return SparseProfileStore.from_csr(SetProfileCSR.from_sets(items, indptr=indptr))


def migrate_store(base_dir: Union[str, os.PathLike]) -> bool:
    """Rewrite the version 1 / 2 store under ``base_dir`` in the current layout.

    Returns ``False``, touching nothing, when the store already is current;
    raises ``FileNotFoundError`` when there is no store (nothing is created)
    and :class:`StoreFormatError` for a layout this code does not know.  The
    new files are built in a scratch directory and renamed into place, the
    meta last: the store is a whole legacy store until it is a whole current
    one, so an interrupted migration is simply run again.  ``generation``
    moves forward by one, like any other full rewrite.
    """
    base = Path(base_dir)
    if not (base / _META_NAME).exists():
        raise FileNotFoundError(f"no profile store under {base}: "
                                f"{_META_NAME} not found")
    meta = json.loads((base / _META_NAME).read_text())
    version = meta.get("format_version", 1)
    if version == FORMAT_VERSION:
        return False
    if meta.get("kind") not in ("dense", "sparse") or version not in (1, 2):
        raise StoreFormatError(
            f"profile store under {base} (kind {meta.get('kind')!r}, "
            f"format_version {version!r}) is not a version 1 or 2 store; "
            "there is nothing this code can migrate")
    scratch = base / "migrate.tmp"
    shutil.rmtree(scratch, ignore_errors=True)   # left by an interrupted run
    fresh = OnDiskProfileStore.create(
        scratch, _decode_legacy(base, meta, coded=version == 2),
        disk_model="instant")
    fresh._meta["generation"] = int(meta.get("generation", 0)) + 1
    fresh._write_meta()
    written = sorted(path.name for path in scratch.iterdir())
    durable.publish((scratch / name, base / name)             # the meta last
                    for name in sorted(written, key=_META_NAME.__eq__))
    for path in base.glob("profiles_*"):
        if path.name not in written:
            path.unlink()                # the legacy layout's own files
    scratch.rmdir()
    return True


# -- checkpoints and commit epochs -------------------------------------------

_OLD_GRAPH_MAGIC = b"RPCK0001"
_SCRATCH = "migrate.tmp"


def _decode_legacy_graph(path: Path) -> KNNGraph:
    """An ``RPCK0001`` graph file: the magic, ``(n, k, E)``, then the
    ``src``, ``dst`` and ``score`` columns of ``E`` edges.

    A file in its writer's layout — in-range edges in strictly increasing
    ``(src, dst)`` order, at most ``k`` a vertex, NaN-free — is placed with
    one bulk merge; any other edge list is replayed edge by edge.
    """
    raw = path.read_bytes()
    offset = len(_OLD_GRAPH_MAGIC)
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


def _is_legacy_store(base_dir: Path) -> bool:
    """Whether the store's open-time gate refuses it (an unknown layout
    raises from :func:`migrate_store` instead)."""
    try:
        OnDiskProfileStore(base_dir, disk_model="instant")
    except StoreFormatError:
        return True
    return False


def migrate_checkpoint(directory: Union[str, os.PathLike]) -> bool:
    """Rewrite the legacy files of a checkpoint directory in the current layout.

    ``directory`` holds ``checkpoint.json``: an explicit checkpoint or a
    sealed commit epoch.  An ``RPCK0001`` graph is decoded and written as
    the current graph file, a legacy ``profiles/`` store goes through
    :func:`migrate_store`, and a sealed epoch is re-sealed through
    :func:`write_checkpoint_checksums`.  Returns ``False``, touching
    nothing, when the directory already is current.  A sealed epoch that
    fails its checksums is refused with ``ValueError``: migrating it would
    seal the damage.

    The new graph is built in ``<directory>/migrate.tmp`` and published
    into place (:func:`repro.storage.durable.publish`); the scratch
    directory goes only after the seal, so its presence marks an
    interrupted run, which is simply run again.
    """
    base = Path(directory)
    manifest = json.loads((base / "checkpoint.json").read_text())
    graph_path = base / manifest["graph_file"]
    with graph_path.open("rb") as handle:
        legacy_graph = handle.read(len(_OLD_GRAPH_MAGIC)) == _OLD_GRAPH_MAGIC
    profiles = (base / manifest["profiles_dir"]
                if manifest.get("profiles_dir") else None)
    legacy_store = profiles is not None and _is_legacy_store(profiles)
    scratch = base / _SCRATCH
    interrupted = scratch.exists()
    if not (legacy_graph or legacy_store or interrupted):
        return False
    sealed = (base / "checksums.json").is_file()
    if sealed and not interrupted and not verify_checkpoint(base):
        raise ValueError(f"{base} fails its checksums; migrating it would "
                         "seal the damage")
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    if legacy_store:
        migrate_store(profiles)
    vouched = {}
    if legacy_graph:
        staged = scratch / graph_path.name
        vouched[graph_path.name] = save_knn_graph(
            staged, _decode_legacy_graph(graph_path))
        durable.publish([(staged, graph_path)])
    if sealed:
        write_checkpoint_checksums(base, vouched)
    scratch.rmdir()
    return True


def migrate(path: Union[str, os.PathLike]) -> bool:
    """Migrate whatever ``path`` is: a checkpoint directory (it holds
    ``checkpoint.json``, as every sealed epoch does), an engine workdir
    (each ``commits/epoch_*``) or a profile store.  ``True`` when anything
    was rewritten; raises ``FileNotFoundError`` when ``path`` is none of
    the three."""
    base = Path(path)
    if (base / "checkpoint.json").is_file():
        return migrate_checkpoint(base)
    if (base / "commits").is_dir():
        epochs = sorted(epoch for epoch in (base / "commits").glob("epoch_*")
                        if epoch.is_dir() and not epoch.name.endswith(".tmp"))
        return any([migrate_checkpoint(epoch) for epoch in epochs])
    if not (base / _META_NAME).exists():
        raise FileNotFoundError(f"nothing to migrate under {base}: "
                                f"checkpoint.json, commits/ and {_META_NAME} "
                                "not found")
    return migrate_store(base)
