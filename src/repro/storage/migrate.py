"""``python -m repro migrate``: the one door to profile stores of the two
layouts that preceded the current one (``docs/storage.md`` describes them)."""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Union

import numpy as np

from repro.similarity.profiles import (DenseProfileStore, ProfileStoreBase,
                                       SparseProfileStore)
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
    return SparseProfileStore([set(items[indptr[user]:indptr[user + 1]].tolist())
                               for user in range(num_users)])


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
    for name in sorted(written, key=_META_NAME.__eq__):     # the meta last
        os.replace(scratch / name, base / name)
    for path in base.glob("profiles_*"):
        if path.name not in written:
            path.unlink()                # the legacy layout's own files
    scratch.rmdir()
    return True
