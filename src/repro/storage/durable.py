"""The one code path that writes, renames, links or fsyncs a file.

Recovery trusts what these five operations leave on disk, so the write
protocol is stated once, here, and the fault plan's file hooks
(:mod:`repro.testing.faults`: ``file_op`` before a write, a rename or a
link, ``after_file_op`` to tear what was written) are consulted here and
nowhere else.  The rules are ALICE's (Pillai et al., OSDI 2014): a file
is fsynced before it is renamed into place, and the directory a rename,
a link or a file creation changed is fsynced before the step returns.

Two modes:

* **durable** — :func:`write` (temp file, fsync, rename, then one fsync
  of each directory renamed into), :func:`append` (write, fsync, and a
  directory fsync when the append created the file) and :func:`publish`
  return only once the bytes and the directory entries they made are on
  disk.  An append-only file frames or checksums its records, so a tear
  at its tail is found on read.
* **sealed** — ``write(..., sealed=True)`` and :func:`link` fill a
  directory without an fsync per file.  ``checksums.json``, written last,
  vouches for every file, and :func:`publish` fsyncs it and the directory
  and renames the directory into place: a file a power cut lost or tore
  fails verification, and recovery falls back an epoch.  :func:`settle`
  puts a published directory's content on disk too, before anything that
  only it can replace (the WAL records it applied) is dropped.  A
  sealed-mode directory that is never published (an explicit checkpoint,
  an engine's working copy) carries no durability promise.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Iterable, Tuple, Union

import numpy as np

PathLike = Union[str, os.PathLike]
#: The file that vouches for every other file of a published directory.
SEAL = "checksums.json"
#: What a file receives: one bytes-like block or a sequence of them.
Blocks = Union[bytes, np.ndarray, Iterable[Union[bytes, np.ndarray]]]


def _write_blocks(handle, data: Blocks) -> None:
    single = isinstance(data, (bytes, bytearray, memoryview, np.ndarray))
    for block in (data,) if single else data:
        handle.write(np.ascontiguousarray(block) if isinstance(block, np.ndarray)
                     else block)


def _fsync(path: Path) -> None:
    """Flush a file's or a directory's bytes and entry to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write(files: Iterable[Tuple[PathLike, Blocks]], fault_plan=None, *,
          sealed: bool = False) -> None:
    """Write each ``(path, data)`` of ``files`` whole.

    Durable mode writes ``<name>.tmp``, fsyncs it and renames it over
    ``path`` — a fresh inode, so hard links a checkpoint took keep the old
    bytes — then fsyncs each directory it renamed into once.  Sealed mode
    writes ``path`` in place and fsyncs nothing.
    """
    directories = {}
    for path, data in files:
        path = Path(path)
        if fault_plan is not None:
            fault_plan.file_op("write", path)
        if sealed:
            with path.open("wb") as handle:
                _write_blocks(handle, data)
        else:
            tmp = path.with_name(path.name + ".tmp")
            with tmp.open("wb") as handle:
                _write_blocks(handle, data)
                handle.flush()
                os.fsync(handle.fileno())
            if fault_plan is not None:
                fault_plan.file_op("rename", path)
            os.replace(tmp, path)
            directories[path.parent] = None
        if fault_plan is not None:
            fault_plan.after_file_op("write", path)
    for directory in directories:
        _fsync(directory)


def append(path: PathLike, data: Blocks, fault_plan=None) -> None:
    """Append ``data`` to ``path`` and fsync it (and its directory when the
    append created the file)."""
    path = Path(path)
    if fault_plan is not None:
        fault_plan.file_op("write", path)
    created = not path.exists()
    with path.open("ab") as handle:
        _write_blocks(handle, data)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        _fsync(path.parent)
    if fault_plan is not None:
        fault_plan.after_file_op("write", path)


def link(source: PathLike, target: PathLike, fault_plan=None, *,
         copy: bool = False) -> bool:
    """Hard-link ``source`` at ``target`` (sealed mode); returns whether it
    linked.  A failed link — across devices, unsupported, or injected by
    the fault plan — and ``copy=True`` copy the file instead."""
    if not copy:
        try:
            if fault_plan is not None:
                fault_plan.file_op("link", target)
            os.link(source, target)
            return True
        except OSError:
            pass
    shutil.copy2(source, target)
    return False


def publish(moves: Iterable[Tuple[PathLike, PathLike]]) -> None:
    """Rename each ``(source, target)`` into place, in order.

    Each source — a file, or a directory sealed by its :data:`SEAL` — is
    fsynced before its rename (a directory's seal first), and every
    directory renamed from or into is fsynced once after the last one.
    """
    directories = {}
    for source, target in moves:
        source, target = Path(source), Path(target)
        if source.is_dir():
            _fsync(source / SEAL)
        _fsync(source)
        os.replace(source, target)
        directories[source.parent] = None
        directories[target.parent] = None
    for directory in directories:
        _fsync(directory)


def settle(directory: PathLike) -> None:
    """Fsync every file a published directory's :data:`SEAL` lists, then
    every directory holding one — the directory itself included — so its
    sealed-mode content no longer waits in the page cache.  A directory
    without a readable seal vouches for nothing and is left as it is."""
    directory = Path(directory)
    try:
        names = json.loads((directory / SEAL).read_text())
    except (OSError, ValueError):
        return
    directories = {directory: None}
    for name in names:
        path = directory / name
        if path.is_file():
            _fsync(path)
            directories[path.parent] = None
    for folder in directories:
        _fsync(folder)
