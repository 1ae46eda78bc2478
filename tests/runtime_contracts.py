"""The durability, lock and memmap contracts, checked on every test's trace.

``conftest.py`` installs :class:`Contracts` for the whole session; a test
during which a contract broke fails at its teardown, naming the contract.
The checker watches os-level calls, not the seam, so a seam that drops its
own fsync is still caught:

(a) a file or directory ``repro.storage.durable`` renames has the
    ``(size, mtime_ns)`` it had at its last fsync;
(b) a directory it renames holds a fsynced ``checksums.json`` that lists
    every other file in it;
(c) a durable-mode seam call returns only after each directory it renamed,
    linked or created into was fsynced after the change (and an append
    only after its file was);
(d) ``repro`` code calls ``os.replace`` / ``rename`` / ``link`` only from
    ``durable.py``;
(e) no ``os.fsync``, ``time.sleep``, ``Event.wait`` or ``Thread.join`` runs
    under a hot lock, and the locks of :data:`LOCKS` are taken in no cycle;
(f) no ``repro`` module outside ``repro.storage`` opens a writable
    ``np.memmap``;
(g) a WAL truncation finds every file the ``checksums.json`` of the oldest
    sealed epoch beside the WAL lists, and every directory holding one,
    fsynced at their current ``(size, mtime_ns)``: the records it drops
    are then replaced by an epoch on disk.

A check sees only the paths the tests walk (``docs/robustness.md``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import stat
import sys
import threading
import time
from pathlib import Path

import numpy as np

SEAM = "repro.storage.durable"

#: Every lock in the package: (module, class, attribute).
LOCKS = (
    ("repro.service.runtime", "ServingRuntime", "_engine_lock"),
    ("repro.service.runtime", "ServingRuntime", "_view_lock"),
    ("repro.service.runtime", "ServingRuntime", "_stats_lock"),
    ("repro.service.supervisor", "RefreshSupervisor", "_state_lock"),
    ("repro.service.admission", "AdmissionController", "_lock"),
    ("repro.service.admission", "AdmissionController", "_counts_lock"),
    ("repro.core.update_queue", "ProfileUpdateQueue", "_lock"),
    ("repro.testing.faults", "FaultPlan", "_lock"),
)

#: Locks a reader or a probe takes: nothing may block while one is held.
HOT_LOCKS = frozenset({"ServingRuntime._view_lock", "ServingRuntime._stats_lock",
                       "AdmissionController._counts_lock",
                       "RefreshSupervisor._state_lock"})

#: Seam calls that must return durable; sealed-mode calls are checked when
#: their directory is published.
_DURABLE_CALLS = ("write", "append", "publish")
_PASS_THROUGH = ("os", "shutil", "pathlib", "tempfile")
_WRITABLE_MAPS = ("r+", "w+", "readwrite", "write")


def _caller(depth: int) -> str:
    """The module of the first frame ``depth`` up that is not a stdlib
    file helper (``Path.rename`` reports who called it)."""
    frame = sys._getframe(depth)
    while frame is not None and (frame.f_globals.get("__name__", "")
                                 .split(".")[0] in _PASS_THROUGH):
        frame = frame.f_back
    return frame.f_globals.get("__name__", "") if frame is not None else ""


def _key(st) -> tuple:
    return st.st_dev, st.st_ino


class RecordingLock:
    """A lock that reports each acquire and release to :class:`Contracts`."""

    def __init__(self, contracts: "Contracts", name: str, lock):
        self._contracts, self.name, self._lock = contracts, name, lock

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._contracts.acquired(self.name)
        return acquired

    def __enter__(self) -> bool:
        self._lock.acquire()
        self._contracts.acquired(self.name)
        return True

    def release(self) -> None:
        self._contracts.released(self.name)
        self._lock.release()

    def __exit__(self, *exc) -> None:
        self._contracts.released(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()


class Contracts:
    def __init__(self):
        self.violations: list = []
        self.real_fsync = os.fsync
        self._seq = itertools.count()
        self._synced: dict = {}       # inode -> (size, mtime_ns) at its last fsync
        self._synced_at: dict = {}    # inode -> sequence number of that fsync
        self._edges: dict = {}        # lock name -> names taken while it was held
        self._edges_lock = threading.Lock()
        self._local = threading.local()

    # -- reporting ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def take(self) -> list:
        """The violations recorded so far, cleared."""
        found, self.violations[:] = list(self.violations), []
        return found

    def _frames(self) -> list:
        return self._local.__dict__.setdefault("frames", [])

    def _held(self) -> list:
        return self._local.__dict__.setdefault("held", [])

    def fsynced(self, path, st=None) -> bool:
        """Whether ``path`` (whose ``os.stat`` may be passed) is in the state
        its last fsync saw."""
        st = os.stat(path) if st is None else st
        return self._synced.get(_key(st)) == (st.st_size, st.st_mtime_ns)

    # -- installation ------------------------------------------------------

    def install(self, patch) -> None:
        patch.setattr(os, "fsync", self._fsync)
        for name in ("replace", "rename", "link"):
            patch.setattr(os, name, self._os_op(name, getattr(os, name)))
        durable = importlib.import_module(SEAM)
        for name in ("write", "append", "link", "publish"):
            patch.setattr(durable, name, self._seam(getattr(durable, name)))
        patch.setattr(time, "sleep", self._blocking_call("time.sleep", time.sleep))
        patch.setattr(threading.Event, "wait",
                      self._blocking_call("Event.wait", threading.Event.wait))
        patch.setattr(threading.Thread, "join",
                      self._blocking_call("Thread.join", threading.Thread.join))
        patch.setattr(np.memmap, "__new__", staticmethod(self._memmap(np.memmap.__new__)))
        queue = importlib.import_module("repro.core.update_queue").ProfileUpdateQueue
        patch.setattr(queue, "truncate_wal", self._truncation(queue.truncate_wal))
        owners: dict = {}
        for module, owner, attr in LOCKS:
            cls = getattr(importlib.import_module(module), owner)
            owners.setdefault(cls, []).append(attr)
        for cls, attrs in owners.items():
            patch.setattr(cls, "__init__", self._recording_init(cls, attrs))

    # -- durability: (a)-(d) -------------------------------------------------

    def _fsync(self, fd: int) -> None:
        self.blocking("os.fsync")
        self.real_fsync(fd)
        st = os.fstat(fd)
        self._synced[_key(st)] = (st.st_size, st.st_mtime_ns)
        self._synced_at[_key(st)] = next(self._seq)

    def _os_op(self, name: str, real):
        def wrapper(src, dst, *args, **kwargs):
            caller = _caller(2)
            if caller == SEAM and name != "link":
                self._check_published(Path(src))
            elif caller.startswith("repro") and caller != SEAM:
                self.fail(f"(d) {caller} calls os.{name}({src!s}, {dst!s}) "
                          "outside the durable seam")
            result = real(src, dst, *args, **kwargs)
            moved = {Path(dst).parent} | ({Path(src).parent} if name != "link" else set())
            for frame in self._frames():
                frame.extend((_key(os.stat(directory)), next(self._seq), directory)
                             for directory in moved)
            return result
        return wrapper

    def _check_published(self, src: Path) -> None:
        st = os.stat(src)
        if not self.fsynced(src, st):
            self.fail(f"(a) {src} is renamed while its size or mtime differs "
                      "from its last fsync")
        if not stat.S_ISDIR(st.st_mode):
            return
        seal = src / "checksums.json"
        if not seal.is_file() or not self.fsynced(seal):
            self.fail(f"(b) {src} is published without a fsynced checksums.json")
            return
        unlisted = {str(path.relative_to(src)) for path in src.rglob("*")
                    if path.is_file() and path != seal} - set(json.loads(seal.read_text()))
        if unlisted:
            self.fail(f"(b) {src}/checksums.json does not list {sorted(unlisted)}")

    def _seam(self, real):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            touched: list = []
            start = next(self._seq)
            target = Path(args[0]) if real.__name__ == "append" else None
            created = target is not None and not target.exists()
            self._frames().append(touched)
            try:
                result = real(*args, **kwargs)
            finally:
                self._frames().pop()
            if real.__name__ not in _DURABLE_CALLS or kwargs.get("sealed"):
                return result
            if target is not None:
                touched.append((_key(os.stat(target)), start, target))
                if created:
                    touched.append((_key(os.stat(target.parent)), start, target.parent))
            for key, seq, path in touched:
                if self._synced_at.get(key, -1) < seq:
                    self.fail(f"(c) durable.{real.__name__} returned before "
                              f"{path} was fsynced after its change")
            return result
        return wrapper

    # -- locks: (e) --------------------------------------------------------

    def blocking(self, what: str) -> None:
        hot = [name for name in self._held() if name in HOT_LOCKS]
        if hot:
            self.fail(f"(e) {what} runs under hot lock(s) {hot}")

    def _blocking_call(self, what: str, real):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            self.blocking(what)
            return real(*args, **kwargs)
        return wrapper

    def acquired(self, name: str) -> None:
        held = self._local.__dict__.setdefault("held", [])
        for outer in held:
            if outer == name or name in self._edges.get(outer, ()):
                continue
            with self._edges_lock:
                self._edges.setdefault(outer, set()).add(name)
                cycle = self._reaches(name, outer)
            if cycle:
                self.fail(f"(e) lock-order cycle: {name} is taken under {outer}, "
                          f"and {outer} was taken under {name}")
        held.append(name)

    def released(self, name: str) -> None:
        held = self._local.__dict__.get("held", ())
        if held and held[-1] == name:
            held.pop()
        elif name in held:
            del held[len(held) - 1 - held[::-1].index(name)]

    def _reaches(self, start: str, goal: str) -> bool:
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(self._edges.get(node, ()))
        return False

    def _recording_init(self, cls, attrs):
        real = cls.__init__
        contracts = self

        @functools.wraps(real)
        def __init__(self, *args, **kwargs):
            real(self, *args, **kwargs)
            for attr in attrs:
                setattr(self, attr, RecordingLock(
                    contracts, f"{cls.__name__}.{attr}", getattr(self, attr)))
        return __init__

    # -- memmaps: (f) --------------------------------------------------------

    def _memmap(self, real):
        def __new__(subtype, filename, dtype=np.uint8, mode="r+", *args, **kwargs):
            caller = _caller(2)
            if (mode in _WRITABLE_MAPS and caller.startswith("repro.")
                    and not caller.startswith("repro.storage")):
                self.fail(f"(f) {caller} opens a writable np.memmap "
                          f"(mode={mode!r}) of {filename}")
            return real(subtype, filename, dtype, mode, *args, **kwargs)
        return __new__

    # -- the kept epoch: (g) ---------------------------------------------------

    def _truncation(self, real):
        @functools.wraps(real)
        def truncate_wal(queue, *args, **kwargs):
            if queue.wal_path is not None:
                self._check_kept_epoch(queue.wal_path.parent / "commits")
            return real(queue, *args, **kwargs)
        return truncate_wal

    def _check_kept_epoch(self, commits: Path) -> None:
        sealed = sorted(path for path in commits.glob("epoch_*")
                        if not path.name.endswith(".tmp")
                        and (path / "checksums.json").is_file())
        if not sealed:
            return
        epoch = sealed[0]
        files = [epoch / name for name in json.loads(
            (epoch / "checksums.json").read_text())]
        unsynced = [path for path in files + sorted({path.parent for path in files}
                                                    | {epoch})
                    if path.exists() and not self.fsynced(path)]
        if unsynced:
            self.fail(f"(g) the WAL is truncated while {epoch.name} has "
                      f"{[str(path.relative_to(commits)) for path in unsynced]} "
                      "not fsynced in their current state")
