"""The lazy profile-update queue (phase 5), optionally backed by a WAL.

Profile changes that arrive while an iteration is running are *not* applied
to ``P(t)``; they are buffered here and applied in one batch at the end of
the iteration to produce ``P(t+1)``.  This is the paper's answer to
profiles changing concurrently with the computation: the iteration always
sees a consistent snapshot.

Durable mode
------------
When constructed with ``wal_path``, every enqueued batch is also appended
to a write-ahead log, and fsynced, before it becomes visible to
:meth:`drain` (:func:`repro.storage.durable.append`), so
enqueued-but-unapplied changes survive a crash of the whole machine.  The
record format is::

    <u32 payload length> <u32 CRC32(payload)> <payload>

with a little-endian header and a JSON payload carrying a monotonically
increasing ``seq`` number plus the change fields.  The ``seq`` numbers are
the exactly-once mechanism: :meth:`drain` remembers the last sequence it
handed out (:attr:`last_applied_seq`), the iteration commit persists that
number, and recovery replays only records **after** the committed sequence
(:meth:`replay_tail`).  WAL truncation (:meth:`truncate_wal`) is therefore
mere garbage collection — replaying an un-truncated WAL can never
double-apply a change, because applied sequences are filtered out.

A torn tail (a record cut short by a crash mid-append, or corrupted on
disk) fails its length or CRC check; the scan stops there and every record
before the tear replays normally.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.similarity.workloads import ProfileChange
from repro.storage import durable

_RECORD_HEADER = struct.Struct("<II")


def change_to_manifest(change: ProfileChange) -> dict:
    """A :class:`ProfileChange` as a JSON-serialisable dict (WAL/checkpoints)."""
    return {
        "user": int(change.user),
        "kind": change.kind,
        "item": None if change.item is None else int(change.item),
        "vector": (None if change.vector is None
                   else np.asarray(change.vector, dtype=np.float64).tolist()),
    }


def change_from_manifest(data: dict) -> ProfileChange:
    vector = data.get("vector")
    return ProfileChange(
        user=int(data["user"]), kind=data["kind"], item=data.get("item"),
        vector=None if vector is None else np.asarray(vector, dtype=np.float64))


def _frame(payload: dict) -> bytes:
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _RECORD_HEADER.pack(len(blob), zlib.crc32(blob)) + blob


def _encode_record(seq: int, change: ProfileChange) -> bytes:
    return _frame(dict(change_to_manifest(change), seq=int(seq)))


def _scan_wal_bytes(data: bytes) -> List[dict]:
    """Decode the valid record prefix of raw WAL bytes.

    Stops silently at the first torn or corrupt record: a crash mid-append
    leaves a short or CRC-mismatching tail, and everything before it is by
    construction a complete, verified record.
    """
    records: List[dict] = []
    offset = 0
    total = len(data)
    while offset + _RECORD_HEADER.size <= total:
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        start = offset + _RECORD_HEADER.size
        end = start + length
        if end > total:
            break  # torn tail: header promises more bytes than exist
        blob = data[start:end]
        if zlib.crc32(blob) != crc:
            break  # corrupt record: reject it and everything after
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        records.append(payload)
        offset = end
    return records


class ProfileUpdateQueue:
    """Thread-safe FIFO buffer of :class:`ProfileChange` items.

    Parameters
    ----------
    wal_path:
        When given, enqueued changes are appended to this write-ahead log
        before becoming drainable (see the module docstring for the format
        and the exactly-once contract).  ``None`` keeps the queue purely
        in-memory (the default, and the historical behaviour).  Each
        :meth:`enqueue_many` batch is one append and one fsync.
    fault_plan:
        Optional :class:`repro.testing.faults.FaultPlan` consulted around
        WAL writes (crash point ``wal.appended``, file ops on the WAL).
    """

    def __init__(self, wal_path: Optional[Union[str, Path]] = None,
                 fault_plan=None):
        self._changes: List[ProfileChange] = []
        self._seqs: List[int] = []
        self._lock = threading.Lock()
        self._next_seq = 0
        self._applied_seq = -1
        self._fault_plan = fault_plan
        self._wal_path = Path(wal_path) if wal_path is not None else None
        self._wal_preexisting = False
        if self._wal_path is not None:
            self._wal_path.parent.mkdir(parents=True, exist_ok=True)
            existing = self.wal_records()
            if existing:
                # continue the sequence past whatever the previous process
                # logged, so replayed and new records never collide
                self._wal_preexisting = True
                self._next_seq = max(int(r["seq"]) for r in existing) + 1

    # -- WAL internals -------------------------------------------------------

    @property
    def wal_path(self) -> Optional[Path]:
        return self._wal_path

    @property
    def wal_preexisting(self) -> bool:
        """Whether the WAL already held records when this queue was opened.

        A recovering engine uses this to tell "fresh run with durability
        on" apart from "reopened after a crash, tail may need replaying".
        """
        return self._wal_preexisting

    @property
    def last_applied_seq(self) -> int:
        """Sequence number of the last drained change (``-1`` before any)."""
        with self._lock:
            return self._applied_seq

    def _append_wal(self, pairs: Sequence[Tuple[int, ProfileChange]]) -> None:
        """Append encoded records for ``pairs`` in one write + one fsync."""
        if self._wal_path is None or not pairs:
            return
        durable.append(self._wal_path,
                       b"".join(_encode_record(seq, change) for seq, change in pairs),
                       self._fault_plan)
        if self._fault_plan is not None:
            self._fault_plan.point("wal.appended")

    def wal_records(self) -> List[dict]:
        """All valid records currently in the WAL (torn tail excluded)."""
        if self._wal_path is None or not self._wal_path.exists():
            return []
        return _scan_wal_bytes(self._wal_path.read_bytes())

    def replay_tail(self, after_seq: int) -> int:
        """Reload WAL records with ``seq > after_seq`` into the queue.

        Used by crash recovery: records at or below the committed sequence
        were already applied to the profiles and are skipped, so replaying
        is exactly-once regardless of when the WAL was last truncated.  The
        records are loaded in WAL order **without** being re-appended (they
        are already durable).  Returns how many records were reloaded.

        Sequences up to ``after_seq`` are spoken for from here on: a commit
        that drains nothing still records them as applied, and new records
        are numbered past them even when truncation left the WAL empty (a
        reused number would be skipped, as applied, by the next recovery).
        """
        replayed = 0
        with self._lock:
            self._applied_seq = max(self._applied_seq, after_seq)
            self._next_seq = max(self._next_seq, after_seq + 1)
            for payload in self.wal_records():
                seq = int(payload["seq"])
                if seq <= after_seq:
                    continue
                self._changes.append(change_from_manifest(payload))
                self._seqs.append(seq)
                replayed += 1
        return replayed

    def truncate_wal(self, keep_after_seq: int) -> None:
        """Drop WAL records with ``seq <= keep_after_seq`` (garbage collection).

        The survivors are rewritten to a log that atomically replaces the
        WAL (:func:`repro.storage.durable.write`), so a crash mid-truncate
        leaves either the old or the new log — never a half-written one.
        Correctness never depends on truncation happening: replay filters
        by sequence number.
        """
        if self._wal_path is None:
            return
        with self._lock:
            survivors = [_frame(payload) for payload in self.wal_records()
                         if int(payload["seq"]) > keep_after_seq]
            durable.write([(self._wal_path, survivors)], self._fault_plan)

    # -- queue API -----------------------------------------------------------

    def enqueue_many(self, changes: Iterable[ProfileChange]) -> int:
        """Buffer many changes; returns how many were enqueued.

        The batch is validated up front and appended under a single lock
        acquisition (and, in durable mode, a single WAL write + fsync), so
        a high-rate change feed never serialises on per-change locking.
        """
        items = list(changes)
        for change in items:
            if not isinstance(change, ProfileChange):
                raise TypeError(f"expected ProfileChange, got {type(change).__name__}")
        with self._lock:
            pairs = []
            for change in items:
                pairs.append((self._next_seq, change))
                self._next_seq += 1
            self._append_wal(pairs)
            self._changes.extend(items)
            self._seqs.extend(seq for seq, _ in pairs)
        return len(items)

    def drain(self) -> List[ProfileChange]:
        """Remove and return all buffered changes (applied by phase 5).

        In durable mode this also advances :attr:`last_applied_seq` to the
        last drained record — the number the iteration commit persists so
        recovery knows where the replay tail starts.
        """
        with self._lock:
            drained = self._changes
            self._changes = []
            if self._seqs:
                self._applied_seq = self._seqs[-1]
            self._seqs = []
        return drained

    def peek(self) -> Sequence[ProfileChange]:
        """A snapshot of the currently buffered changes (not removed)."""
        with self._lock:
            return tuple(self._changes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._changes)
