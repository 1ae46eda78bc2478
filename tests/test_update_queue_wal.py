"""Durable-WAL edge cases for :class:`ProfileUpdateQueue`.

The exactly-once contract rests on three properties tested here: sequence
numbers survive reopen without collision, replay filters strictly by the
committed sequence, and a torn or corrupt tail silently truncates to the
last complete record.  The concurrency tests pin that a drain racing an
``enqueue_many`` never loses or duplicates a change.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.update_queue import (ProfileUpdateQueue, _encode_record,
                                     change_from_manifest, change_to_manifest)
from repro.similarity.workloads import ProfileChange
from repro.testing import FaultPlan, InjectedCrash


def _set_change(user, value=1.0, dim=4):
    return ProfileChange(user=user, kind="set",
                         vector=np.full(dim, value))


def _add_change(user, item):
    return ProfileChange(user=user, kind="add", item=item)


class TestWalRoundTrip:
    def test_records_survive_reopen(self, tmp_path):
        wal = tmp_path / "wal.bin"
        queue = ProfileUpdateQueue(wal_path=wal)
        queue.enqueue_many([_add_change(u, 10 + u) for u in range(5)])

        reopened = ProfileUpdateQueue(wal_path=wal)
        assert reopened.wal_preexisting
        assert len(reopened) == 0          # records are not auto-loaded
        assert reopened.replay_tail(-1) == 5
        users = [c.user for c in reopened.drain()]
        assert users == list(range(5))

    def test_sequence_resumes_past_existing_records(self, tmp_path):
        wal = tmp_path / "wal.bin"
        queue = ProfileUpdateQueue(wal_path=wal)
        queue.enqueue_many([_add_change(u, u) for u in range(3)])
        reopened = ProfileUpdateQueue(wal_path=wal)
        reopened.enqueue_many([_add_change(9, 9)])
        seqs = [r["seq"] for r in reopened.wal_records()]
        assert seqs == [0, 1, 2, 3]        # no collision after reopen

    def test_vector_changes_round_trip_bitwise(self, tmp_path):
        wal = tmp_path / "wal.bin"
        vector = np.random.default_rng(3).random(8)
        queue = ProfileUpdateQueue(wal_path=wal)
        queue.enqueue_many([ProfileChange(user=2, kind="set", vector=vector)])
        reopened = ProfileUpdateQueue(wal_path=wal)
        reopened.replay_tail(-1)
        (change,) = reopened.drain()
        assert np.array_equal(change.vector, vector)

    def test_manifest_codec_round_trip(self):
        change = ProfileChange(user=7, kind="remove", item=42)
        back = change_from_manifest(change_to_manifest(change))
        assert (back.user, back.kind, back.item) == (7, "remove", 42)


class TestExactlyOnce:
    def test_drained_records_are_not_replayed(self, tmp_path):
        wal = tmp_path / "wal.bin"
        queue = ProfileUpdateQueue(wal_path=wal)
        queue.enqueue_many([_add_change(u, u) for u in range(4)])
        queue.drain()                       # "applied" by phase 5
        applied = queue.last_applied_seq
        queue.enqueue_many([_add_change(u, u) for u in (8, 9)])

        recovered = ProfileUpdateQueue(wal_path=wal)
        assert recovered.replay_tail(applied) == 2
        assert sorted(c.user for c in recovered.drain()) == [8, 9]

    def test_replay_after_truncation_still_exact(self, tmp_path):
        wal = tmp_path / "wal.bin"
        queue = ProfileUpdateQueue(wal_path=wal)
        queue.enqueue_many([_add_change(u, u) for u in range(6)])
        queue.drain()
        applied = queue.last_applied_seq
        queue.enqueue_many([_add_change(7, 7)])
        queue.truncate_wal(applied)         # GC the applied prefix
        recovered = ProfileUpdateQueue(wal_path=wal)
        # replaying with a bound far in the past cannot resurrect the
        # truncated (applied) records — they are gone, and the survivor's
        # sequence is above the bound either way
        assert recovered.replay_tail(-1) == 1
        assert recovered.drain()[0].user == 7

    def test_a_wal_truncated_empty_does_not_reuse_applied_sequences(self, tmp_path):
        """Everything applied and garbage-collected, then a restart: the
        reopened queue cannot read the numbering off an empty WAL, so the
        replay bound resumes it.  A batch numbered from 0 again would sit at
        or below the bound and be skipped, as applied, by the next recovery
        — an acknowledged write lost."""
        wal = tmp_path / "wal.bin"
        queue = ProfileUpdateQueue(wal_path=wal)
        queue.enqueue_many([_add_change(u, u) for u in range(3)])
        queue.drain()
        applied = queue.last_applied_seq
        queue.truncate_wal(applied)

        restarted = ProfileUpdateQueue(wal_path=wal)
        assert restarted.replay_tail(applied) == 0
        # a commit that drains nothing still records the bound as applied
        assert restarted.last_applied_seq == applied
        restarted.enqueue_many([_add_change(u, u) for u in (8, 9)])
        # ... and dies before any drain

        recovered = ProfileUpdateQueue(wal_path=wal)
        assert recovered.replay_tail(applied) == 2
        assert sorted(c.user for c in recovered.drain()) == [8, 9]


class TestTornAndCorruptTails:
    def _write_wal(self, path, changes):
        path.write_bytes(b"".join(_encode_record(seq, change)
                                  for seq, change in enumerate(changes)))

    def test_torn_tail_drops_only_the_last_record(self, tmp_path):
        wal = tmp_path / "wal.bin"
        self._write_wal(wal, [_add_change(u, u) for u in range(3)])
        raw = wal.read_bytes()
        wal.write_bytes(raw[:-5])           # crash mid-append of record 2
        queue = ProfileUpdateQueue(wal_path=wal)
        assert [r["seq"] for r in queue.wal_records()] == [0, 1]

    def test_corrupt_record_rejects_it_and_everything_after(self, tmp_path):
        wal = tmp_path / "wal.bin"
        self._write_wal(wal, [_add_change(u, u) for u in range(3)])
        raw = bytearray(wal.read_bytes())
        raw[len(raw) // 2] ^= 0xFF          # flip a bit mid-log
        wal.write_bytes(bytes(raw))
        queue = ProfileUpdateQueue(wal_path=wal)
        records = queue.wal_records()
        assert len(records) < 3
        assert all(r["seq"] == i for i, r in enumerate(records))

    def test_empty_wal_recovery_is_a_no_op(self, tmp_path):
        wal = tmp_path / "wal.bin"
        wal.write_bytes(b"")
        queue = ProfileUpdateQueue(wal_path=wal)
        assert not queue.wal_preexisting
        assert queue.replay_tail(-1) == 0
        assert len(queue) == 0

    def test_missing_wal_file_recovery_is_a_no_op(self, tmp_path):
        queue = ProfileUpdateQueue(wal_path=tmp_path / "absent.bin")
        assert not queue.wal_preexisting
        assert queue.replay_tail(-1) == 0

    def test_injected_crash_after_append_leaves_durable_records(self, tmp_path):
        wal = tmp_path / "wal.bin"
        plan = FaultPlan().crash_at("wal.appended", occurrence=1)
        queue = ProfileUpdateQueue(wal_path=wal, fault_plan=plan)
        with pytest.raises(InjectedCrash):
            queue.enqueue_many([_add_change(u, u) for u in range(3)])
        # the crash fired after write+flush: all three records are on disk
        recovered = ProfileUpdateQueue(wal_path=wal)
        assert recovered.replay_tail(-1) == 3


class TestConcurrency:
    def test_concurrent_enqueue_many_and_drain_lose_nothing(self, tmp_path):
        wal = tmp_path / "wal.bin"
        queue = ProfileUpdateQueue(wal_path=wal)
        batches = [[_add_change(b * 100 + i, i) for i in range(20)]
                   for b in range(10)]
        drained = []
        stop = threading.Event()

        def producer():
            for batch in batches:
                queue.enqueue_many(batch)
            stop.set()

        def consumer():
            while not stop.is_set() or len(queue):
                drained.extend(queue.drain())

        threads = [threading.Thread(target=producer),
                   threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        drained.extend(queue.drain())
        expected = sorted(c.user for batch in batches for c in batch)
        assert sorted(c.user for c in drained) == expected
        # WAL saw every record exactly once, in sequence order
        assert [r["seq"] for r in queue.wal_records()] == list(range(200))

    def test_concurrent_single_enqueues_keep_sequences_unique(self, tmp_path):
        queue = ProfileUpdateQueue(wal_path=tmp_path / "wal.bin")
        def worker(base):
            for i in range(25):
                queue.enqueue_many([_add_change(base + i, i)])
        threads = [threading.Thread(target=worker, args=(b * 100,))
                   for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        seqs = [r["seq"] for r in queue.wal_records()]
        assert sorted(seqs) == list(range(100))
        assert len(set(seqs)) == 100
