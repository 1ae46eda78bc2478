"""Tests for repro.core.update_queue."""

import threading

import pytest

from repro.core.update_queue import ProfileUpdateQueue
from repro.similarity.workloads import ProfileChange


class TestQueueBasics:
    def test_enqueue_and_drain(self):
        queue = ProfileUpdateQueue()
        queue.enqueue_many([ProfileChange(user=0, kind="add", item=1)])
        queue.enqueue_many([ProfileChange(user=1, kind="add", item=2)])
        assert len(queue) == 2
        drained = queue.drain()
        assert [c.user for c in drained] == [0, 1]
        assert len(queue) == 0

    def test_drain_empty(self):
        assert ProfileUpdateQueue().drain() == []

    def test_enqueue_many(self):
        queue = ProfileUpdateQueue()
        count = queue.enqueue_many(
            ProfileChange(user=u, kind="add", item=u) for u in range(5))
        assert count == 5
        assert len(queue) == 5

    def test_peek_does_not_remove(self):
        queue = ProfileUpdateQueue()
        queue.enqueue_many([ProfileChange(user=3, kind="remove", item=9)])
        snapshot = queue.peek()
        assert len(snapshot) == 1
        assert len(queue) == 1

    def test_type_check(self):
        with pytest.raises(TypeError):
            ProfileUpdateQueue().enqueue_many(["not a change"])


class TestThreadSafety:
    def test_concurrent_enqueue(self):
        queue = ProfileUpdateQueue()

        def worker(base):
            for i in range(200):
                queue.enqueue_many([ProfileChange(user=base + i, kind="add", item=i)])

        threads = [threading.Thread(target=worker, args=(t * 1000,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(queue) == 800
        assert len(queue.drain()) == 800


class TestServingShapedConcurrency:
    """The access pattern the serving runtime produces: many writer threads
    calling ``enqueue_many`` against a durable WAL while a drainer (the
    refresh loop) repeatedly empties the queue mid-stream."""

    NUM_WRITERS = 4
    BATCHES_PER_WRITER = 25
    BATCH_SIZE = 8

    def test_interleaved_enqueue_many_and_drain_with_durable_wal(self, tmp_path):
        queue = ProfileUpdateQueue(wal_path=tmp_path / "wal.bin")
        drained = []
        stop = threading.Event()

        def writer(base):
            for batch in range(self.BATCHES_PER_WRITER):
                queue.enqueue_many(
                    ProfileChange(user=base + batch * self.BATCH_SIZE + i,
                                  kind="add", item=i)
                    for i in range(self.BATCH_SIZE))

        def drainer():
            while not stop.is_set():
                drained.extend(queue.drain())
            drained.extend(queue.drain())

        writers = [threading.Thread(target=writer, args=(t * 10_000,))
                   for t in range(self.NUM_WRITERS)]
        drain_thread = threading.Thread(target=drainer)
        drain_thread.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        drain_thread.join()

        expected = (self.NUM_WRITERS * self.BATCHES_PER_WRITER
                    * self.BATCH_SIZE)
        # nothing lost, nothing duplicated — across memory and the WAL
        assert len(drained) + len(queue) == expected
        assert len(queue) == 0
        assert len({(c.user, c.item) for c in drained}) == expected
        records = queue.wal_records()
        assert len(records) == expected
        seqs = [int(r["seq"]) for r in records]
        # WAL sequence numbers are unique and strictly monotone: replaying
        # the log after a crash can never double-apply or reorder a batch
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == expected
        # each writer's batches appear in its submission order (FIFO per
        # producer survives the interleaving)
        drained_users = [c.user for c in drained]
        for writer_index in range(self.NUM_WRITERS):
            base = writer_index * 10_000
            own = [u for u in drained_users if base <= u < base + 10_000]
            assert own == sorted(own)
        assert queue.last_applied_seq == max(seqs)

    def test_an_appended_batch_is_on_disk_when_enqueue_returns(self, tmp_path):
        # each append opens, writes, fsyncs and closes the log: there is no
        # handle to close, and a queue reopened at once replays the record
        queue = ProfileUpdateQueue(wal_path=tmp_path / "wal.bin")
        queue.enqueue_many([ProfileChange(user=0, kind="add", item=1)])
        assert len(queue.wal_records()) == 1
        reopened = ProfileUpdateQueue(wal_path=tmp_path / "wal.bin")
        assert reopened.wal_preexisting
        assert reopened.replay_tail(-1) == 1

    def test_without_a_wal_nothing_is_logged(self):
        queue = ProfileUpdateQueue()
        queue.enqueue_many([ProfileChange(user=0, kind="add", item=1)])
        assert queue.wal_path is None
        assert queue.wal_records() == []
