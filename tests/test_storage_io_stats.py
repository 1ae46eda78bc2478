"""Tests for repro.storage.io_stats."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.io_stats import IOStats


class TestIOStats:
    def test_record_read_write(self):
        stats = IOStats()
        stats.record_read(100, 0.5)
        stats.record_write(200, 0.25)
        assert stats.read_ops == 1
        assert stats.write_ops == 1
        assert stats.bytes_read == 100
        assert stats.bytes_written == 200
        assert stats.total_bytes == 300
        assert stats.simulated_io_seconds == 0.75

    def test_partition_counters(self):
        stats = IOStats()
        stats.record_partition_load()
        stats.record_partition_load()
        stats.record_partition_unload()
        assert stats.partition_loads == 2
        assert stats.partition_unloads == 1
        assert stats.load_unload_operations == 3

    def test_merge(self):
        a, b = IOStats(), IOStats()
        a.record_read(10)
        b.record_write(20)
        b.record_partition_load()
        a.merge(b)
        assert a.bytes_read == 10
        assert a.bytes_written == 20
        assert a.partition_loads == 1

    def test_reset(self):
        stats = IOStats()
        stats.record_read(10, 1.0)
        stats.record_partition_load()
        stats.reset()
        assert stats.as_dict() == IOStats().as_dict()

    def test_as_dict_and_format(self):
        stats = IOStats()
        stats.record_read(10)
        data = stats.as_dict()
        assert data["read_ops"] == 1
        assert "bytes_read" in stats.format_table()


#: Realistic charges: a read or a write, repeated, of some bytes, each
#: costing up to a minute and a half of simulated seconds.
CHARGES = st.lists(st.tuples(st.booleans(), st.integers(1, 4),
                             st.integers(0, 1 << 30),
                             st.floats(0.0, 100.0, allow_nan=False)),
                   max_size=40)

#: Float seconds added one by one in this order and in reverse differ in
#: their last bit: 1.2000000000000002 against 1.2.
ROUNDED_APART = [(False, 1, 8, 0.1), (False, 1, 8, 0.2), (True, 3, 8, 0.3)]


def _charged(charges, batched=False, stats=None):
    """``stats`` (a new one by default) after ``charges``, one record call
    a read or write, or one ``record_reads`` / ``record_writes`` call a
    charge."""
    stats = IOStats() if stats is None else stats
    for write, count, num_bytes, seconds in charges:
        if batched and write:
            stats.record_writes(count, num_bytes, seconds)
        elif batched:
            stats.record_reads([num_bytes] * count, [seconds] * count)
        else:
            for _ in range(count):
                (stats.record_write if write else stats.record_read)(
                    num_bytes, seconds)
    return stats


class TestOrderFree:
    """Simulated seconds are kept as whole picoseconds, one rounding a
    charge: the same charges give the same ``IOStats`` in any order, one at
    a time, batched or merged from several."""

    @given(CHARGES, st.randoms(use_true_random=False))
    @example(ROUNDED_APART, random.Random(0))
    @settings(max_examples=200, deadline=None)
    def test_any_order_of_the_charges_is_one_total(self, charges, rng):
        shuffled = list(charges)
        rng.shuffle(shuffled)
        for order in (shuffled, charges[::-1]):
            assert _charged(order) == _charged(charges)

    @given(CHARGES, st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_split_of_the_charges_is_one_total(self, charges, data):
        """Each piece of the charges goes through single or batched records
        into the total, or into its own ``IOStats`` merged into it."""
        cuts = data.draw(st.lists(st.integers(0, len(charges))))
        bounds = sorted({0, len(charges), *cuts})
        split = IOStats()
        for lo, hi in zip(bounds, bounds[1:]):
            piece, batched = charges[lo:hi], data.draw(st.booleans())
            if data.draw(st.booleans()):
                split.merge(_charged(piece, batched))
            else:
                _charged(piece, batched, stats=split)
        assert split == _charged(charges)

    @given(CHARGES)
    @example(ROUNDED_APART)
    @example([(False, 2, 4096, 9.2e6 / 2)])     # an int64 batch's range
    @settings(max_examples=200, deadline=None)
    def test_the_total_is_the_sum_of_the_rounded_charges(self, charges):
        expected = sum(count * round(seconds * 1e12)
                       for _, count, _, seconds in charges)
        for batched in (False, True):
            stats = _charged(charges, batched)
            assert type(stats.simulated_io_ps) is int
            assert stats.simulated_io_ps == expected
            assert stats.simulated_io_seconds == expected / 1e12
