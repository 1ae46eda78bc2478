"""The open-loop scheduler on a simulated clock."""

import pytest

from openloop import run_open_loop


class _World:
    """A clock that only moves when someone sleeps or an action takes time."""

    def __init__(self):
        self.now = 100.0
        self.sent = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_requests_are_due_on_schedule_and_timed_from_their_due_time():
    world = _World()

    def action(slot):
        world.sent.append((slot, world.now))
        world.now += 0.001

    report = run_open_loop(action, rate=100.0, duration=0.05, limit=0.005,
                           clock=world.clock, sleep=world.sleep)
    assert report.attempted == 5 and report.skipped == 0 and report.failed == 0
    assert [slot for slot, _ in world.sent] == [0, 1, 2, 3, 4]
    assert [at for _, at in world.sent] == pytest.approx(
        [100.0, 100.01, 100.02, 100.03, 100.04])
    assert report.latencies == pytest.approx([0.001] * 5)
    assert report.lateness == pytest.approx([0.0] * 5)
    assert report.on_time_share(0.005) == 1.0


def test_a_stall_is_charged_to_the_requests_it_delayed_without_a_burst():
    world = _World()

    def action(slot):
        world.sent.append(slot)
        world.now += 0.1 if slot == 2 else 0.0005     # one 100 ms stall

    report = run_open_loop(action, rate=1000.0, duration=0.2, limit=0.005,
                           clock=world.clock, sleep=world.sleep)
    assert report.attempted == 200
    # slot 2 finished 100 ms after it was due; the ~95 slots that fell due
    # during the stall had missed their limit before they could be sent
    assert max(report.latencies) == pytest.approx(0.1)
    assert 90 <= report.skipped <= 100
    # each dropped slot enters the tail with how late it already was
    assert min(report.skipped_lateness) > 0.005
    assert max(report.latencies_with_skipped()) == pytest.approx(0.1)
    assert all(slot not in world.sent for slot in range(5, 90))
    # no catch-up burst: what was sent after the stall was still on time
    assert max(report.lateness) <= 0.005
    # ...so beyond the stalled request itself at most the one sent at the
    # very edge of its limit was answered late
    assert len(report.latencies) - report.on_time(0.005) <= 2
    assert report.on_time_share(0.005) == report.on_time(0.005) / 200


def test_generator_lateness_is_recorded_and_failures_count_as_missed():
    world = _World()

    def action(slot):
        world.now += 0.003            # slower than the 2 ms period: always behind
        if slot == 1:
            raise RuntimeError("refused")

    report = run_open_loop(action, rate=500.0, duration=0.02, limit=0.005,
                           clock=world.clock, sleep=world.sleep)
    assert report.attempted == 10
    assert report.failed == 1
    assert report.lateness[0] == 0.0 and report.lateness[1] == pytest.approx(0.001)
    assert len(report.latencies) + report.failed + report.skipped == 10
    assert report.on_time_share(0.005) < 1.0
