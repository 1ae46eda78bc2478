"""Open-loop request generation.

Requests are due on a fixed schedule whatever the program does, each is
timed from when it was *due* (so a stall is charged to every request it
delayed), and how late the generator itself ran is recorded.  A slot that
is already past its latency limit before it can be sent has missed it: it
is counted as attempted and missed and is **not** sent, so a stall is
never followed by a burst of stale requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List


@dataclass
class OpenLoopReport:
    """What one open-loop client observed."""

    attempted: int = 0
    #: requests that raised
    failed: int = 0
    #: finish minus due time of every request that was sent and answered
    latencies: List[float] = field(default_factory=list)
    #: send minus due time of every request that was sent
    lateness: List[float] = field(default_factory=list)
    #: slots dropped unsent because the generator reached them too late: how
    #: far past due each already was — a lower bound on its latency
    skipped_lateness: List[float] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return len(self.skipped_lateness)

    def on_time(self, limit: float) -> int:
        return sum(1 for latency in self.latencies if latency <= limit)

    def latencies_with_skipped(self) -> List[float]:
        """Every attempted request that did not fail, for tail percentiles: a
        distribution of the sent requests alone would be cut off at the limit."""
        return self.latencies + self.skipped_lateness

    def on_time_share(self, limit: float) -> float:
        """Requests answered within ``limit`` of their due time, over all
        attempted; skipped and failed requests count as missed."""
        return self.on_time(limit) / self.attempted if self.attempted else 0.0


def run_open_loop(action: Callable[[int], None], rate: float, duration: float,
                  limit: float, clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep) -> OpenLoopReport:
    """Call ``action(slot)`` at ``rate`` per second for ``duration`` seconds."""
    report = OpenLoopReport()
    start = clock()
    for slot in range(int(rate * duration)):
        due = start + slot / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        report.attempted += 1
        if now - due > limit:
            report.skipped_lateness.append(now - due)
            continue
        report.lateness.append(now - due)
        try:
            action(slot)
        except Exception:  # noqa: BLE001 — a failed request is a counted outcome
            report.failed += 1
            continue
        report.latencies.append(clock() - due)
    return report
