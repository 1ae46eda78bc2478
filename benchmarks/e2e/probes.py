"""Update-to-visible probes and read validation, public API only.

A probe picks an unused user ``u``, takes ``a`` — ``u``'s best current
neighbour — and submits "set ``u``'s profile to the harness's copy of
``a``'s".  The two are then identical, so the probe is *visible* at the
first read of ``u`` that lists ``a`` with similarity 1: no other profile
change can produce that entry.  The writer must not change ``a`` while the
probe is pending (:meth:`ProbeBook.is_anchor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Two identical profiles score 1 up to rounding in the kernels.
VISIBLE_SCORE = 1.0 - 1e-9

Neighbours = Sequence[Tuple[int, float]]


def probe_visible(neighbours: Neighbours, anchor: int) -> bool:
    return any(neighbour == anchor and score >= VISIBLE_SCORE
               for neighbour, score in neighbours)


def valid_read(neighbours: Neighbours, k: int) -> bool:
    """At most ``k`` entries, best first."""
    return len(neighbours) <= k and all(
        earlier[1] >= later[1]
        for earlier, later in zip(neighbours, neighbours[1:]))


def pick_anchor(neighbours: Neighbours, excluded: range) -> Optional[int]:
    """The best-ranked neighbour that is not itself a probe user."""
    for neighbour, _score in neighbours:
        if neighbour not in excluded:
            return neighbour
    return None


@dataclass
class _Pending:
    anchor: int
    submitted: float
    tick: int


class ProbeBook:
    """Which probes are pending, which became visible and after how long."""

    def __init__(self, probe_users: range):
        self.probe_users = probe_users
        self._unused = list(reversed(probe_users))
        self._pending: Dict[int, _Pending] = {}
        self.latencies: List[float] = []
        self.failed = 0
        self.unresolved = 0

    def next_user(self) -> Optional[int]:
        """An unused probe user that no pending probe depends on."""
        while self._unused:
            user = self._unused.pop()
            if not self.is_anchor(user):
                return user
        return None

    def is_anchor(self, user: int) -> bool:
        return any(entry.anchor == user for entry in self._pending.values())

    def open(self, user: int, anchor: int, submitted: float, tick: int = 0) -> None:
        self._pending[user] = _Pending(anchor, submitted, tick)

    def pending(self) -> List[Tuple[int, int]]:
        return [(user, entry.anchor) for user, entry in self._pending.items()]

    def submitted(self) -> int:
        return len(self.latencies) + self.failed + self.unresolved + len(self._pending)

    def observe(self, user: int, neighbours: Neighbours, now: float) -> bool:
        entry = self._pending.get(user)
        if entry is None or not probe_visible(neighbours, entry.anchor):
            return False
        self.latencies.append(now - entry.submitted)
        del self._pending[user]
        return True

    def expire(self, now: float, timeout: float) -> None:
        """Probes older than ``timeout`` seconds are failed operations."""
        for user in [user for user, entry in self._pending.items()
                     if now - entry.submitted > timeout]:
            del self._pending[user]
            self.failed += 1

    def close(self, tick: int, grace_ticks: int) -> None:
        """End of a batch window: a probe submitted within the last
        ``grace_ticks`` iterations had no chance to show and is dropped as
        unresolved; an older one that never showed is a failed operation."""
        for entry in self._pending.values():
            if tick - entry.tick <= grace_ticks:
                self.unresolved += 1
            else:
                self.failed += 1
        self._pending.clear()
