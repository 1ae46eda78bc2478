"""Phase 3 — the partition-interaction (PI) graph and its traversal heuristics."""

from repro.pigraph.pi_graph import PIEdge, PIGraph
from repro.pigraph.traversal import (
    HEURISTICS,
    DegreeHighLowHeuristic,
    DegreeLowHighHeuristic,
    GreedyResidentHeuristic,
    SequentialHeuristic,
    TraversalHeuristic,
    get_heuristic,
)
from repro.pigraph.scheduler import ScheduleResult, simulate_schedule, plan_schedule

__all__ = [
    "PIGraph",
    "PIEdge",
    "TraversalHeuristic",
    "SequentialHeuristic",
    "DegreeHighLowHeuristic",
    "DegreeLowHighHeuristic",
    "GreedyResidentHeuristic",
    "HEURISTICS",
    "get_heuristic",
    "ScheduleResult",
    "simulate_schedule",
    "plan_schedule",
]
