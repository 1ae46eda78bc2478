"""Order statistics for the harness, ``--spread`` and ``--compare``.

Everything here is pure: lists of numbers in, numbers or verdict strings
out.  The quartiles are Python's ``statistics.quantiles(values, n=4)`` so a
spread computed here is the one the benchmark contract computes.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it
#: (choosing-metrics, section 1).
MIN_SAMPLES_BEYOND = 10

#: The round percentiles the harness reports, lowest first.
ROUND_PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)


class InsufficientSamples(ValueError):
    """Fewer than :data:`MIN_SAMPLES_BEYOND` samples lie beyond a percentile."""


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the ``pct`` rank."""
    return count - _rank(count, pct)


def _rank(count: int, pct: float) -> int:
    # nearest-rank: the smallest rank whose share of the samples is >= pct
    return min(count, max(1, math.ceil(pct / 100.0 * count - 1e-9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail it cannot support.

    The median is always answered (it is the centre, not a tail).  Any
    higher percentile raises :class:`InsufficientSamples` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it.
    """
    if not samples:
        raise InsufficientSamples("no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    count = len(samples)
    if pct > 50.0 and samples_beyond(count, pct) < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{pct:g} of {count} samples has {samples_beyond(count, pct)} "
            f"beyond it; {MIN_SAMPLES_BEYOND} are required")
    return sorted(samples)[_rank(count, pct) - 1]


def highest_supported_percentile(count: int, ceiling: float = 99.9) -> float:
    """The highest round percentile <= ``ceiling`` that ``count`` supports."""
    supported = 50.0
    for pct in ROUND_PERCENTILES:
        if pct <= ceiling and samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            supported = pct
    return supported


def tail(samples: Sequence[float], pct: float) -> Tuple[float, float]:
    """``(value, percentile used)``: ``pct`` if supported, else the highest
    round percentile below it that is.  Callers print the percentile used, so
    a short (smoke) run never passes a p50 off as a p99."""
    used = min(pct, highest_supported_percentile(len(samples), ceiling=pct))
    return percentile(samples, used), used


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative when it is better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """``better`` / ``same`` / ``unresolved`` / ``worse`` for one metric row.

    The choosing-metrics rule: a side whose run-to-run spread is wider than
    the bound cannot resolve a difference of that size, so the row is
    ``unresolved`` — unless every run of one side beats every run of the
    other, which no spread can explain away.
    """
    if better == "lower":
        change_wins = max(change) < min(parent)
        parent_wins = max(parent) < min(change)
    else:
        change_wins = min(change) > max(parent)
        parent_wins = min(parent) > max(change)
    regress = worse_by(quartiles(parent)[1], quartiles(change)[1], better)
    if max(relative_spread(parent), relative_spread(change)) > bound:
        if change_wins and regress < 0:
            return "better"
        if parent_wins and regress > bound:
            return "worse"
        return "unresolved"
    if regress > bound:
        return "worse"
    if regress < -bound:
        return "better"
    return "same"


def summarise(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "spread": relative_spread(values)}


def failed_share(records: Sequence[dict]) -> float:
    attempted = sum(int(record["attempted"]) for record in records)
    failed = sum(int(record["failed"]) for record in records)
    return failed / attempted if attempted else 0.0


def group_runs(records: Sequence[dict], trace: int = 0
               ) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` for one trace mode."""
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if int(record.get("trace", 0)) != trace:
            continue
        metrics = grouped.setdefault(record["workload"], {})
        for name, entry in record["metrics"].items():
            metrics.setdefault(name, []).append(float(entry["value"]))
    return grouped


def finite(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value)
