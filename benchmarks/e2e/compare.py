"""``--spread`` and ``--compare``: judging sets of runs against the bounds.

A run file is JSON lines, one result object per run, as ``--out`` appends
them.  Only untraced runs (the end-to-end metrics) are judged; the bounds
and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import stats


def load(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _workloads(contract: dict) -> List[str]:
    return [workload["name"] for workload in contract["workloads"]]


def print_spread(contract: dict, records: List[dict]) -> int:
    """One row per (workload, end-to-end metric): quartiles and the
    inter-quartile distance as a share of the median, next to the bound.
    Exits non-zero when a spread exceeds its bound (``setup_s`` excepted,
    as in the benchmark contract)."""
    grouped = stats.group_runs(records, trace=0)
    print(f"{'workload':12s} {'metric':22s} {'n':>3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    too_wide = 0
    for workload in _workloads(contract):
        for metric in contract["end_to_end"]:
            values = grouped.get(workload, {}).get(metric["name"])
            if not values:
                continue
            row = stats.summarise(values)
            if row["spread"] <= metric["bound"] / 3:
                verdict = "steady"
            elif row["spread"] <= metric["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                too_wide += metric["name"] != "setup_s"
            print(f"{workload:12s} {metric['name']:22s} {row['n']:3d} {row['q1']:12.5g} "
                  f"{row['median']:12.5g} {row['q3']:12.5g} {row['spread']:8.4f} "
                  f"{metric['bound']:6.2f}  {verdict}")
    return 1 if too_wide else 0


def print_comparison(contract: dict, parent: List[dict], change: List[dict]) -> int:
    """One row per (workload, end-to-end metric) with both sides' medians and
    quartiles, the bound and a verdict; exits non-zero on any ``worse`` or
    any rise in the failed share of operations."""
    parent_runs = stats.group_runs(parent, trace=0)
    change_runs = stats.group_runs(change, trace=0)
    print(f"{'workload':12s} {'metric':22s} {'parent median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'bound':>6s}  verdict")
    bad = 0
    for workload in _workloads(contract):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            before = parent_runs.get(workload, {}).get(name)
            after = change_runs.get(workload, {}).get(name)
            if not before or not after:
                continue
            verdict = stats.verdict(before, after, metric["better"], metric["bound"])
            bad += verdict == "worse"
            print(f"{workload:12s} {name:22s} {_cell(before):>38s} {_cell(after):>38s} "
                  f"{metric['bound']:6.2f}  {verdict}")
        before = [r for r in parent if r["workload"] == workload and not r["trace"]]
        after = [r for r in change if r["workload"] == workload and not r["trace"]]
        if before and after:
            share_before = stats.failed_share(before)
            share_after = stats.failed_share(after)
            rose = share_after > share_before
            bad += rose
            print(f"{workload:12s} {'failed_ops/attempted_ops':22s} {share_before:38.6f} "
                  f"{share_after:38.6f} {'':6s}  {'worse' if rose else 'same'}")
    return 1 if bad else 0


def _cell(values: List[float]) -> str:
    row = stats.summarise(values)
    return f"{row['median']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}] n={row['n']}"
